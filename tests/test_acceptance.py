"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Each test prints a PASS line with its wall time so the suite doubles as a
runnable report (pytest -s tests/test_acceptance.py).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from smoothgreed import cli
from smoothgreed.instances import gen_adwords_triangular, gen_logdet_stream, gen_lp_random
from smoothgreed.objectives import (
    LogDetObjective,
    PenaltyLPObjective,
    SeparableObjective,
)
from smoothgreed.online import certify, duality_gap_diagnostics, run_sequential, run_simultaneous
from smoothgreed.scalar import Cap, Linear, Log1p, PiecewiseLinear, Power, Sqrt, alpha_at
from smoothgreed.smoothing import (
    DesignSpec,
    adwords_closed_form_smoothing,
    design_optimal,
    design_sequential,
    nesterov_logdet_smoothing,
    nesterov_penalty_smoothing,
    nesterov_pl_smoothing,
    verify_beta,
)

from oracles import antitone_check, biconjugate_grid, dp_design_beta, regret_form_ok

E = math.e
FIG_PL = PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0])


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(name, timer):
    print(f"PASS {name} ({timer.elapsed:.2f}s / budget {timer.budget:.0f}s)")
    assert timer.elapsed < timer.budget


def test_criterion_1_adwords_optimal_smoothing():
    with _Timer(5.0) as tm:
        res = design_optimal(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True))
        assert abs(res.beta - E / (E - 1)) <= 1e-3
        us = res.smoothed.h * np.arange(res.smoothed.d + 1)
        closed = np.maximum((E - np.exp(us)) / (E - 1), 0.0)
        assert float(np.max(np.abs(res.smoothed.y - closed))) <= 2e-2
        assert res.certified
    _report("criterion 1: budgeted-allocation optimal smoothing", tm)


def test_criterion_2_sequential_designs():
    with _Timer(15.0) as tm:
        for c in (0.05, 0.1, 0.5):
            res = design_sequential(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True, c=c))
            target = 1.0 - math.exp(-1.0 / (c + 1.0))
            assert abs(res.ratio - target) <= 1e-3, (c, res.ratio, target)
    _report("criterion 2: sequential-variant designs match closed form", tm)


def test_criterion_3_ratio_gap_on_adversary():
    with _Timer(30.0) as tm:
        inst = gen_adwords_triangular(100, 50)
        offline = inst.extras["offline_opt"]
        plain = SeparableObjective([Cap(1.0)] * 100)
        tr = run_simultaneous(plain, inst.steps, keep_records=False)
        assert tr.P_orig / offline <= 0.52

        designed = design_optimal(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True))
        smooth = SeparableObjective([Cap(1.0)] * 100, smoothed=designed.smoothed,
                                    certified_beta=designed.beta)
        trs = run_simultaneous(smooth, inst.steps, keep_records=False)
        assert trs.P_orig / offline >= 0.61
    _report("criterion 3: 0.50 vs 0.61 gap on the triangular adversary", tm)


def _adwords_bundle():
    return [gen_adwords_triangular(n, pl)
            for n in (2, 3, 5, 6, 8) for pl in (1, 2, 3, 4)]


def _logdet_bundle(count):
    rng = np.random.default_rng(np.random.Philox(key=202))
    jobs = []
    for seed in range(count // 2):
        jobs.append(gen_logdet_stream(int(rng.integers(3, 6)), 14, 2.0, seed=seed))
    for seed in range(count - count // 2):
        n = int(rng.integers(3, 6))
        order = rng.permutation(n)
        base = [(int(order[i]), int(order[i + 1])) for i in range(n - 1)]
        extra = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(3)]
        base += [(i, j) for i, j in extra if i != j]
        stream = []
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                stream.append((int(i), int(j)))
        jobs.append(gen_logdet_stream(n, len(stream), 2.0, source="graph_incidence",
                                      seed=seed, edges={"base": base, "stream": stream}))
    return jobs


def test_criterion_4_certificate_soundness():
    tol = 1e-9
    with _Timer(120.0) as tm:
        count = 0
        closed = adwords_closed_form_smoothing()
        mu = (E - 1) / E
        for inst in _adwords_bundle():
            n = inst.params["n"]
            plain = SeparableObjective([Cap(1.0)] * n)
            smooth = SeparableObjective([Cap(1.0)] * n, smoothed=closed,
                                        certified_beta=closed.beta_exact)
            for obj, floor in ((plain, 0.5), (smooth, 1 - 1 / E)):
                for algo, run in (("sim", run_simultaneous), ("seq", run_sequential)):
                    tr = run(obj, inst.steps)
                    rep = certify(tr, obj, inst.steps)
                    assert rep.passed, (inst.params, algo, rep)
                    if algo == "sim":
                        assert rep.ratio_lb >= floor - tol
                        assert duality_gap_diagnostics(tr, obj).passed
                    else:
                        assert duality_gap_diagnostics(tr, obj).passed
                        assert obj is plain or regret_form_ok(tr, inst.steps, mu)
            count += 1

        for inst in _logdet_bundle(64):
            A0 = np.asarray(inst.extras["A0"])
            n, l = A0.shape[0], inst.extras["l"]
            pen = nesterov_logdet_smoothing(n, l, 2.0)
            obj = LogDetObjective(A0, 2.0, l=l, smoothed_budget=pen)
            for algo, run in (("sim", run_simultaneous), ("seq", run_sequential)):
                tr = run(obj, inst.steps)
                rep = certify(tr, obj, inst.steps)
                assert rep.passed, (inst.params, algo, rep)
                if algo == "sim":
                    floor = obj.floor(tr, inst.steps)
                    assert floor.theorem == "logdet-entropy"
                    assert rep.ratio_lb >= floor.value - tol
                assert duality_gap_diagnostics(tr, obj).passed
            count += 1

        for seed in range(120):
            k = 1 + seed % 3
            inst = gen_lp_random(3 + seed % 3, 12, k, 0.6 + 0.2 * (seed % 2), seed=seed)
            obj = PenaltyLPObjective(inst.params["n"], inst.extras["l"], inst.extras["theta"])
            for algo, run in (("sim", run_simultaneous), ("seq", run_sequential)):
                tr = run(obj, inst.steps)
                rep = certify(tr, obj, inst.steps)
                # the applicable floor evaluates the ratio parameter at the
                # realized point, corrected for the sequential dual lag
                assert rep.identity_ok, (seed, algo, rep)
                assert rep.passed, (seed, algo, rep)
                assert duality_gap_diagnostics(tr, obj).passed
            count += 1

        # smoothed packing: scalar bisection at k = 1, projected Newton at k > 1
        for seed in range(60):
            k = 1 + seed % 3
            inst = gen_lp_random(3 + seed % 3, 12, k, 0.6 + 0.2 * (seed % 2), seed=seed)
            l, theta = inst.extras["l"], inst.extras["theta"]
            obj = PenaltyLPObjective(inst.params["n"], l, theta,
                                     smoothed_penalty=nesterov_penalty_smoothing(l, theta))
            for algo, run in (("sim", run_simultaneous), ("seq", run_sequential)):
                tr = run(obj, inst.steps)
                rep = certify(tr, obj, inst.steps)
                assert rep.passed, (seed, algo, rep)
                assert duality_gap_diagnostics(tr, obj).passed
                if algo == "sim":
                    assert tr.saddle_residual <= 1e-10, (seed, tr.saddle_residual)
            count += 1
        assert count >= 260, count
    _report(f"criterion 4: certificate soundness on {count} instances", tm)


def test_criterion_5_designer_vs_oracle():
    with _Timer(60.0) as tm:
        designed = design_optimal(DesignSpec(FIG_PL, 1.0, d=1000, plateau=True))
        dp = dp_design_beta(FIG_PL, 1.0, d=200, n_levels=400)
        assert abs(designed.beta - dp) <= 2e-2, (designed.beta, dp)
        best_entropy = min(
            verify_beta(nesterov_pl_smoothing(FIG_PL, th, d=1500), FIG_PL)[0]
            for th in np.geomspace(1e-2, 10.0, 50))
        assert designed.beta <= best_entropy + 1e-6, (designed.beta, best_entropy)
    _report("criterion 5: designer matches the DP oracle and beats the entropy sweep", tm)


def test_criterion_6_figure_shapes(tmp_path):
    with _Timer(120.0) as tm:
        out = str(tmp_path / "figs")
        curves = {}
        for which, extra in (("1e", ["--points", "6", "--grid-h", "0.1"]),
                             ("1f", ["--points", "6", "--grid-h", "0.1"]),
                             ("2a", ["--points", "6", "--d-plateau", "500"]),
                             ("2b", ["--points", "6", "--grid-h", "0.1"])):
            assert cli.main(["figures", "--which", which, "--out", out] + extra) == 0
            lines = Path(os.path.join(out, f"figure_{which}.csv")).read_text().strip().splitlines()
            assert lines[0].startswith("# smoothgreed")
            curves[which] = [(float(r.split(",")[0]), float(r.split(",")[2]))
                             for r in lines[2:]]
        for which, rows in curves.items():
            ratios = [r for _, r in rows]
            assert all(0.0 < r <= 1.0 for r in ratios), which
            for a, b in zip(ratios, ratios[1:]):
                assert b <= a + 1e-4, (which, ratios)
        # the sequential curves must sit at or below the simultaneous design
        sim_log = design_optimal(DesignSpec(Log1p(), 100.0, d=1000, beta_tol=2e-5))
        assert curves["2b"][0][1] <= sim_log.ratio + 1e-6
        assert curves["2b"][0][1] >= sim_log.ratio - 0.05  # small c stays close
        # self-consistency: the horizon-100 point of the first curve equals
        # a direct design call with the same grid
        assert curves["1e"][-1][1] == pytest.approx(sim_log.ratio, abs=1e-12)
    _report("criterion 6: ratio curves are monotone and anchored", tm)


def test_criterion_7_calculus_suite():
    with _Timer(30.0) as tm:
        catalog = [Cap(1.0), FIG_PL, Log1p(), Sqrt(), Power(0.4), Linear(1.0)]
        base_grid = np.concatenate((np.linspace(-2, 4, 20_000), np.geomspace(4, 1e6, 4000)))
        for f in catalog:
            for u in (0.1, 0.7, 1.3):
                sg = f.supergrad(u)
                y_grid = np.concatenate((base_grid, [sg.lo, min(sg.hi, 1e9)]))
                # conjugate round trip at 1e-6
                assert abs(biconjugate_grid(f.conjugate, u, y_grid) - float(f.value(u))) <= 1e-6
                # Fenchel-Young equality at 1e-9
                if sg.lo < 1e11:
                    assert abs(f.conj1(sg.lo) + float(f.value(u)) - sg.lo * u) <= 1e-9
                # supergradient order
                assert f.supergrad(u + 0.5).hi <= sg.lo + 1e-12

        assert antitone_check(SeparableObjective([Cap(1.0), Log1p(), Power(0.4)]),
                              trials=60, seed=0).passed
        assert antitone_check(LogDetObjective(np.eye(4) * 1.5, b=2.0),
                              trials=40, seed=1).passed
    _report("criterion 7: calculus suite at stated tolerances", tm)
