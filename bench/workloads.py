"""The benchmark's workloads: set-up and jobs, built only from the public API.

``BUILDERS[workload](seed, workdir)`` does the set-up (instance generation,
JSON round-trip, objective and smoothing construction) and returns the
jobs of one pass.  A job runs one engine or one design and returns an
``Outcome``: the certified ratio lower bounds it produced, the number of
arrivals it processed and its checks.

Library functions are looked up through their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from smoothgreed import cli, instances, objectives, online, scalar, smoothing

E = math.e
CAP_BETA = E / (E - 1.0)                          # optimal beta of min(u, 1)
CAP_SEQ_C = 0.5
CAP_SEQ_RATIO = 1.0 - math.exp(-1.0 / (CAP_SEQ_C + 1.0))
TOL = 1e-9

# Quality guard.  Every job's certified ratios are checked against the values
# at the commit that defined the benchmark, job by job, so that a loss in one
# job is not averaged away in ratio_lb_geomean.  Jobs whose inputs do not
# depend on the seed must reproduce REFERENCE to within REF_TOL (relative);
# on the adversary CLI jobs the true ratio P/OPT follows the ratio bound.
REF_TOL = 1e-4
REFERENCE = {
    ("cap", "sim"): [0.6319800149222977],
    ("cap-seq", "seq"): [0.4864981550209333],
    ("pl3", "sim"): [0.6484492832438569],
    ("log1p", "sim"): [0.7024206738981781],
    ("fig-1e", "sim"): [0.873470286329, 0.812365954547, 0.763357322449,
                        0.731228112501, 0.711982023579, 0.700670165874],
    ("fig-2a", "seq"): [0.637101055391, 0.545480203954, 0.477020267409,
                        0.423908303649, 0.381480189986, 0.346797882279],
    ("adv-plain", "sim"): [0.4999999999999892, 0.5000000000000003],
    ("adv-closed", "sim"): [0.6321834579177392, 0.6352572212873497],
    ("adv-plain", "seq"): [0.4999999999999889, 0.5],
    ("adv-closed", "seq"): [0.6284730521662982, 0.6312000000000001],
    ("adv-grid", "sim"): [0.6324350554335916],
    ("adv-grid", "seq"): [0.6144428493263805],
    ("pack-plain", "sim"): [1.0],
    ("pack-plain", "seq"): [1.0],
}
# Seeded jobs: the ratio's mean minus six standard deviations over seeds
# 1-20 and 1001-1010, rounded down to three digits (lowest value seen after #).
FLOOR = {
    ("pack-k1", "sim"): 0.209,          # 0.2274
    ("pack-k1", "seq"): 0.208,          # 0.2259
    ("pack-k3", "sim"): 0.177,          # 0.2302
    ("pack-k3", "seq"): 0.144,          # 0.1894
    ("det-plain", "sim"): 0.236,        # 0.2375
    ("det-plain", "seq"): 0.204,        # 0.2052
    ("det-smooth", "sim"): 0.455,       # 0.4584
    ("det-smooth", "seq"): 0.318,       # 0.3368
    ("graph-plain", "sim"): 0.000624,   # 0.000657
    ("graph-plain", "seq"): 0.000623,   # 0.000656
    ("graph-smooth", "sim"): 0.237,     # 0.2645
    ("graph-smooth", "seq"): 0.0761,    # 0.1048
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    # A verdict check is the library's own certify floor.  ROADMAP item 2
    # documents one floor as a placeholder, so a failed verdict counts in
    # pass_share without marking the outputs incorrect.
    verdict: bool = False


@dataclass
class Outcome:
    ratios: list                   # certified ratio lower bounds (P/D or 1/beta)
    arrivals: int = 0
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    @property
    def sound(self):
        return all(c.ok for c in self.checks if not c.verdict)


@dataclass
class Job:
    name: str
    side: str                      # "sim" or "seq": engine, or design variant
    run: Callable[[], Outcome]


def _stream_checks(P, D, cert_ok, gap_ok):
    finite = math.isfinite(P) and math.isfinite(D)
    return [
        Check("finite", finite, f"P={P!r} D={D!r}"),
        Check("weak_duality", finite and P <= D + TOL * max(1.0, abs(D)), f"P={P:.6g} D={D:.6g}"),
        Check("gap", bool(gap_ok)),
        Check("certify", bool(cert_ok), f"ratio_lb={P / D if D else math.nan:.4g}", verdict=True),
    ]


def _quality_check(name, side, values):
    if (name, side) in REFERENCE:
        floors = [r * (1.0 - REF_TOL) for r in REFERENCE[name, side]]
    else:
        floors = [FLOOR[name, side]] * len(values)
    ok = len(values) == len(floors) and all(v >= f for v, f in zip(values, floors))
    return Check("quality", ok, f"values={[round(float(v), 6) for v in values]} "
                                f"floors={[round(f, 6) for f in floors]}")


def _quiet_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ----------------------------------------------------------------------
# design: the designer and scalar.conj1; no engine runs
# ----------------------------------------------------------------------


def _design_job(name, side, spec, closed_form=None):
    def go():
        design = smoothing.design_sequential if spec.c > 0 else smoothing.design_optimal
        res = design(spec)
        checks = [Check("certified", bool(res.certified)),
                  Check("residual", res.max_residual <= 0.0, f"max_residual={res.max_residual:.3g}")]
        notes = {"beta": res.beta}
        if closed_form is not None:
            kind, target = closed_form
            got = res.beta if kind == "beta" else res.ratio
            checks.append(Check("closed_form", abs(got - target) <= 1e-3,
                                f"{kind}={got:.6f} target={target:.6f}"))
            notes["beta_excess"] = res.beta / (target if kind == "beta" else 1.0 / target) - 1.0
        checks.append(_quality_check(name, side, [res.ratio]))
        return Outcome([res.ratio], checks=checks, notes=notes)

    return Job(name, side, go)


def _figure_job(name, side, which, extra, outdir):
    def go():
        rc, _ = _quiet_cli(["figures", "--which", which, "--out", outdir] + extra)
        checks = [Check("exit", rc == 0, f"rc={rc}")]
        ratios = []
        if rc == 0:
            with open(os.path.join(outdir, f"figure_{which}.csv")) as fh:
                rows = [ln.split(",") for ln in fh.read().strip().splitlines()[2:]]
            ratios = [float(r[2]) for r in rows]
            checks.append(Check("bounded", all(0.0 < r <= 1.0 for r in ratios)))
            checks.append(Check("monotone", all(b <= a + 1e-4 for a, b in zip(ratios, ratios[1:])),
                                f"ratios={[round(r, 5) for r in ratios]}"))
        checks.append(_quality_check(name, side, ratios))
        return Outcome(ratios, checks=checks)

    return Job(name, side, go)


def build_design(seed, workdir):
    """The designs are deterministic; ``seed`` is recorded but unused."""
    cap, pl3 = scalar.Cap(1.0), scalar.PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0])
    Spec = smoothing.DesignSpec
    return [
        _design_job("cap", "sim", Spec(cap, 1.0, d=1000, plateau=True), ("beta", CAP_BETA)),
        _design_job("cap-seq", "seq", Spec(cap, 1.0, d=1000, plateau=True, c=CAP_SEQ_C),
                    ("ratio", CAP_SEQ_RATIO)),
        _design_job("pl3", "sim", Spec(pl3, 1.0, d=1000, plateau=True)),
        _design_job("log1p", "sim", Spec(scalar.Log1p(), 100.0, d=2000)),
        _figure_job("fig-1e", "sim", "1e", ["--points", "6", "--grid-h", "0.1"], workdir),
        _figure_job("fig-2a", "seq", "2a", ["--points", "6", "--d-plateau", "500"], workdir),
    ]


# ----------------------------------------------------------------------
# stream workloads
# ----------------------------------------------------------------------


def _roundtrip(inst, path):
    inst.save(path)
    return instances.Instance.load(path)


def _api_job(name, side, obj, inst):
    def go():
        run = online.run_simultaneous if side == "sim" else online.run_sequential
        tr = run(obj, inst.steps)
        rep = online.certify(tr, obj, inst.steps)
        gap = online.duality_gap_diagnostics(tr, obj)
        checks = _stream_checks(tr.P_orig, tr.D_alg, rep.passed, gap.passed)
        checks.append(_quality_check(name, side, [tr.ratio_lb]))
        return Outcome([tr.ratio_lb], tr.m, checks)

    return Job(name, side, go)


def _cli_job(name, side, path, m, smoothing_arg, true_ratio_check, outprefix):
    argv = ["certify", "--instance", path, "--algo", side, "--out", outprefix]
    if smoothing_arg:
        argv += ["--smoothing", smoothing_arg]

    def go():
        rc, out = _quiet_cli(argv)
        s = json.loads(out.strip().splitlines()[-1])
        checks = [Check("exit", rc in (0, 2), f"rc={rc}")]
        checks += _stream_checks(s["P"], s["D"], s["certificate_ok"], s["gap_ok"])
        if side == "sim":
            checks.append(true_ratio_check(s["true_ratio"]))
        checks.append(_quality_check(name, side, [s["ratio_lb"], s["true_ratio"]]))
        return Outcome([s["ratio_lb"]], m, checks, {"true_ratio": s["true_ratio"]})

    return Job(name, side, go)


def build_orthant(seed, workdir):
    jobs = []
    adv = os.path.join(workdir, "adv.json")
    inst = instances.gen_adwords_triangular(100, 50)
    inst.save(adv)
    m = len(inst.steps)
    plain = lambda r: Check("true_ratio", r <= 0.52, f"true_ratio={r:.4f} (plain greedy is 1/2)")
    closed = lambda r: Check("true_ratio", r >= 0.61, f"true_ratio={r:.4f} (smoothed >= 0.61)")
    for side in ("sim", "seq"):
        jobs.append(_cli_job("adv-plain", side, adv, m, None, plain, os.path.join(workdir, f"plain-{side}")))
        jobs.append(_cli_job("adv-closed", side, adv, m, "closed_form", closed,
                             os.path.join(workdir, f"closed-{side}")))

    grid_inst = _roundtrip(instances.gen_adwords_triangular(100, 10), os.path.join(workdir, "adv10.json"))
    cap = scalar.Cap(1.0)
    grid = smoothing.nesterov_pl_smoothing(cap, 1.0)
    beta, _, _ = smoothing.verify_beta(grid, cap)
    grid_obj = objectives.SeparableObjective([cap] * 100, smoothed=grid, certified_beta=beta)

    packs = []
    for name, (rows, k), smoothed in (("pack-plain", (200, 3), False),
                                      ("pack-k1", (400, 1), True),
                                      ("pack-k3", (20, 3), True)):
        pi = _roundtrip(instances.gen_lp_random(20, rows, k, 0.7, seed),
                        os.path.join(workdir, f"{name}.json"))
        l, theta = pi.extras["l"], pi.extras["theta"]
        pen = smoothing.nesterov_penalty_smoothing(l, theta) if smoothed else None
        packs.append((name, objectives.PenaltyLPObjective(20, l, theta, smoothed_penalty=pen), pi))
    for side in ("sim", "seq"):
        jobs.append(_api_job("adv-grid", side, grid_obj, grid_inst))
        for name, obj, pi in packs:
            jobs.append(_api_job(name, side, obj, pi))
    return jobs


def _graph_edges(seed, nodes, count):
    rng = np.random.Generator(np.random.Philox(key=int(seed) + 1))
    base = [(i, i + 1) for i in range(nodes - 1)]
    stream = []
    while len(stream) < count:
        i, j = (int(v) for v in rng.integers(0, nodes, size=2))
        if i != j:
            stream.append((i, j))
    return {"base": base, "stream": stream}


def build_psd(seed, workdir):
    det = _roundtrip(instances.gen_logdet_stream(200, 800, 100.0, seed=seed),
                     os.path.join(workdir, "det.json"))
    graph = _roundtrip(instances.gen_logdet_stream(100, 600, 60.0, source="graph_incidence", seed=seed,
                                                   edges=_graph_edges(seed, 100, 600)),
                       os.path.join(workdir, "graph.json"))
    pairs = []
    for tag, inst in (("det", det), ("graph", graph)):
        A0 = np.asarray(inst.extras["A0"], dtype=float)
        b, l = inst.params["b"], inst.extras["l"]
        pen = smoothing.nesterov_logdet_smoothing(A0.shape[0], l, b)
        pairs.append((f"{tag}-plain", objectives.LogDetObjective(A0, b, l=l), inst))
        pairs.append((f"{tag}-smooth", objectives.LogDetObjective(A0, b, l=l, smoothed_budget=pen), inst))
    return [_api_job(name, side, obj, inst) for side in ("sim", "seq") for name, obj, inst in pairs]


BUILDERS = {"design": build_design, "orthant-stream": build_orthant, "psd-stream": build_psd}
