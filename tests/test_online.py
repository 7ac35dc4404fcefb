import copy
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from smoothgreed import online
from smoothgreed.instances import gen_adwords_triangular, gen_logdet_stream, gen_lp_random
from smoothgreed.objectives import (
    DiagMap,
    FeasibleSet,
    LogDetObjective,
    LogDetState,
    PenaltyLPObjective,
    RankOneMap,
    SeparableObjective,
    StackedMap,
    Step,
    dual_objective,
)
from smoothgreed.online import (
    CERT_TOL,
    RunTrace,
    _logdet_step,
    _lp_step_exact,
    _lp_step_scalar,
    _waterfill,
    certify,
    duality_gap_diagnostics,
    run_sequential,
    run_simultaneous,
)
from smoothgreed.scalar import Cap, Linear, Log1p, NegPlusPenalty, PiecewiseLinear, Power, Sqrt
from smoothgreed.smoothing import (
    DesignSpec,
    adwords_closed_form_smoothing,
    design_optimal,
    nesterov_logdet_smoothing,
    nesterov_penalty_smoothing,
    nesterov_pl_smoothing,
)

from oracles import (
    enumerate_offline_best,
    every_step_orthant,
    every_step_psd,
    logdet_relaxation_grid,
    lp_step_highs,
    sequential_fill_deficit,
)

E = math.e


def adwords_obj(n, smoothed=False):
    if smoothed:
        s = adwords_closed_form_smoothing()
        return SeparableObjective([Cap(1.0)] * n, smoothed=s, certified_beta=s.beta_exact)
    return SeparableObjective([Cap(1.0)] * n)


# coordinate functions for the water-filling properties: name -> (coords, shared)
_CAP = Cap(1.0)
_WATERFILL_KINDS = {
    "cap": ([_CAP], True),
    "pl3": ([PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0])], True),
    "closed_form": ([adwords_closed_form_smoothing()], True),
    "nesterov_grid": ([nesterov_pl_smoothing(_CAP, 1.0)], True),
    "mixed": ([_CAP, Log1p(), Sqrt()], False),
}


def record_results(monkeypatch, name):
    """List every result of the online function ``name`` from now on."""
    results = []
    fn = getattr(online, name)

    def recorded(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(online, name, recorded)
    return results


def simplex_lattice(k, steps):
    """Points of {x >= 0, sum(x) <= 1} in R^k with coordinates in multiples of 1/steps."""
    axes = np.meshgrid(*[np.arange(steps + 1)] * k, indexing="ij")
    pts = np.stack([ax.ravel() for ax in axes], axis=1)
    return pts[pts.sum(axis=1) <= steps] / steps


def assert_exact_saddle(coords, a, w, x, y):
    """x maximizes sum_j f_j(w_j + a_j x_j) over the simplex (k <= 3), with the dual y."""
    k = len(a)
    assert np.all(x >= 0.0) and x.sum() <= 1.0, x
    u = w + a * x
    lo = np.array([float(f.deriv_right(ui)) for f, ui in zip(coords, u)])
    # the realized w + a*x can pass a breakpoint by its rounding, so the
    # upper end of the supergradient interval is read just left of it
    hi = np.array([float(f.deriv_left(ui * (1.0 - 2e-15))) for f, ui in zip(coords, u)])
    assert np.all(y >= lo) and np.all(y <= hi), (y, lo, hi)
    z = a * y
    assert abs(max(0.0, float(z.max())) * min(float(x.sum()), 1.0) - float(x @ z)) <= 1e-12
    lattice = simplex_lattice(k, {1: 400, 2: 200, 3: 60}[k])
    vals = sum(np.asarray(f.value(wj + aj * lattice[:, j]), dtype=float)
               for j, (f, aj, wj) in enumerate(zip(coords, a, w)))
    achieved = sum(float(f.value(uj)) for f, uj in zip(coords, u))
    assert achieved >= float(np.max(vals)) - 1e-8, (achieved, float(np.max(vals)))


def packing_state(steps, xs):
    """Consumption before each step, from the recorded x."""
    u = np.zeros(steps[0].A.B.shape[0])
    out = []
    for st, x in zip(steps, xs):
        out.append(u.copy())
        u = u + st.A.B @ x
    return out


def replay_states(obj, steps, trace):
    """Accumulated points before and after each step, from the recorded x."""
    if isinstance(obj, SeparableObjective):
        u = np.zeros(obj.n)
    else:
        u = np.zeros(obj.n + 1)
    out = []
    for st, rec in zip(steps, trace.records):
        prev = u.copy()
        u = u + st.A.apply(rec.x)
        out.append((prev, u.copy()))
    return out


class TestToyRuns:
    def test_linear_single_step(self):
        obj = SeparableObjective([Linear(1.0)])
        steps = [Step(DiagMap(np.array([1.0])), FeasibleSet("simplex", 1))]
        for run in (run_sequential, run_simultaneous):
            tr = run(obj, steps)
            assert tr.P_orig == pytest.approx(1.0, abs=1e-12)
            assert tr.D_alg == pytest.approx(1.0, abs=1e-12)
            assert tr.ratio_lb == pytest.approx(1.0, abs=1e-9)

    def test_two_advertiser_hand_enumeration(self):
        # step 1 bids (1, 0); step 2 bids (1, 1); greedy assigns both to
        # the first advertiser's column, wasting the second step
        obj = adwords_obj(2)
        steps = [Step(DiagMap(np.array([1.0, 0.0])), FeasibleSet("simplex", 2)),
                 Step(DiagMap(np.array([1.0, 1.0])), FeasibleSet("simplex", 2))]
        tr = run_sequential(obj, steps)
        assert tr.P_orig == pytest.approx(2.0)
        assert tr.D_alg == pytest.approx(4.0)
        best = enumerate_offline_best(obj.value, steps, frac=4)
        assert best == pytest.approx(2.0)

    def test_classic_half_pattern(self):
        # phase one bids on both, phase two only on the first column
        obj = adwords_obj(2)
        steps = [Step(DiagMap(np.array([1.0, 1.0])), FeasibleSet("simplex", 2)),
                 Step(DiagMap(np.array([1.0, 0.0])), FeasibleSet("simplex", 2))]
        tr = run_simultaneous(obj, steps)
        best = enumerate_offline_best(obj.value, steps, frac=2)
        assert best == pytest.approx(2.0)
        assert tr.P_orig / best == pytest.approx(0.5)

    def test_boundary_shift_for_root_coordinates(self):
        obj = SeparableObjective([Sqrt()] * 2)
        steps = [Step(DiagMap(np.array([0.5, 0.5])), FeasibleSet("simplex", 2))]
        tr = run_sequential(obj, steps)
        assert tr.interior_shift
        assert tr.P_orig > 0


class TestEngineInvariants:
    def test_simultaneous_gains_nonnegative(self):
        for smoothed in (False, True):
            obj = adwords_obj(6, smoothed)
            inst = gen_adwords_triangular(6, 4)
            tr = run_simultaneous(obj, inst.steps)
            assert min(r.gain for r in tr.records) >= -1e-12

    def test_dual_iterates_decrease(self):
        inst = gen_adwords_triangular(5, 3)
        for smoothed in (False, True):
            obj = adwords_obj(5, smoothed)
            for run in (run_sequential, run_simultaneous):
                tr = run(obj, inst.steps)
                prev = None
                for state_prev, state_post in replay_states(obj, inst.steps, tr):
                    y = obj.engine.grad_lo(state_post)
                    if prev is not None:
                        assert np.all(y <= prev + 1e-12)
                    prev = y

    def test_frank_wolfe_consistency(self):
        # each sequential step must equal the linearized argmax at the
        # previous point, recomputed here from scratch
        obj = adwords_obj(5, smoothed=True)
        inst = gen_adwords_triangular(5, 3)
        tr = run_sequential(obj, inst.steps)
        for st, rec, (prev, _) in zip(inst.steps, tr.records, replay_states(obj, inst.steps, tr)):
            grad = obj.engine.grad_lo(prev)
            _, x_ref = st.F.support(st.A.a * grad)
            np.testing.assert_allclose(rec.x, x_ref, atol=0)

    def test_determinism_bit_identical(self):
        inst = gen_lp_random(4, 12, 2, 0.7, seed=42)
        obj = PenaltyLPObjective(4, inst.extras["l"], inst.extras["theta"])
        t1 = run_simultaneous(obj, inst.steps)
        t2 = run_simultaneous(obj, inst.steps)
        assert t1.P_orig == t2.P_orig and t1.D_alg == t2.D_alg
        np.testing.assert_array_equal(t1.u_final, t2.u_final)

    def test_saddle_residuals_tiny(self):
        inst = gen_adwords_triangular(8, 5)
        tr = run_simultaneous(adwords_obj(8, True), inst.steps)
        assert tr.saddle_residual <= 1e-10
        for k in (2, 3):    # smoothed packing: the projected Newton step
            inst = gen_lp_random(5, 30, k, 0.7, seed=4)
            l, theta = inst.extras["l"], inst.extras["theta"]
            obj = PenaltyLPObjective(5, l, theta, smoothed_penalty=nesterov_penalty_smoothing(l, theta))
            assert run_simultaneous(obj, inst.steps).saddle_residual <= 1e-10, k
        inst = gen_logdet_stream(4, 20, 2.0, seed=3)
        A0, l = np.asarray(inst.extras["A0"]), inst.extras["l"]
        for pen in (None, nesterov_logdet_smoothing(4, l, 2.0)):
            obj = LogDetObjective(A0, 2.0, l=l, smoothed_budget=pen)
            assert run_simultaneous(obj, inst.steps).saddle_residual <= 1e-10

    def test_waterfill_matches_brute_maximization(self):
        # non-uniform bids: every simultaneous step must attain the exact
        # coordinate maximum, checked against a dense simplex grid
        rng = np.random.default_rng(np.random.Philox(key=17))
        grid = np.linspace(0.0, 1.0, 201)
        xx, yy = np.meshgrid(grid, grid)
        mask = xx + yy <= 1.0 + 1e-12
        pts = np.stack([xx[mask], yy[mask]], axis=1)
        for smoothed in (False, True):
            obj = adwords_obj(2, smoothed)
            f = obj.engine.coords[0]
            for trial in range(25):
                a = rng.uniform(0.05, 1.2, size=2)
                w = rng.uniform(0.0, 1.2, size=2)
                steps = [Step(DiagMap(w.copy()), FeasibleSet("simplex", 2)),
                         Step(DiagMap(a), FeasibleSet("simplex", 2))]
                # first step plants the prior w by sending the full simplex
                # mass through a box-like split; simpler: run both steps and
                # compare the second step's gain with the brute optimum
                tr = run_simultaneous(obj, steps)
                u_prev = steps[0].A.a * tr.records[0].x
                brute = float(np.max(
                    np.sum(np.asarray(f.value(u_prev[None, :] + a[None, :] * pts)),
                           axis=1)))
                achieved = float(np.sum(np.asarray(
                    f.value(u_prev + a * tr.records[1].x))))
                assert achieved >= brute - 1e-8, (smoothed, trial, achieved, brute)
                assert tr.saddle_residual <= 1e-10

    @settings(max_examples=150, deadline=None)
    @given(hs.sampled_from(sorted(_WATERFILL_KINDS)), hs.integers(1, 3),
           hs.lists(hs.floats(0.05, 1.5), min_size=3, max_size=3),
           hs.lists(hs.floats(0.0, 1.2), min_size=3, max_size=3),
           hs.booleans(), hs.booleans(), hs.integers(0, 3))
    # w + a*x rounds to just below (first) or above (second) the cap's
    # breakpoint for the coordinate filled to capacity
    @example("cap", 3, [1.016911391860672, 0.01734076558027651, 1.1450118271178562],
             [0.1333687723294408] * 3, False, True, 3)
    @example("cap", 3, [1.0, 1.2359826283109372, 0.27680340449866],
             [0.24260171277058154] * 3, False, True, 0)
    def test_waterfill_exact_saddle(self, kind, k, a, w, equal_bids, equal_w, zero_bid):
        funcs, shared = _WATERFILL_KINDS[kind]
        coords = [funcs[j % len(funcs)] for j in range(k)]
        a = np.full(k, a[0]) if equal_bids else np.array(a[:k])
        w = np.full(k, w[0]) if equal_w else np.array(w[:k])
        if zero_bid < k:
            a[zero_bid] = 0.0
        x, y = _waterfill(coords, shared, a, w)
        assert_exact_saddle(coords, a, w, x, y)

    @pytest.mark.parametrize("kind", ["closed_form", "nesterov_grid"])
    def test_mixed_bids_start_at_the_shared_level(self, kind, monkeypatch):
        # mixed bids take the level search; the two coordinates it fills
        # partly share the bid 0.3 (the third is empty at the level), so the
        # search starts at their closed-form level
        f = _WATERFILL_KINDS[kind][0][0]
        starts = record_results(monkeypatch, "_shared_level")
        a, w = np.array([0.3, 0.3, 0.9]), np.array([0.1, 0.2, 0.95])
        x, y = _waterfill([f] * 3, True, a, w)
        assert len(starts) == 1 and math.isfinite(starts[0]), starts
        assert 0.0 < x[0] < 1.0 and 0.0 < x[1] < 1.0 and x[2] == 0.0, x
        assert_exact_saddle([f] * 3, a, w, x, y)

    @pytest.mark.parametrize("kind", ["closed_form", "nesterov_grid"])
    def test_shared_bid_fill_matches_level_search(self, kind, monkeypatch):
        # equal bids on one shared smooth coordinate, at the equal states the
        # adversary holds its active coordinates at, take the uniform fill;
        # the same smoothing as distinct-but-equal coordinate objects goes
        # through the level search, and the two runs agree
        smooth = _WATERFILL_KINDS[kind][0][0]
        uniform = record_results(monkeypatch, "_uniform_fill")
        searches = record_results(monkeypatch, "_level")
        for n, phase_len in ((30, 5), (100, 2)):
            inst = gen_adwords_triangular(n, phase_len)
            traces = []
            for smoothed in (smooth, [copy.copy(smooth) for _ in range(n)]):
                uniform.clear()
                searches.clear()
                obj = SeparableObjective([_CAP] * n, smoothed=smoothed)
                traces.append(run_simultaneous(obj, inst.steps))
                for rec in traces[-1].records:
                    assert np.all(rec.x >= 0.0) and rec.x.sum() <= 1.0, (rec.t, rec.x.sum())
                assert traces[-1].saddle_residual <= 1e-15
                if smoothed is smooth:      # no binding step takes the level search
                    assert uniform and not searches
                else:
                    assert searches and not uniform
            shared, level = traces
            for rec, ref in zip(shared.records, level.records):
                sums = rec.x.sum(), ref.x.sum()
                if max(sums) > 1.0 - 1e-9:     # a binding step places all its mass on both
                    assert min(sums) >= 1.0 - 1e-12, (n, rec.t, sums)
            for field in ("P_orig", "D_alg"):
                a, b = getattr(shared, field), getattr(level, field)
                assert abs(a - b) <= 1e-12 * abs(b), (n, field, a, b)

    @settings(max_examples=100, deadline=None)
    @given(hs.sampled_from(["closed_form", "nesterov_grid"]), hs.integers(2, 3),
           hs.one_of(hs.floats(1e-12, 1.5), hs.sampled_from([1e-12, 5e-324])),
           hs.floats(0.0, 1.2), hs.booleans())
    @example("closed_form", 3, 5e-324, 0.5, False)
    @example("nesterov_grid", 2, 1e-12, 0.5, True)
    def test_equal_state_fill_is_exact(self, kind, active, bid, w0, zero_bid):
        # equal bids at equal states on one shared smooth coordinate: when the
        # step binds, one amount on every active coordinate is the exact
        # saddle, with the value the level search reaches
        f = _WATERFILL_KINDS[kind][0][0]
        k = min(active + zero_bid, 3)
        a, w = np.full(k, bid), np.full(k, w0)
        a[active:] = 0.0
        with mock.patch.object(online, "_uniform_fill", wraps=online._uniform_fill) as uniform:
            x, y = _waterfill([f] * k, True, a, w)
        assert_exact_saddle([f] * k, a, w, x, y)
        top = np.zeros(k)       # the fill at the plateau, summed as the solver sums it
        with np.errstate(over="ignore"):    # (t - w)/a overflows at a subnormal bid
            top[:active] = np.clip((float(f.deriv_inv_lo(0.0)) - w0) / bid, 0.0, 1.0)
        binds = top.sum() > 1.0
        assert uniform.call_count == binds
        if not binds:
            return
        assert np.all(x[:active] == x[0]) and np.all(x[active:] == 0.0), x
        x_ref, _ = _waterfill([copy.copy(f) for _ in range(k)], False, a, w)
        got, want = (float(np.sum(f.value(w + a * xx))) for xx in (x, x_ref))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

    # inputs that the former state-point walk left to the level search: one
    # ulp of the shared state moved the fills of a tiny bid by more than its
    # tolerance.  At equal states the uniform fill solves them exactly; a bid
    # of 0.1 from unequal states fills the lowest coordinate alone, to
    # capacity, and takes the level search
    @pytest.mark.parametrize("bid, w", [(1e-12, [0.5, 0.5, 0.5]), (5e-324, [0.5, 0.5, 0.5]),
                                        (0.1, [0.5, 0.5, 0.25])])
    def test_unresolved_shared_fill_takes_the_level_search(self, bid, w, monkeypatch):
        f = adwords_closed_form_smoothing()
        a, w = np.full(3, bid), np.array(w)
        uniform = record_results(monkeypatch, "_uniform_fill")
        searches = record_results(monkeypatch, "_level")
        x, y = _waterfill([f] * 3, True, a, w)
        equal = bool(np.all(w == w[0]))
        assert (len(uniform), len(searches)) == ((1, 0) if equal else (0, 1))
        if equal:
            assert np.all(x == x[0]) and x.sum() >= 1.0 - 1e-15, x
        assert_exact_saddle([f] * 3, a, w, x, y)

    def test_subnormal_level_needs_no_secant_steps(self, monkeypatch):
        # at the bid 5e-324 the bracket is a few ulps of a subnormal level, and
        # a relative tolerance underflows to 0: the secant would evaluate the
        # fill on it until its iteration cap (unequal states: the level search)
        evals = []
        solve_level = online._solve_level

        def counted(total, *args):
            evals.append(0)

            def fill_total(*a):
                evals[-1] += 1
                return total(*a)

            return solve_level(fill_total, *args)

        monkeypatch.setattr(online, "_solve_level", counted)
        x, _ = _waterfill([adwords_closed_form_smoothing()] * 3, True, np.full(3, 5e-324),
                          np.array([0.5, 0.5, 0.25]))
        assert evals == [0]
        assert np.all(x >= 0.0) and x.sum() <= 1.0

    def test_waterfill_sum_within_simplex(self):
        # the deficit is counted in index order while callers sum the full x
        # pairwise; this input once summed to 1.0000000000000002
        a = np.full(7, 0.5791838641984889)
        a[1] = 0.0
        w = np.array([0.22116132346616615, 0.054262711305098986, 0.0, 0.0,
                      0.21108693984525997, 0.7808968248123188, 0.24186062240068032])
        x, _ = _waterfill([adwords_closed_form_smoothing()] * 7, True, a, w)
        assert x.sum() <= 1.0, repr(x.sum())

    def test_waterfill_plain_cap_adversary_is_index_greedy(self):
        # with equal bids b the level is b and every simultaneous record is
        # the index-order fill of the capacities clip((1 - w)/b, 0, 1),
        # computed with the same floating-point operations, bit for bit
        for n, phase_len in ((12, 7), (30, 3)):
            inst = gen_adwords_triangular(n, phase_len)
            tr = run_simultaneous(adwords_obj(n), inst.steps)
            w = np.zeros(n)
            for st, rec in zip(inst.steps, tr.records):
                act = st.A.a > 0
                b = st.A.a[act]
                room = np.clip((1.0 - w[act]) / b, 0.0, 1.0)
                full = np.zeros(n)
                full[act] = room
                if full.sum() <= 1.0:
                    xa = room
                else:
                    xa, deficit = np.zeros(len(b)), 1.0
                    for j in range(len(xa)):
                        take = min(room[j], deficit)
                        xa[j] += take
                        deficit -= take
                        if deficit <= 1e-16:
                            break
                x = np.zeros(n)
                x[act] = xa
                np.testing.assert_array_equal(rec.x, x)
                w = w + st.A.a * x

    @pytest.mark.parametrize("coord", [Cap(1.0), PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0]),
                                       PiecewiseLinear([0.3, 0.7], [2.0, 1.0, 0.25])],
                             ids=["cap", "pl3", "pl3_positive_tail"])
    def test_pl_shared_bid_fill_matches_level_search(self, coord, monkeypatch):
        # equal bids on one shared piecewise-linear coordinate (the plain
        # adversary for the cap) are filled piece by piece, never through the
        # level search; the same function as distinct-but-equal objects goes
        # through the level search, and the two runs place every step's mass
        # bit for bit alike
        n = 30
        inst = gen_adwords_triangular(n, 3)
        level = online._level
        calls = []

        def counted(*args):
            calls.append(1)
            return level(*args)

        monkeypatch.setattr(online, "_level", counted)
        ref = run_simultaneous(SeparableObjective([copy.copy(coord) for _ in range(n)]), inst.steps)
        assert calls        # the reference binds and searches
        calls.clear()
        tr = run_simultaneous(SeparableObjective([coord] * n), inst.steps)
        assert not calls
        for rec, want in zip(tr.records, ref.records):
            np.testing.assert_array_equal(rec.x, want.x)
            assert (rec.sigma, rec.inner) == (want.sigma, want.inner), rec.t
        np.testing.assert_array_equal(tr.u_final, ref.u_final)
        np.testing.assert_array_equal(tr.y_final, ref.y_final)
        assert tr.D_alg == ref.D_alg and tr.saddle_residual == ref.saddle_residual
        # and single steps from scattered states, whose level can sit on any piece
        rng = np.random.default_rng(np.random.Philox(key=11))
        for _ in range(200):
            k = int(rng.integers(2, 7))
            a, w = np.full(k, rng.uniform(0.05, 1.0)), rng.uniform(0.0, 1.2, size=k)
            x, y = _waterfill([coord] * k, True, a, w)
            x_ref, y_ref = _waterfill([copy.copy(coord) for _ in range(k)], False, a, w)
            np.testing.assert_array_equal(x, x_ref)
            np.testing.assert_array_equal(y, y_ref)

    @settings(max_examples=300, deadline=None)
    @given(hs.lists(hs.tuples(hs.floats(0.0, 0.4), hs.sampled_from([0.0, 1e-16, 1e-9, 0.05, 0.3, 1.0])),
                    min_size=1, max_size=8),
           hs.integers(0, 2))
    @example([(0.2, 1e-16)] * 5 + [(0.0, 1.0)], 1)
    def test_fill_deficit_matches_sequential_fill(self, rooms, gap):
        # the vectorized prefix fill against the room-by-room loop it replaced
        x_min = np.array([lo for lo, _ in rooms])
        x_max = np.minimum(x_min + np.array([r for _, r in rooms]), 1.0)
        idx = np.arange(len(rooms)) * (gap + 1)
        x = np.zeros(idx[-1] + 1)
        x[idx] = x_min
        want = x.copy()
        sequential_fill_deficit(want, idx, x_min, x_max)
        online._fill_deficit(x, idx, x_min, x_max)
        np.testing.assert_array_equal(x, want)
        assert np.all(x[idx] >= x_min) and np.all(x[idx] <= x_max)
        assert x.sum() <= 1.0 or np.array_equal(x[idx], x_min)

    def test_check_steps_names_first_bad_repeat(self):
        # one Step object is checked once, at its first index
        good = Step(DiagMap(np.full(3, 0.5)), FeasibleSet("simplex", 3))
        for bad in (Step(DiagMap(np.array([0.5, math.nan, 0.5])), FeasibleSet("simplex", 3)),
                    Step(DiagMap(np.array([0.5, -1.0, 0.5])), FeasibleSet("simplex", 3)),
                    Step(DiagMap(np.full(2, 0.5)), FeasibleSet("simplex", 2))):
            steps = [good] * 3 + [bad] * 4 + [good] + [bad]
            for run in (run_simultaneous, run_sequential):
                with pytest.raises(ValueError, match=r"^step 4: "):
                    run(adwords_obj(3), steps)


def _orthant_runs():
    """Allocation and packing objectives, plain and smoothed, with their instances."""
    adv = gen_adwords_triangular(12, 4)
    for smoothed in (False, True):
        yield f"adwords-{smoothed}", adwords_obj(12, smoothed), adv
    for k, seed in ((1, 0), (3, 1)):
        inst = gen_lp_random(6, 30, k, 0.7, seed=seed)
        l, theta = inst.extras["l"], inst.extras["theta"]
        for smoothed in (False, True):
            pen = nesterov_penalty_smoothing(l, theta) if smoothed else None
            yield f"pack-k{k}-{smoothed}", PenaltyLPObjective(6, l, theta, smoothed_penalty=pen), inst


class TestZeroSteps:
    """A step with A x = 0 leaves u and the dual where they were: the orthant
    loop skips the seq dual refresh there, and record gains are evaluated
    in row passes after the steps, never one value per step."""

    @staticmethod
    def count_values(monkeypatch, owner, name="value"):
        calls = []
        value = getattr(owner, name)

        def counted(u):
            calls.append(1)
            return value(u)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("algo", ["sim", "seq"])
    def test_bit_identical_to_every_step_loop(self, algo, monkeypatch):
        run = run_simultaneous if algo == "sim" else run_sequential
        zero_steps = 0
        for name, obj, inst in _orthant_runs():
            want, P, D, corr = every_step_orthant(obj, inst.steps, algo)
            calls = self.count_values(monkeypatch, obj.engine)
            passes = self.count_values(monkeypatch, obj.engine, "row_values")
            tr = run(obj, inst.steps)
            moving = sum(bool(rec.x.any()) for rec in tr.records)
            zero_steps += len(tr.records) - moving
            # no per-step value: the final P (and P_engine), and one row pass
            # per _GAIN_CHUNK moving steps
            assert len(calls) == 1 + (obj.engine is obj), name
            assert len(passes) == -(-moving // online._GAIN_CHUNK), name
            assert len(tr.records) == len(want)
            for rec, (t, x, sigma, inner, gain) in zip(tr.records, want):
                assert rec.x.tobytes() == x.tobytes(), (name, t)
                assert (rec.t, rec.sigma, rec.inner, rec.gain) == (t, sigma, inner, gain), (name, t)
                assert math.copysign(1.0, rec.inner) == math.copysign(1.0, inner), (name, t)
                if not rec.x.any():
                    assert rec.gain == 0.0 and math.copysign(1.0, rec.gain) == 1.0, (name, t)
            assert (tr.P_orig, tr.D_alg, tr.corr) == (P, D, corr), name
        assert zero_steps > 0

    @pytest.mark.parametrize("algo", ["sim", "seq"])
    def test_no_per_step_values_without_records(self, algo, monkeypatch):
        run = run_simultaneous if algo == "sim" else run_sequential
        ld = gen_logdet_stream(4, 20, 2.0, seed=3)
        A0, l = np.asarray(ld.extras["A0"]), ld.extras["l"]
        psd_runs = [(f"logdet-{pen is not None}", LogDetObjective(A0, 2.0, l=l, smoothed_budget=pen), ld)
                    for pen in (None, nesterov_logdet_smoothing(4, l, 2.0))]
        for name, obj, inst in [*_orthant_runs(), *psd_runs]:
            ref = run(obj, inst.steps)
            if obj.cone == "psd":
                # the final P and P_engine on one penalty, or P_engine and the
                # smoothed budget's conjugate; records add one penalty pass
                calls = self.count_values(monkeypatch, obj.engine.pen)
                run(obj, inst.steps)
                assert len(calls) == 3, name
                calls.clear()
                passes = []
            else:
                calls = self.count_values(monkeypatch, obj.engine)
                passes = self.count_values(monkeypatch, obj.engine, "row_values")
            tr = run(obj, inst.steps, keep_records=False)
            assert len(calls) == (2 if obj.cone == "psd" else 1 + (obj.engine is obj)), name
            assert passes == [] and tr.records == []
            assert (tr.P_orig, tr.D_alg, tr.corr) == (ref.P_orig, ref.D_alg, ref.corr), name

    @pytest.mark.parametrize("algo", ["sim", "seq"])
    @pytest.mark.parametrize("smoothed", [False, True], ids=["plain", "closed_form"])
    def test_repeated_zero_steps_are_replayed(self, algo, smoothed, monkeypatch):
        # an arrival of the same Step object right after one that moved
        # nothing reuses that arrival's answer; equal but distinct Step
        # objects are each solved, and the two runs agree bit for bit
        run = run_simultaneous if algo == "sim" else run_sequential
        solves = []
        if algo == "sim":
            owner, name = online, "_sim_step"
        else:
            owner, name = FeasibleSet, "support"
        solver = getattr(owner, name)

        def counted(*args):
            solves.append(1)
            return solver(*args)

        monkeypatch.setattr(owner, name, counted)
        n = 30
        shared = gen_adwords_triangular(n, 5).steps
        distinct = [Step(DiagMap(st.A.a.copy()), FeasibleSet("simplex", n)) for st in shared]
        obj = adwords_obj(n, smoothed)
        tr = run(obj, shared)
        shared_solves = len(solves)
        solves.clear()
        ref = run(obj, distinct)
        assert len(solves) == len(distinct)
        for rec, want in zip(tr.records, ref.records, strict=True):
            assert rec.x.tobytes() == want.x.tobytes(), rec.t
            assert (rec.t, rec.sigma, rec.inner, rec.gain) == (want.t, want.sigma, want.inner, want.gain)
        assert (tr.P_orig, tr.D_alg, tr.saddle_residual) == (ref.P_orig, ref.D_alg, ref.saddle_residual)
        np.testing.assert_array_equal(tr.y_final, ref.y_final)
        # one solve per run of arrivals that move nothing
        still = [not st.A.apply(rec.x).any() for st, rec in zip(shared, tr.records)]
        replays = sum(shared[t] is shared[t - 1] and still[t - 1] for t in range(1, len(shared)))
        assert replays > 0 and shared_solves == len(shared) - replays


_CHUNK_RUNS = (127, 128, 129, 257)   # moving steps: each side of one and of two gain passes


@functools.cache
def _designed_cap():
    return design_optimal(DesignSpec(Cap(1.0), 1.0, d=50, plateau=True)).smoothed


_COORDS = {"cap": lambda: Cap(1.0), "pl": lambda: PiecewiseLinear([0.5, 1.5], [1.0, 0.5, 0.1]),
           "log1p": Log1p, "sqrt": Sqrt, "power": lambda: Power(0.7), "designed": _designed_cap,
           "adwords": lambda: adwords_closed_form_smoothing(256)}


def _bit_equal(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBulkGains:
    """Record gains evaluated in row passes after the steps equal, byte for
    byte, the engine value differenced after every step."""

    @staticmethod
    def check_orthant(obj, steps, algo, moving):
        want = every_step_orthant(obj, steps, algo)[0]
        # cut the stream right after its moving-th move: the steps before are unchanged
        moves = np.cumsum([bool(x.any()) for _, x, _, _, _ in want])
        assert moves[-1] >= moving
        cut = int(np.searchsorted(moves, moving)) + 1
        run = run_simultaneous if algo == "sim" else run_sequential
        eng = obj.engine
        with mock.patch.object(eng, "row_values", wraps=eng.row_values) as passes:
            tr = run(obj, steps[:cut])
        assert passes.call_count == -(-moving // online._GAIN_CHUNK)
        assert len(tr.records) == cut
        for rec, (t, x, sigma, inner, gain) in zip(tr.records, want):
            assert rec.x.tobytes() == x.tobytes(), t
            assert (rec.t, rec.sigma, rec.inner) == (t, sigma, inner), t
            assert _bit_equal(rec.gain, gain), (t, rec.gain, gain)
        return tr

    @settings(max_examples=20, deadline=None)
    @given(hs.sampled_from(_CHUNK_RUNS), hs.sampled_from(["sim", "seq"]),
           hs.lists(hs.sampled_from(sorted(_COORDS)), min_size=1, max_size=3),
           hs.integers(3, 6), hs.integers(0, 2 ** 16))
    @example(129, "seq", ["sqrt"], 4, 0)              # the seq interior shift, uniform
    @example(257, "seq", ["log1p", "sqrt"], 5, 1)     # ... and mixed
    @example(128, "sim", ["adwords"], 3, 2)
    @example(257, "sim", sorted(_COORDS), 7, 3)
    @example(257, "seq", sorted(_COORDS), 7, 4)
    def test_allocation(self, moving, algo, kinds, n, seed):
        # a single kind shares one coordinate object; several alternate
        # distinct objects.  Bids of at most 0.01 add at most 0.01 to the
        # state's sum per step, so the capped coordinates, flat past 1, keep
        # moving for the first n / 0.01 >= 300 arrivals with a bid
        coords = ([_COORDS[kinds[0]]()] * n if len(kinds) == 1
                  else [_COORDS[kinds[i % len(kinds)]]() for i in range(n)])
        rng = np.random.default_rng(seed)
        zero = Step(DiagMap(np.zeros(n)), FeasibleSet("simplex", n))
        steps = []
        while len(steps) < 330:
            draw = rng.random()
            if draw < 0.1:
                steps += [zero] * int(rng.integers(1, 3))   # repeated arrivals are replayed
            else:
                steps.append(Step(DiagMap(rng.uniform(0.001, 0.01, n)), FeasibleSet("simplex", n)))
        tr = self.check_orthant(SeparableObjective(coords), steps, algo, moving)
        # the powers' slope is unbounded at 0
        assert tr.interior_shift == (algo == "seq" and not {"power", "sqrt"}.isdisjoint(kinds))

    @settings(max_examples=12, deadline=None)
    @given(hs.sampled_from(_CHUNK_RUNS), hs.sampled_from(["sim", "seq"]), hs.booleans(),
           hs.sampled_from([1, 3]), hs.integers(0, 2 ** 16))
    def test_packing(self, moving, algo, smoothed, k, seed):
        inst = gen_lp_random(4, 700, k, 0.7, seed=seed)
        l, theta = inst.extras["l"], inst.extras["theta"]
        pen = nesterov_penalty_smoothing(l, theta) if smoothed else None
        self.check_orthant(PenaltyLPObjective(4, l, theta, smoothed_penalty=pen), inst.steps,
                           algo, moving)

    @settings(max_examples=12, deadline=None)
    @given(hs.sampled_from(_CHUNK_RUNS), hs.sampled_from(["sim", "seq"]), hs.booleans(),
           hs.integers(0, 2 ** 16))
    def test_logdet(self, m, algo, smoothed, seed):
        inst = gen_logdet_stream(4, m, 2.0, seed=seed)
        A0, l = np.asarray(inst.extras["A0"]), inst.extras["l"]
        pen = nesterov_logdet_smoothing(4, l, 2.0) if smoothed else None
        obj = LogDetObjective(A0, 2.0, l=l, smoothed_budget=pen)
        want = every_step_psd(obj, inst.steps, algo)
        tr = (run_simultaneous if algo == "sim" else run_sequential)(obj, inst.steps)
        assert len(tr.records) == len(want) == m
        for rec, (t, x, sigma, inner, gain) in zip(tr.records, want):
            assert (rec.t, float(rec.x[0]), rec.sigma, rec.inner) == (t, x, sigma, inner), t
            assert _bit_equal(rec.gain, gain), (t, rec.gain, gain)


class TestPackingRuns:
    def test_unsmoothed_certificates(self):
        for seed in range(4):
            inst = gen_lp_random(4, 15, 3, 0.7, seed=seed)
            obj = PenaltyLPObjective(4, inst.extras["l"], inst.extras["theta"])
            tr = run_simultaneous(obj, inst.steps)
            rep = certify(tr, obj, inst.steps)
            gap = duality_gap_diagnostics(tr, obj)
            assert rep.passed and gap.passed, (seed, rep)

    def test_weak_duality_at_final_dual(self):
        inst = gen_lp_random(3, 4, 2, 0.9, seed=1)
        obj = PenaltyLPObjective(3, inst.extras["l"], inst.extras["theta"])
        tr = run_simultaneous(obj, inst.steps)
        best = enumerate_offline_best(obj.value, inst.steps, frac=2)
        assert dual_objective(obj, inst.steps, tr.y_final) >= best - 1e-9
        assert tr.D_alg >= best - 1e-9

    def test_smoothed_feasibility_preserved(self):
        # with the penalty slope above the dual bound, the smoothed run
        # never over-consumes any budget coordinate
        rng = np.random.default_rng(5)
        for seed in range(3):
            inst = gen_lp_random(3, 40, 1, 1.0, seed=seed)
            l, theta = inst.extras["l"], inst.extras["theta"]
            pen = nesterov_penalty_smoothing(l, theta)
            obj = PenaltyLPObjective(3, l, theta, smoothed_penalty=pen)
            tr = run_simultaneous(obj, inst.steps)
            assert float(np.max(tr.u_final[1:])) <= 1.0 + 1e-9
            rep = certify(tr, obj, inst.steps)
            assert rep.identity_ok

    def test_smoothed_step_matches_brute_maximization(self):
        # k = 2: every simultaneous step attains the maximum of the smoothed
        # step objective, checked against a dense simplex grid
        lattice = simplex_lattice(2, 400)
        for seed in range(3):
            inst = gen_lp_random(4, 25, 2, 0.8, seed=seed)
            l, theta = inst.extras["l"], inst.extras["theta"]
            pen = nesterov_penalty_smoothing(l, theta)
            obj = PenaltyLPObjective(4, l, theta, smoothed_penalty=pen)
            tr = run_simultaneous(obj, inst.steps)
            xs = [rec.x for rec in tr.records]
            for st, x, w in zip(inst.steps, xs, packing_state(inst.steps, xs)):
                c, B = st.A.c, st.A.B
                step_val = lambda pts: pts @ c + np.sum(pen.value(w[None, :] + pts @ B.T), axis=1)
                achieved = float(step_val(x[None, :])[0])
                assert achieved >= float(np.max(step_val(lattice))) - 1e-8, (seed, x)

    def test_sequential_packing_runs(self):
        inst = gen_lp_random(4, 15, 2, 0.8, seed=7)
        obj = PenaltyLPObjective(4, inst.extras["l"], inst.extras["theta"])
        tr = run_sequential(obj, inst.steps)
        rep = certify(tr, obj, inst.steps)
        gap = duality_gap_diagnostics(tr, obj)
        assert rep.passed and gap.passed

    def test_catalog_penalty_sim_rejected(self):
        inst = gen_lp_random(3, 12, 2, 0.8, seed=11)
        # a catalog function in place of a smoothing has no second derivative
        obj = PenaltyLPObjective(3, inst.extras["l"], inst.extras["theta"],
                                 smoothed_penalty=NegPlusPenalty(inst.extras["l"], 1.0))
        with pytest.raises(ValueError, match="SmoothedScalar"):
            run_simultaneous(obj, inst.steps)


class TestDeterminantRuns:
    def test_identical_vectors_match_grid_enumeration(self):
        a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        A0 = np.eye(3)
        steps = [Step(RankOneMap(a), FeasibleSet("unit_interval")) for _ in range(3)]
        obj = LogDetObjective(A0, b=2.0)
        tr = run_simultaneous(obj, steps)
        ref = logdet_relaxation_grid(A0, [a, a, a], 2.0, grid=20)
        assert tr.P_orig == pytest.approx(ref, abs=1e-9)
        assert tr.u_final[1] == pytest.approx(2.0, abs=1e-9)

    def test_smoothed_stream_certificates(self):
        for seed in range(3):
            inst = gen_logdet_stream(3, 15, 2.0, seed=seed)
            A0 = np.asarray(inst.extras["A0"])
            pen = nesterov_logdet_smoothing(3, inst.extras["l"], 2.0)
            obj = LogDetObjective(A0, 2.0, l=inst.extras["l"], smoothed_budget=pen)
            for run in (run_simultaneous, run_sequential):
                tr = run(obj, inst.steps)
                rep = certify(tr, obj, inst.steps)
                gap = duality_gap_diagnostics(tr, obj)
                assert rep.passed and gap.passed, (seed, run, rep)

    def test_smoothed_budget_needs_second_derivative(self):
        # the exact step is closed form on a piecewise-linear budget penalty
        # and Newton on a smoothing's second derivative; a catalog function
        # in place of a smoothing has neither
        a = np.array([1.0, 0.0])
        steps = [Step(RankOneMap(a), FeasibleSet("unit_interval"))]
        obj = LogDetObjective(np.eye(2), b=1.0, smoothed_budget=Log1p())
        with pytest.raises(ValueError, match="SmoothedScalar"):
            run_simultaneous(obj, steps)
        run_sequential(obj, steps)

    def test_unsmoothed_stream_gap(self):
        inst = gen_logdet_stream(4, 20, 3.0, seed=2)
        obj = LogDetObjective(np.asarray(inst.extras["A0"]), 3.0, l=inst.extras["l"])
        tr = run_simultaneous(obj, inst.steps)
        gap = duality_gap_diagnostics(tr, obj)
        assert gap.passed
        assert certify(tr, obj, inst.steps).identity_ok


@hs.composite
def packing_steps(draw, dyadic):
    """A plain packing step (c, B, w, l) with its degenerate cases: spent
    (w_i = 1) and overspent rows, tied rewards, a zero column, zero rewards.

    ``dyadic`` draws every entry from multiples of 1/8, where a vertex's
    nonzero slacks stay far above the HiGHS reference's feasibility
    tolerance (1e-7), so the reference is exact there; otherwise nonzero
    entries are floats of at least 1e-3, clear of the entries it drops.
    """
    def entries(count, lo, hi, step=1 / 8):
        if dyadic:
            vals = hs.integers(round(lo / step), round(hi / step)).map(lambda i: i * step)
        else:
            vals = hs.one_of(hs.just(lo), hs.floats(max(lo, 1e-3), hi))
        return np.array(draw(hs.lists(vals, min_size=count, max_size=count)))

    k = draw(hs.sampled_from((1, 2, 3, 5)))
    n = draw(hs.integers(1, 5))
    c, B = entries(k, 0.0, 1.0), entries(n * k, 0.0, 1.0).reshape(n, k)
    w = entries(n, 0.0, 2.0)
    if draw(hs.booleans()):
        w[draw(hs.integers(0, n - 1))] = 1.0
    if draw(hs.booleans()):
        c[0] = c[-1] = float(np.max(c))
    if draw(hs.booleans()):
        B[:, draw(hs.integers(0, k - 1))] = 0.0
    return c, B, w, float(entries(1, 0.5, 20.0, step=1 / 2)[0])


class TestPackingLPStep:
    """The unsmoothed packing step's dual simplex against the HiGHS reference.

    Feasibility, the dual's range, the hinge supergradient and complementary
    slackness make the KKT conditions of the step, so they prove x optimal
    on any input; the reference's value is matched where it is exact and is
    never beaten by more than rounding elsewhere.
    """

    @staticmethod
    def _check(step, exact_ref):
        c, B, w, l = step
        n, k = B.shape
        obj = PenaltyLPObjective(n, l, 1.0)
        st = Step(StackedMap(c, B), FeasibleSet("simplex", k))
        state = np.concatenate(([0.0], w))
        x, y = _lp_step_exact(obj, st, state)
        x_ref, _ = lp_step_highs(obj, st, state)
        assert x.shape == (k,) and np.all(x >= 0.0) and x.sum() <= 1.0, x
        assert y.shape == (n,) and np.all(y >= -l) and np.all(y <= 0.0), y
        u = w + B @ x
        assert np.all(y[u > 1.0 + 1e-12] == -l) and np.all(y[u < 1.0 - 1e-12] == 0.0), (u, y)
        z = c + B.T @ y
        scale = 1.0 + float(np.max(c)) + l * float(np.max(B.sum(axis=0)))
        assert max(0.0, float(z.max())) * min(float(x.sum()), 1.0) - float(x @ z) <= 1e-12 * scale

        def value(x):
            return float(c @ x) - l * float(np.sum(np.maximum(w + B @ x - 1.0, 0.0)))

        val, ref = value(x), value(x_ref)
        tol = 1e-12 * max(1.0, abs(ref))
        assert val >= ref - tol and (val <= ref + tol or not exact_ref), (val, ref, x, x_ref)

    @settings(max_examples=300, deadline=None)
    @given(packing_steps(dyadic=True))
    # the start column overfills a row: pivots to a split between columns
    @example((np.array([1.0, 0.875]), np.array([[1.0, 0.25]]), np.array([0.5]), 4.0))
    # every reward is covered by overspent rows: x = 0
    @example((np.array([0.25, 0.125]), np.array([[0.5, 0.5]]), np.array([1.5]), 2.0))
    # a spent row, tied rewards and a zero column
    @example((np.array([0.375, 0.0, 0.375]), np.array([[0.25, 0.0, 0.25], [0.125, 0.0, 0.625]]),
              np.array([1.0, 0.75]), 3.0))
    def test_matches_highs_reference(self, step):
        self._check(step, exact_ref=True)

    @settings(max_examples=200, deadline=None)
    @given(packing_steps(dyadic=False))
    # a slack of 1e-7, inside the reference's tolerance: it reads x = 1 and
    # a value 5e-8 below the optimum at x = 1 - 1e-7
    @example((np.array([0.0, 0.0, 1.0]), np.array([[1.0, 1.0, 1.0]] * 4 + [[1.0, 1.0, 0.5]]),
              np.array([0.0, 0.0, 0.0, 1e-7, 1.0]), 1.0))
    def test_optimal_on_float_inputs(self, step):
        self._check(step, exact_ref=False)

    @pytest.mark.parametrize("seed", [1, 1001])
    def test_runs_match_highs_on_the_bench_shape(self, seed, monkeypatch):
        inst = gen_lp_random(20, 200, 3, 0.7, seed)
        obj = PenaltyLPObjective(20, inst.extras["l"], inst.extras["theta"])
        tr = run_simultaneous(obj, inst.steps)
        monkeypatch.setattr(online, "_lp_step_exact", lp_step_highs)
        ref = run_simultaneous(obj, inst.steps)
        assert [r.x.tobytes() for r in tr.records] == [r.x.tobytes() for r in ref.records]
        assert (tr.P_orig, tr.D_alg) == (ref.P_orig, ref.D_alg)
        assert tr.u_final.tobytes() == ref.u_final.tobytes()
        assert tr.y_final.tobytes() == ref.y_final.tobytes()


class TestExactScalarSteps:
    """The scalar step solvers meet the step's optimality conditions.

    x maximizes a concave objective over [0, 1] exactly when its slope at x,
    read with the returned supergradient, is >= 0 unless x = 0 and <= 0
    unless x = 1.
    """

    @settings(max_examples=300, deadline=None)
    @given(hs.booleans(), hs.floats(0.0, 20.0), hs.floats(0.0, 15.0),
           hs.floats(0.2, 5.0), hs.floats(0.5, 50.0), hs.booleans())
    # a spent budget: the root sits on the kink at x = 0
    @example(False, 0.5, 0.0, 2.0, 1.0, True)
    # -s * q0 underflows to 0 on the sloped piece
    @example(False, 5e-324, 0.0, 1.0, 0.5, False)
    # a kink root whose used + x passes the kink by its rounding
    @example(False, 1.0, 0.307817517446283, 0.8726385915342262, 10.0, False)
    def test_logdet_step_optimal(self, smoothed, q0, used, b, l, on_kink):
        used = b if on_kink else used
        pen = nesterov_logdet_smoothing(3, l, b) if smoothed else NegPlusPenalty(l, b)
        x, q_post, yb = _logdet_step(pen, q0, used)
        assert 0.0 <= x <= 1.0
        assert q_post == q0 / (1.0 + q0 * x)
        u = used + x
        lo, hi = float(pen.deriv_right(u)), float(pen.deriv_left(u))
        if not smoothed and used < b < u:
            hi = 0.0    # the kink's interval: u may pass the kink by its rounding
        assert lo <= yb <= hi, (x, yb, lo, hi)
        tol = 1e-12 * (1.0 + q0 ** 2 + l / b)
        if x > 0.0:
            assert q_post + yb >= -tol, (x, q_post + yb)
        if x < 1.0:
            assert q_post + yb <= tol, (x, q_post + yb)

    def test_logdet_step_spent_budget(self):
        # at used == b the root is the kink at x = 0, exactly
        for l, q0 in ((1.0, 0.5), (4.0, 3.999), (2.5, 1e-9)):
            x, q_post, yb = _logdet_step(NegPlusPenalty(l, 2.0), q0, 2.0)
            assert x == 0.0 and q_post == q0 and yb == -q0

    def test_logdet_step_kink_rounding(self):
        # no x puts used + x exactly on b: the rounded-up x passes the kink,
        # and yb = -q_post is read from the kink's interval [-l, 0]
        b, used = 0.8726385915342262, 0.307817517446283
        x, q_post, yb = _logdet_step(NegPlusPenalty(10.0, b), 1.0, used)
        assert used + (b - used) < b and used + x > b
        assert x == math.nextafter(b - used, 2.0)
        assert yb == -q_post

    @settings(max_examples=200, deadline=None)
    @given(hs.floats(0.01, 2.0), hs.lists(hs.floats(0.0, 1.0), min_size=3, max_size=3),
           hs.lists(hs.floats(0.0, 1.5), min_size=3, max_size=3),
           hs.floats(0.5, 20.0), hs.floats(0.1, 2.0))
    def test_packing_scalar_step_optimal(self, c0, B, w, l, theta):
        pen = nesterov_penalty_smoothing(l, theta)
        obj = PenaltyLPObjective(3, l, theta, smoothed_penalty=pen)
        B = np.array(B)
        st = Step(StackedMap(np.array([c0]), B[:, None]), FeasibleSet("simplex", 1))
        x, y = _lp_step_scalar(obj.engine, st, np.concatenate(([0.0], w)))
        assert x.shape == (1,) and 0.0 <= x[0] <= 1.0
        np.testing.assert_array_equal(y, pen.deriv_right(np.array(w) + B * x[0]))
        slope = c0 + float(B @ y)
        tol = 1e-12 * (1.0 + c0 + l * float(B @ B))
        if x[0] > 0.0:
            assert slope >= -tol, (x, slope)
        if x[0] < 1.0:
            assert slope <= tol, (x, slope)

    def test_no_update_after_budget_spent(self, monkeypatch):
        # once the budget is spent every plain step is exactly 0, and only
        # steps with x > 0 pay a rank-one update
        applied = []
        apply = LogDetState.apply

        def counting_apply(self, a, x, q=None):
            applied.append(x)
            return apply(self, a, x, q)

        monkeypatch.setattr(LogDetState, "apply", counting_apply)
        for seed in range(3):
            applied.clear()
            inst = gen_logdet_stream(5, 60, 3.0, seed=seed)
            obj = LogDetObjective(np.asarray(inst.extras["A0"]), 3.0, l=inst.extras["l"])
            tr = run_simultaneous(obj, inst.steps)
            xs = np.array([float(r.x[0]) for r in tr.records])
            spent = int(np.argmax(np.cumsum(xs) >= 3.0))
            assert tr.u_final[1] == 3.0 and spent < len(xs) - 1, seed
            assert np.all(xs[spent + 1:] == 0.0), seed
            assert applied == [x for x in xs if x > 0.0], seed


class TestCertificates:
    def test_unsmoothed_adwords_never_below_half(self):
        for n, pl in ((4, 2), (6, 3), (10, 4)):
            inst = gen_adwords_triangular(n, pl)
            tr = run_simultaneous(adwords_obj(n), inst.steps)
            rep = certify(tr, obj := adwords_obj(n), inst.steps)
            assert rep.ratio_lb >= 0.5 - 1e-9
            assert rep.passed

    def test_smoothed_adwords_never_below_one_minus_inv_e(self):
        for n, pl in ((4, 2), (6, 3), (10, 4)):
            inst = gen_adwords_triangular(n, pl)
            obj = adwords_obj(n, smoothed=True)
            tr = run_simultaneous(obj, inst.steps)
            rep = certify(tr, obj, inst.steps)
            assert rep.ratio_lb >= (1 - 1 / E) - 1e-9
            assert rep.passed

    def test_sequential_corrected_bound(self):
        inst = gen_adwords_triangular(6, 1)  # large bids, large correction
        obj = adwords_obj(6)
        tr = run_sequential(obj, inst.steps)
        rep = certify(tr, obj, inst.steps)
        assert tr.corr <= 1e-12
        assert rep.passed

    @pytest.mark.parametrize("algo", ["sim", "seq"])
    def test_one_slack_backs_both_checks(self, algo):
        # |P_engine - conj(y_final)| = 5, so a tolerance scaled by it would
        # pass a slack of -2e-9; both checks read the slack against CERT_TOL
        obj = adwords_obj(2)
        corr = -0.25 if algo == "seq" else 0.0
        for slack, ok in ((-2e-9, False), (-5e-10, True)):
            sigma_sum = 4.0 - corr - slack
            y = np.array([0.5, 0.5])      # conj(y) = -1
            tr = RunTrace(algo, 2, np.ones(2), y, P_orig=4.0, P_engine=4.0,
                          D_alg=sigma_sum + 1.0, D_engine=sigma_sum + 1.0, sigma_sum=sigma_sum,
                          corr=corr, sq_norm_sum=0.5)
            assert tr.slack == pytest.approx(slack, abs=1e-15)
            assert obj.conj(y) == -1.0 and CERT_TOL == 1e-9
            rep = certify(tr, obj, [])
            gap = duality_gap_diagnostics(tr, obj, mu=1.0)
            assert rep.identity_ok is ok and rep.passed is ok, slack
            assert gap.passed is ok, slack
            # the regret form: slack + corr >= -sq_norm_sum / (2 mu) - CERT_TOL
            assert gap.passed_regret is (ok if algo == "seq" else None), slack

    def test_gap_identities_all_families(self):
        inst = gen_adwords_triangular(5, 3)
        for smoothed in (False, True):
            obj = adwords_obj(5, smoothed)
            for run in (run_sequential, run_simultaneous):
                tr = run(obj, inst.steps)
                assert duality_gap_diagnostics(tr, obj).passed

    def test_regret_form_with_lipschitz_surrogate(self):
        obj = adwords_obj(6, smoothed=True)
        inst = gen_adwords_triangular(6, 5)
        tr = run_sequential(obj, inst.steps)
        sm = obj.engine.coords[0]
        mu = sm.h / float(np.max(np.abs(np.diff(sm.y))))   # 1 / max curvature
        assert mu == pytest.approx((E - 1) / E, abs=1e-3)
        gap = duality_gap_diagnostics(tr, obj, mu=mu)
        assert gap.passed and gap.passed_regret

    def test_sequential_smoothed_large_adversary(self):
        # vanishing bid-to-budget ratio: the sequential engine with the
        # designed smoothing clears 0.61 on the full-size adversary
        inst = gen_adwords_triangular(100, 50)
        obj = adwords_obj(100, smoothed=True)
        tr = run_sequential(obj, inst.steps, keep_records=False)
        assert tr.P_orig / 100.0 >= 0.61
        assert certify(tr, obj, inst.steps).passed

    def test_smoothed_logdet_realized_alpha_floor(self):
        # the realized smoothed ratio parameter never falls below the
        # entropy-smoothing guarantee on simultaneous runs
        for seed in range(4):
            inst = gen_logdet_stream(4, 15, 2.0, seed=seed)
            A0 = np.asarray(inst.extras["A0"])
            pen = nesterov_logdet_smoothing(4, inst.extras["l"], 2.0)
            obj = LogDetObjective(A0, 2.0, l=inst.extras["l"], smoothed_budget=pen)
            tr = run_simultaneous(obj, inst.steps)
            if tr.P_orig <= 0:
                continue
            alpha_realized = 1.0 + (obj.conj(tr.y_final) - tr.P_engine) / tr.P_orig
            floor = -(1.0 + 1.0 / (E - 1.0)) * pen.gamma
            assert alpha_realized >= floor - 1e-9


class TestWeakDuality:
    """P and a brute-force lower bound on OPT never exceed the certified D.

    Small random instances of all three families, both engines, plain and
    smoothed; the oracles enumerate choices (orthant) or a grid of the
    hard-budget relaxation (PSD cone), so both are lower bounds on OPT.
    """

    @staticmethod
    def _check(objs, steps, oracle):
        for obj in objs:
            for run in (run_simultaneous, run_sequential):
                tr = run(obj, steps)
                D = tr.D_alg
                assert max(tr.P_orig, oracle) <= D + 1e-9 * max(1.0, abs(D)), \
                    (run.__name__, obj.engine is not obj, tr.P_orig, oracle, D)

    def test_final_dual_bound(self):
        # y_final lies below every step's dual, so D(y_final) is itself a
        # weak-duality bound, and no larger than D_alg
        adv = gen_adwords_triangular(5, 3)
        lp = gen_lp_random(4, 15, 2, 0.7, seed=3)
        ld = gen_logdet_stream(4, 15, 2.0, seed=2)
        l, theta = lp.extras["l"], lp.extras["theta"]
        A0, l0 = np.asarray(ld.extras["A0"]), ld.extras["l"]
        cases = [(adwords_obj(5), adv), (adwords_obj(5, smoothed=True), adv),
                 (PenaltyLPObjective(4, l, theta), lp),
                 (PenaltyLPObjective(4, l, theta,
                                     smoothed_penalty=nesterov_penalty_smoothing(l, theta)), lp),
                 (LogDetObjective(A0, 2.0, l=l0), ld),
                 (LogDetObjective(A0, 2.0, l=l0,
                                  smoothed_budget=nesterov_logdet_smoothing(4, l0, 2.0)), ld)]
        for obj, inst in cases:
            for run in (run_simultaneous, run_sequential):
                tr = run(obj, inst.steps)
                D_final = dual_objective(obj, inst.steps, tr.y_final)
                case = (inst.family, obj.engine is not obj, run.__name__, tr.P_orig, D_final,
                        tr.D_alg)
                assert math.isfinite(D_final), case
                assert tr.P_orig <= D_final + 1e-9 * max(1.0, abs(D_final)), case
                assert D_final <= tr.D_alg + 1e-9 * max(1.0, abs(tr.D_alg)), case

    @settings(max_examples=60, deadline=None)
    @given(hs.integers(2, 3), hs.lists(hs.lists(hs.floats(0.0, 1.2), min_size=3, max_size=3),
                                       min_size=1, max_size=3))
    @example(2, [[0.0, 2.225073858507203e-309, 0.0]])    # a denormal bid: no overflow warning
    @example(2, [[0.0, 1.0, 0.0], [0.0, 6.717179179956181e-173, 0.0]])    # a tiny shared bid
    def test_allocation(self, n, bids):
        steps = [Step(DiagMap(np.array(a[:n])), FeasibleSet("simplex", n)) for a in bids]
        plain = adwords_obj(n)
        oracle = enumerate_offline_best(plain.value, steps, frac=2)
        self._check([plain, adwords_obj(n, smoothed=True)], steps, oracle)

    @settings(max_examples=25, deadline=None)
    @given(hs.integers(2, 3), hs.integers(1, 3), hs.integers(1, 2), hs.integers(0, 2**16))
    @example(2, 1, 1, 136)     # the LP holds a kink that w + Bx misses by one ulp
    def test_packing(self, n, m, k, seed):
        inst = gen_lp_random(n, m, k, 0.7, seed)
        l, theta = inst.extras["l"], inst.extras["theta"]
        plain = PenaltyLPObjective(n, l, theta)
        smooth = PenaltyLPObjective(n, l, theta,
                                    smoothed_penalty=nesterov_penalty_smoothing(l, theta))
        oracle = enumerate_offline_best(plain.value, inst.steps, frac=2)
        self._check([plain, smooth], inst.steps, oracle)

    @settings(max_examples=60, deadline=None)
    @given(hs.integers(2, 3), hs.integers(1, 3), hs.floats(0.3, 2.5), hs.integers(0, 2**16))
    def test_determinant(self, n, m, b, seed):
        inst = gen_logdet_stream(n, m, b, seed=seed)
        A0, l = np.asarray(inst.extras["A0"]), inst.extras["l"]
        plain = LogDetObjective(A0, b, l=l)
        smooth = LogDetObjective(A0, b, l=l, smoothed_budget=nesterov_logdet_smoothing(n, l, b))
        oracle = logdet_relaxation_grid(A0, [st.A.a for st in inst.steps], b, grid=8)
        self._check([plain, smooth], inst.steps, oracle)
