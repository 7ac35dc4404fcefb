import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgreed import smoothing
from smoothgreed.scalar import (
    SLOPE_CAP,
    Cap,
    Linear,
    Log1p,
    PiecewiseLinear,
    Power,
    ScalarConcave,
    Sqrt,
)
from smoothgreed.smoothing import (
    FEAS_TOL,
    DesignSpec,
    SmoothedScalar,
    _min_feasible_y,
    adwords_closed_form_smoothing,
    design_optimal,
    design_sequential,
    make_monotone,
    nesterov_logdet_smoothing,
    nesterov_penalty_smoothing,
    nesterov_pl_smoothing,
    verify_beta,
)

from oracles import (
    adwords_certificate_check,
    design_bisection_reference,
    dp_design_beta,
    from_base,
    greedy_construct_reference,
    kappa_of,
)

E = math.e
FIG_PL = PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0])


class TestMakeMonotone:
    def test_example(self):
        np.testing.assert_array_equal(make_monotone([3, 1, 2, 0]), [3, 1, 1, 0])

    def test_idempotent_on_monotone(self):
        y = np.array([2.0, 1.5, 1.5, 0.2])
        np.testing.assert_array_equal(make_monotone(y), y)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 10), min_size=1, max_size=40))
    def test_output_dominated_and_sorted(self, ys):
        out = make_monotone(ys)
        assert np.all(np.diff(out) <= 0)
        assert np.all(out <= np.asarray(ys) + 1e-15)


class TestSmoothedScalar:
    def test_cumint_concave(self):
        sm = adwords_closed_form_smoothing(d=512)
        second = np.diff(sm.cumint, 2)
        assert np.max(second) <= 1e-12

    def test_grid_matches_exact_forms(self):
        sm = adwords_closed_form_smoothing(d=2048)
        us = np.linspace(0, 1.4, 300)
        y_exact = np.maximum((E - np.exp(np.minimum(us, 1.0))) / (E - 1), 0.0)
        np.testing.assert_allclose(sm.deriv(us), y_exact, atol=1e-12)
        cum_exact = (E * np.minimum(us, 1) - np.exp(np.minimum(us, 1)) + 1) / (E - 1)
        np.testing.assert_allclose(sm.value(us), cum_exact, atol=1e-12)

    def test_conjugate_fenchel_young(self):
        sm = adwords_closed_form_smoothing(d=256)
        for u in (0.05, 0.3, 0.8, 1.0):
            z = float(sm.deriv(u))
            assert sm.conjugate(z) + sm.value(u) == pytest.approx(z * u, abs=1e-10)

    def test_deriv_inverses(self):
        grid = SmoothedScalar(0.25, [1.0, 1.0, 0.5, 0.5, 0.0])
        assert grid.deriv_inv_hi(1.0) == pytest.approx(0.25)
        assert grid.deriv_inv_lo(0.5) == pytest.approx(0.5)
        assert grid.deriv_inv_hi(0.5) == pytest.approx(0.75)
        assert grid.deriv_inv_lo(0.0) == pytest.approx(1.0)
        assert grid.deriv_inv_hi(2.0) == 0.0
        assert grid.deriv_inv_hi(-1.0) == math.inf

    def test_monotone_grid_required(self):
        with pytest.raises(ValueError):
            SmoothedScalar(0.5, [0.0, 1.0, 0.0])

    def test_nonfinite_grid_rejected(self):
        # a NaN sample passes the monotonicity comparison, so finiteness is
        # checked by name before anything reads the samples
        with pytest.raises(ValueError, match=r"must be finite, got y\[1\] = nan, y\[2\] = -inf"):
            SmoothedScalar(0.5, [1.0, math.nan, -math.inf])
        for h in (0.0, -0.5, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="SmoothedScalar: h must be finite and positive"):
                SmoothedScalar(h, [1.0, 0.0])

    def test_zero_last_sample_is_a_plateau(self):
        sm = from_base(Cap(1.0), 1.0, 64, plateau=True)
        assert sm.y[-1] == 0.0 and sm.u_end == 1.0
        us = np.array([1.0, 1.5, 10.0, 1e6])
        np.testing.assert_array_equal(sm.deriv(us), 0.0)
        np.testing.assert_array_equal(sm.value(us), sm.value(1.0))
        assert sm.deriv_inv_hi(0.0) == sm.deriv_inv_hi(-1.0) == math.inf
        assert sm.deriv_inv_lo(-1e-12) == math.inf
        assert sm.deriv_inv_lo(0.0) == pytest.approx(1.0)
        assert sm.deriv_inv_hi(1e-12) <= 1.0
        assert sm.conj_dom_lo() == 0.0
        assert sm.conjugate(-1e-9) == -math.inf
        assert sm.conjugate(0.0) == -sm.value(1.0)

    def test_negative_last_sample_is_held(self):
        sm = SmoothedScalar(0.5, [1.0, 0.0, -0.5])
        assert not sm.monotone
        us = np.array([1.0, 2.0, 5.0])
        np.testing.assert_array_equal(sm.deriv(us), -0.5)
        np.testing.assert_allclose(sm.value(us), sm.value(1.0) - 0.5 * (us - 1.0), atol=1e-15)
        assert sm.deriv_inv_hi(-0.5) == math.inf and sm.deriv_inv_lo(-0.6) == math.inf
        assert sm.deriv_inv_lo(-0.5) == pytest.approx(1.0)
        assert sm.deriv_inv_hi(-0.25) == pytest.approx(0.75)
        assert sm.conj_dom_lo() == -0.5
        assert sm.conjugate(-0.6) == -math.inf
        assert sm.conjugate(-0.5) == pytest.approx(-0.5 * 1.0 - sm.value(1.0), abs=1e-15)

    def test_descriptor_round_trip(self):
        sm = from_base(Cap(1.0), 1.0, 64, plateau=True)
        assert sm.to_descriptor()["params"].keys() == {"h", "y"}
        back = SmoothedScalar(**sm.to_descriptor()["params"])
        np.testing.assert_array_equal(back.y, sm.y)
        assert back.h == sm.h


    def test_smoothings_share_the_scalar_protocol(self):
        # the inherited supergrad, conj1 and descriptor, and one-sided
        # derivatives that follow each closed form's own deriv off the grid
        cases = [adwords_closed_form_smoothing(256), nesterov_penalty_smoothing(2.0, 1.0),
                 nesterov_logdet_smoothing(3, 2.0, 1.5), nesterov_pl_smoothing(Cap(1.0), 1.0, d=200)]
        us = np.linspace(0.0, 1.7, 41) + 1e-3
        for sm in cases:
            assert isinstance(sm, ScalarConcave) and sm.kind == "smoothed_grid"
            np.testing.assert_array_equal(sm.deriv_right(us), sm.deriv(us))
            np.testing.assert_array_equal(sm.deriv_left(us), sm.deriv(us))
            sg = sm.supergrad(0.5)
            assert sg.lo == sg.hi == sm.deriv(0.5)
            assert sm.conj1(sg.lo) == sm.conjugate(sg.lo)
            back = SmoothedScalar(**sm.to_descriptor()["params"])
            np.testing.assert_array_equal(back.y, sm.y)


class TestNesterovClosedForms:
    def test_adwords_total_derivative(self):
        # reward slope one plus the smoothed unit penalty at theta = l = 1
        pen = nesterov_penalty_smoothing(1.0, 1.0)
        us = np.linspace(0, 1, 101)
        total = 1.0 + np.asarray(pen.deriv(us))
        np.testing.assert_allclose(total, (E - np.exp(us)) / (E - 1), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=4))
    @example([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -0.0, 1.0])
    def test_adwords_inverse_raises_no_float_warning(self, vs):
        # the inverse runs outside any errstate on every water-filling step;
        # no input, nan and infinities included, may warn (an error under
        # -X dev with the suite's filter)
        sm = adwords_closed_form_smoothing(64)
        v = np.array(vs)
        with np.errstate(divide="raise", over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = np.asarray(sm.deriv_inv_lo(v)), np.asarray(sm.deriv_inv_hi(v))
            scalar = sm.deriv_inv_lo(vs[0])
        assert np.array_equal(lo[:1], [scalar], equal_nan=True)
        inside = (v > 0.0) & (v < 1.0)
        np.testing.assert_allclose(np.asarray(sm.deriv(lo[inside])), v[inside], rtol=1e-9, atol=1e-15)
        np.testing.assert_array_equal(lo[inside], hi[inside])
        assert np.all(lo[v >= 1.0] == 0.0) and np.all(lo[v < 0.0] == np.inf)
        assert np.all(np.isnan(lo[np.isnan(v)]))

    def test_second_derivative_matches_difference_quotient(self):
        # closed forms and the grid's own interpolation, away from the kinks
        grid = nesterov_pl_smoothing(Cap(1.0), 1.0, d=200)
        cases = ((nesterov_penalty_smoothing(2.0, 1.0), 1.0),
                 (nesterov_logdet_smoothing(3, 2.0, 1.5), None),
                 (grid, grid.u_end))
        for sm, end in cases:
            end = sm.u_end if end is None else end
            us = np.linspace(0.013, 0.97 * end, 37)
            if sm is grid:      # midpoints of grid cells: the slope there is exact
                us = (np.floor(us / sm.h) + 0.5) * sm.h
            eps = 1e-6 * sm.h if sm is grid else 1e-6
            fd = (np.asarray(sm.deriv(us + eps)) - np.asarray(sm.deriv(us - eps))) / (2 * eps)
            np.testing.assert_allclose(np.asarray(sm.deriv2(us)), fd, rtol=1e-6, atol=1e-8)
            # constant past the clip or the end of the grid
            assert sm.deriv2(end * 1.5 + 0.1) == 0.0

    def test_scalar_derivatives_match_array_path(self):
        # a float takes its own path through deriv and deriv2; its values
        # must equal, bit for bit, the array path's on one point
        for sm in (nesterov_penalty_smoothing(2.0, 1.0), nesterov_logdet_smoothing(200, 2.0, 100.0)):
            c = sm.u_clip
            us = np.concatenate(([0.0, c, math.nextafter(c, 0.0), math.nextafter(c, 2 * c), 1.5 * c, 4 * c],
                                 np.linspace(0.0, 2.0 * c, 2001)))
            for u in us.tolist():
                for method in (sm.deriv, sm.deriv2):
                    got, want = method(u), method(np.array(u))
                    assert type(got) is float and got.hex() == want.hex(), (u, method, got, want)
                    assert method(np.float64(u)).hex() == want.hex()

    def test_penalty_inactive_at_origin(self):
        assert nesterov_penalty_smoothing(2.0, 1.0).deriv(0.0) == 0.0

    def test_clip_point_at_budget(self):
        # derivative reaches -l exactly where exp(gamma*u) = 1 + l(e-1)/theta
        pen = nesterov_penalty_smoothing(2.0, 1.0)
        assert pen.deriv(1.0) == pytest.approx(-2.0, abs=1e-12)
        assert pen.deriv(1.0 - 1e-6) > -2.0

    def test_logdet_gamma_value(self):
        sm = nesterov_logdet_smoothing(2, 2.0 * (1 + 1e-6), 3.0)
        assert sm.gamma == pytest.approx(math.log(1 + 2 * (1 + 1e-6) / math.log(1.5)), rel=1e-12)

    def test_logdet_small_l_limit(self):
        sm = nesterov_logdet_smoothing(4, 1e-6, 2.0)
        us = np.linspace(0.0, 1.9, 50)
        assert np.max(np.abs(np.asarray(sm.deriv(us)))) <= 1e-6

    def test_logdet_certified_bound_field(self):
        sm = nesterov_logdet_smoothing(3, 5.0, 2.0)
        expect = 1.0 / (1.0 + (1.0 + 1.0 / (E - 1)) * sm.gamma)
        assert sm.ratio_bound == pytest.approx(expect, rel=1e-12)


class TestVerifyBeta:
    def test_unsmoothed_cap_is_two(self):
        sm = from_base(Cap(1.0), 1.0, 1000, plateau=True)
        sup, arg, res = verify_beta(sm, Cap(1.0))
        assert sup == pytest.approx(2.0, abs=2e-3)
        assert np.max(res) <= 1e-12

    def test_closed_form_adwords(self):
        sm = adwords_closed_form_smoothing()
        sup, _, _ = verify_beta(sm, Cap(1.0))
        assert sup == pytest.approx(E / (E - 1), abs=1e-3)

    def test_linear_is_one(self):
        sm = from_base(Linear(1.0), 2.0, 200)
        sup, _, _ = verify_beta(sm, Linear(1.0))
        assert sup == pytest.approx(1.0, abs=1e-12)

    def test_infinite_supremum_residuals_are_defined(self):
        # the plateau's zero slope puts log1p's conjugate at -inf, so no finite
        # beta certifies the grid; the residuals hold no NaN and raise no
        # RuntimeWarning (an error under the suite's filter)
        sm = design_optimal(DesignSpec(Cap(1.0), 1.0, d=200, plateau=True)).smoothed
        sup, _, res = verify_beta(sm, Log1p())
        assert sup == math.inf
        assert not np.isnan(res).any() and np.all(res == -np.inf)


class TestDesigner:
    def test_adwords_design_nails_closed_form(self):
        res = design_optimal(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True))
        assert res.beta == pytest.approx(E / (E - 1), abs=1e-3)
        us = res.smoothed.h * np.arange(res.smoothed.d + 1)
        target = np.maximum((E - np.exp(us)) / (E - 1), 0.0)
        assert np.max(np.abs(res.smoothed.y - target)) <= 2e-2
        assert res.certified

    def test_linear_design(self):
        res = design_optimal(DesignSpec(Linear(1.0), 1.0, d=100))
        assert res.beta == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.smoothed.y, 1.0, atol=1e-9)

    def test_fig_pl_matches_dp_oracle(self):
        res = design_optimal(DesignSpec(FIG_PL, 1.0, d=1000, plateau=True))
        ref = dp_design_beta(FIG_PL, 1.0, d=200, n_levels=400)
        assert abs(res.beta - ref) <= 2e-2

    def test_designer_dominates_entropy_sweep(self):
        for base in (Cap(1.0), FIG_PL):
            designed = design_optimal(DesignSpec(base, 1.0, d=1000, plateau=True)).beta
            best = min(verify_beta(nesterov_pl_smoothing(base, th, d=1500), base)[0]
                       for th in np.geomspace(1e-2, 10.0, 50))
            assert designed <= best + 1e-4, base

    def test_plateau_equivalence(self):
        short = design_optimal(DesignSpec(Cap(1.0), 1.0, d=500, plateau=True))
        long = design_optimal(DesignSpec(Cap(1.0), 10.0, d=5000, plateau=False))
        assert abs(short.beta - long.beta) <= 1e-3

    def test_refinement_never_hurts(self):
        betas = [design_optimal(DesignSpec(Cap(1.0), 1.0, d=d, plateau=True)).beta
                 for d in (250, 500, 1000)]
        for coarse, fine in zip(betas, betas[1:]):
            assert fine <= coarse + 1e-6

    def test_certified_soundness_under_refinement(self):
        for base, spec in ((Cap(1.0), DesignSpec(Cap(1.0), 1.0, d=400, plateau=True)),
                           (Log1p(), DesignSpec(Log1p(), 50.0, d=800)),
                           (Sqrt(), DesignSpec(Sqrt(), 50.0, d=800))):
            res = design_optimal(spec)
            sup8, _, _ = verify_beta(res.smoothed, base, refine=8)
            assert sup8 <= res.beta + 10 * FEAS_TOL

    def test_design_rejects_bad_base(self):
        from smoothgreed.scalar import NegPlusPenalty
        with pytest.raises(ValueError):
            design_optimal(DesignSpec(NegPlusPenalty(1.0, 1.0), 2.0, d=50))

    def test_invalid_spec_rejected(self):
        for field in ("u_end", "c", "beta_tol"):
            for bad in (math.nan, math.inf, -math.inf):
                kwargs = {"u_end": 1.0, field: bad}
                with pytest.raises(ValueError, match=field):
                    DesignSpec(Cap(1.0), **kwargs)
        for d in (100.5, math.nan, 5):
            with pytest.raises(ValueError, match="d must be"):
                DesignSpec(Cap(1.0), 1.0, d=d)

    def test_horizon_designs_finite_slope_start(self):
        res = design_optimal(DesignSpec(Log1p(), 100.0, d=1000))
        assert res.smoothed.y[0] <= 1.0 + 1e-12
        assert np.all(np.diff(res.smoothed.y) <= 1e-12)

    def test_unbounded_slope_base(self):
        res = design_optimal(DesignSpec(Sqrt(), 100.0, d=1000))
        assert res.certified and 1.0 <= res.beta <= 1.5 + 0.06


KNOT_BASES = [Cap(1.0), FIG_PL, Linear(1.0), Log1p(), Sqrt(), Power(0.3)]


def _bisect_min_feasible_y(base, lc, const, target, y_hi, y_argmin, tol=1e-12):
    """The knot solve by plain bisection, as the designer first did it."""
    g = lambda y: const + lc * y - base.conj1(y) - target
    ystar = min(y_argmin, y_hi)
    if not g(ystar) <= 1e-11:
        return None
    if g(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, ystar
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _g_rounding(base, lc, const, target, y):
    """Bound on the rounding of one evaluation of the knot function g at y:
    4 eps times its terms, with conj(y) = y*u - f(u) at u = conj1_slope(y)."""
    yu = y * base.conj1_slope(y)
    terms = abs(const) + abs(lc * y) + abs(target) + abs(yu) + abs(yu - base.conj1(y))
    return 4.0 * np.finfo(float).eps * terms


class TestKnotSolver:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(KNOT_BASES) - 1), st.floats(-1.0, 1.0), st.floats(0.0, 3.0),
           st.floats(0.0, 3.0), st.one_of(st.floats(1e-6, 10.0), st.just(SLOPE_CAP)),
           st.one_of(st.none(), st.floats(-1.0, 12.0)))
    # g is exactly 0 on [1, y_hi]: Newton from hi moved one tolerance per step
    @example(3, -5e-324, 3.0, 3.0, 1.5, None)
    @example(3, -5e-324, 0.1, 0.1, SLOPE_CAP, None)
    # a double root of g at hi = 1/2: g reads 0 over about 1e-8 left of it
    @example(4, 1.0, 0.0, 1.0, 1e12, None)
    @example(4, 1.0, 0.0, 1.0, 1.0, None)
    # a steep root near 16.5: a solve stopped short of tol leaves g(below) < 0
    @example(3, -0.12346730144254847, 2.7529906992530004, 0.717198609277587, SLOPE_CAP, None)
    # a guess within a tolerance of lo = 0: Sqrt.conj1 overflows there
    @example(4, 0.0, 0.0, 1.0, 1e12, 7.57e-297)
    def test_newton_matches_bisection_contract(self, idx, lc, const, target, y_hi, guess):
        base = KNOT_BASES[idx]
        y_argmin = float(base.supergrad(lc).hi) if lc > 0 else SLOPE_CAP
        g = lambda y: const + lc * y - base.conj1(y) - target
        tol = 1e-12
        lo, hi = max(0.0, base.conj_dom_lo()), min(y_argmin, y_hi)
        knot = _min_feasible_y(base.conj1, base.conj1_slope, lc, const, target,
                               lo, base.conj1(lo), hi, base.conj1(hi), tol, guess=guess)
        y = None if knot is None else knot[0]
        ref = _bisect_min_feasible_y(base, lc, const, target, y_hi, y_argmin, tol)
        assert (y is None) == (ref is None), (y, ref)
        if y is None:
            return
        ystar = min(y_argmin, y_hi)
        assert 0.0 <= y <= ystar
        assert g(y) <= 0.0 or (y == ystar and g(y) <= 1e-11), (y, g(y))
        # the left neighbour is infeasible, up to the rounding of g where g is
        # flat to rounding (the promise in _min_feasible_y's docstring)
        below = y - tol * max(1.0, y)
        flat = _g_rounding(base, lc, const, target, below) + _g_rounding(base, lc, const, target, y)
        assert below < max(0.0, base.conj_dom_lo()) or g(below) > 0.0 or -g(below) <= flat, \
            (y, below, g(below), flat)

    def test_betas_pinned(self):
        # betas of the bisection-based knot solve; the Newton solve returns
        # the same smallest feasible derivatives to 1e-12
        for spec, beta in (
                (DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True), 1.5823285173391923),
                (DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True, c=0.5), 2.055506253578642),
                (DesignSpec(FIG_PL, 1.0, d=1000, plateau=True), 1.5421406513050897),
                (DesignSpec(Log1p(), 100.0, d=2000), 1.4236483024486812),
                (DesignSpec(Sqrt(), 100.0, d=1000), 1.272247314453109)):
            res = design_sequential(spec) if spec.c > 0 else design_optimal(spec)
            assert res.beta == pytest.approx(beta, rel=1e-8), (spec.base, spec.c)

    @pytest.mark.parametrize("spec, beta, at_most", [
        (DesignSpec(Log1p(), 100.0, d=2000), 1.4237, 5.0),
        (DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True), 1.5824, 3.5)], ids=["log1p", "cap"])
    def test_evaluations_per_knot(self, monkeypatch, spec, beta, at_most):
        # conj1 + conj1_slope calls per knot of one construction near beta*;
        # the counts repeat exactly (7.14 and 4.28 before the probe and the
        # warm start, 5.69 on log1p with a linear warm start in place of the
        # cubic)
        calls = [0]
        for name in ("conj1", "conj1_slope"):
            method = getattr(type(spec.base), name)

            def counted(self, y, method=method):
                calls[0] += 1
                return method(self, y)

            monkeypatch.setattr(type(spec.base), name, counted)
        h = spec.u_end / spec.d
        psis = np.asarray(spec.base.value(h * np.arange(spec.d + 1)), dtype=float).tolist()
        assert smoothing._greedy_construct(spec, beta, psis)[0] is not None
        assert calls[0] / spec.d <= at_most, calls[0] / spec.d


class TestGreedyIdentity:
    """The designer's grids are bit-identical to the reference construction."""

    @staticmethod
    def _specs():
        for base in KNOT_BASES:
            for plateau, u_end in ((True, 1.0), (False, 50.0)):
                if plateau and base.plateau_u() is None:
                    continue
                for c in (0.0, 0.3):
                    if c == 0.0 or math.isfinite(base.slope0()):
                        yield DesignSpec(base, u_end, d=120, plateau=plateau, c=c)

    def test_grids_match_reference(self):
        for spec in self._specs():
            outcomes = set()
            h = spec.u_end / spec.d
            psis = np.asarray(spec.base.value(h * np.arange(spec.d + 1)), dtype=float).tolist()
            beta_star = smoothing._design(spec).beta
            # betas on both sides of the feasibility threshold
            for beta in (1.0, 0.9 * beta_star, beta_star - 1e-3, beta_star, beta_star + 1e-3,
                         1.2 * beta_star, 3.0):
                y, margin = smoothing._greedy_construct(spec, beta, psis)
                ref, ref_margin = greedy_construct_reference(spec, beta, psis)
                assert (y is None) == (ref is None), (spec, beta)
                # the last knot's margin too, bit for bit (None when an earlier knot fails)
                assert repr(margin) == repr(ref_margin), (spec, beta)
                # the plateau check on the unclamped last sample, as _design does it
                outcomes.add(y is None or (spec.plateau and y[-1] > FEAS_TOL))
                if y is not None:
                    assert np.array_equal(y, ref) and y.tobytes() == ref.tobytes(), (spec, beta)
            assert outcomes == {True, False}, spec

    def test_designs_match_reference(self, monkeypatch):
        specs = list(self._specs())
        runs = [design_sequential(s) if s.c else design_optimal(s) for s in specs]
        monkeypatch.setattr(smoothing, "_greedy_construct", greedy_construct_reference)
        for spec, res in zip(specs, runs):
            ref = design_sequential(spec) if spec.c else design_optimal(spec)
            assert res.beta == ref.beta, spec
            assert res.smoothed.y.tobytes() == ref.smoothed.y.tobytes(), spec


class TestBetaBisection:
    def test_tolerance_below_float_spacing_ends(self, monkeypatch):
        # near beta the midpoint of adjacent floats is one of them; the
        # bisection stops there, after about 53 constructions
        construct, calls = smoothing._greedy_construct, [0]

        def counted(*args):
            calls[0] += 1
            assert calls[0] <= 200, "the beta bisection does not end"
            return construct(*args)

        monkeypatch.setattr(smoothing, "_greedy_construct", counted)
        betas = []
        for tol in (1e-17, 1e-300):
            calls[0] = 0
            betas.append(design_optimal(DesignSpec(Cap(1.0), 1.0, d=20, plateau=True,
                                                   beta_tol=tol)).beta)
            assert calls[0] <= 64, tol
        assert betas[0] == betas[1]


BENCH_DESIGN_SPECS = (DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True),
                      DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True, c=0.5),
                      DesignSpec(FIG_PL, 1.0, d=1000, plateau=True),
                      DesignSpec(Log1p(), 100.0, d=2000))
FIG_2A_SPECS = tuple(DesignSpec(FIG_PL, 1.0, d=500, plateau=True, c=float(c), beta_tol=2e-5)
                     for c in np.linspace(0.02, 1.0, 6))


def _count_constructs(monkeypatch):
    construct, calls = smoothing._greedy_construct, [0]

    def counted(*args):
        calls[0] += 1
        return construct(*args)

    monkeypatch.setattr(smoothing, "_greedy_construct", counted)
    return calls


class TestBetaSearch:
    """The beta search returns the bisection's result in fewer constructions."""

    @staticmethod
    def _assert_same(spec):
        res, ref = smoothing._design(spec), design_bisection_reference(spec)
        assert res.beta == ref.beta, spec
        assert res.smoothed.y.tobytes() == ref.smoothed.y.tobytes(), spec

    def test_matches_bisection(self):
        for spec in (*TestGreedyIdentity._specs(), *BENCH_DESIGN_SPECS, *FIG_2A_SPECS):
            self._assert_same(spec)

    @given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_bisection_on_plateau_bases(self, gaps, drops, c):
        # a monotone piecewise-linear base that is flat past its last breakpoint
        k = min(len(gaps), len(drops))
        b = np.cumsum(gaps[:k])
        s = np.append(1.0 + np.cumsum(drops[:k - 1][::-1])[::-1], [1.0, 0.0])
        base = PiecewiseLinear(b.tolist(), s.tolist())
        self._assert_same(DesignSpec(base, float(b[-1]), d=60, plateau=True, c=c))

    def test_probes_record_the_search(self):
        res = design_optimal(BENCH_DESIGN_SPECS[0])
        # on the cap: the bracket, one midpoint, a prediction whose
        # confirmation finds its lo feasible, a second whose hi is
        # infeasible, the replay's one constructed midpoint, and the third
        # prediction's hi; the final bracket's lo is the second's failed hi
        assert [p[0] for p in res.probes] == [2.05, 1.525, 1.5912017822265623, 1.5911376953124998,
                                              1.5819732666015625, 1.590625, 1.582037353515625]
        for beta, feasible, miss in res.probes:
            assert feasible == (miss <= FEAS_TOL), beta
        feasible = min(b for b, ok, _ in res.probes if ok)
        infeasible = max(b for b, ok, _ in res.probes if not ok)
        assert (infeasible, feasible) == (res.probes[-3][0], res.probes[-1][0])
        assert 0.0 < feasible - infeasible <= res.spec.beta_tol
        assert "probes" not in res.summary()
        # on pl3 the last prediction's confirmation succeeds: the last two
        # constructions are the final bracket's ends
        res = design_optimal(BENCH_DESIGN_SPECS[2])
        feasible = min(b for b, ok, _ in res.probes if ok)
        infeasible = max(b for b, ok, _ in res.probes if not ok)
        assert {p[0] for p in res.probes[-2:]} == {feasible, infeasible}
        assert 0.0 < feasible - infeasible <= res.spec.beta_tol

    def test_construct_counts(self, monkeypatch):
        # 10, 11, 10 and at most 11 each (86 in all) when only the misses of
        # the last sample were predicted from
        calls = _count_constructs(monkeypatch)
        pins = list(zip(BENCH_DESIGN_SPECS[:3], (7, 6, 6))) + [(spec, 8) for spec in FIG_2A_SPECS]
        total = 0
        for spec, pin in pins:
            calls[0] = 0
            res = smoothing._design(spec)
            assert calls[0] == len(res.probes) <= pin, (spec, res.probes)
            assert any(miss is not None and miss > FEAS_TOL for _, _, miss in res.probes)
            total += calls[0]
        assert total <= 63

    def test_horizon_designs_take_no_more_than_the_bisection(self, monkeypatch):
        calls = _count_constructs(monkeypatch)
        for spec in (BENCH_DESIGN_SPECS[3], DesignSpec(Sqrt(), 100.0, d=400)):
            res = smoothing._design(spec)
            assert all(miss is None for _, _, miss in res.probes)
            calls[0] = 0
            design_bisection_reference(spec)
            assert len(res.probes) <= calls[0], spec

    @pytest.mark.parametrize("power", [-40, -10, -1, 0.3, 1, 3, 40])
    def test_bad_estimate_costs_at_most_two_constructs(self, monkeypatch, power):
        # margins scaled by beta**power: feasibility and the margins' signs
        # are unchanged, the secant root is not, and the two margins nearest
        # zero may not fall at all
        construct = smoothing._greedy_construct

        def skewed(spec, beta, psis):
            y, margin = construct(spec, beta, psis)
            return y, None if margin is None else margin * beta ** power

        specs = [DesignSpec(Cap(1.0), 1.0, d=200, plateau=True),
                 DesignSpec(FIG_PL, 1.0, d=200, plateau=True),
                 DesignSpec(Cap(1.0), 1.0, d=200, plateau=True, c=0.5),
                 DesignSpec(FIG_PL, 1.0, d=200, plateau=True, c=0.6, beta_tol=2e-5)]
        monkeypatch.setattr(smoothing, "_greedy_construct", skewed)
        calls = _count_constructs(monkeypatch)
        for spec in specs:
            calls[0] = 0
            ref = design_bisection_reference(spec)
            bisection = calls[0]
            res = smoothing._design(spec)
            assert len(res.probes) <= bisection + 2, (spec, power, res.probes)
            assert res.beta == ref.beta and res.smoothed.y.tobytes() == ref.smoothed.y.tobytes()


class TestSequentialDesigner:
    def test_adwords_sequential_closed_form(self):
        for c in (0.05, 0.1, 0.5):
            res = design_sequential(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True, c=c))
            assert res.ratio == pytest.approx(1 - math.exp(-1 / (c + 1)), abs=1e-3)

    def test_small_c_recovers_simultaneous(self):
        sim = design_optimal(DesignSpec(Cap(1.0), 1.0, d=800, plateau=True))
        seq = design_sequential(DesignSpec(Cap(1.0), 1.0, d=800, plateau=True, c=1e-4))
        assert abs(sim.beta - seq.beta) <= 1e-2

    def test_derivative_grid_matches_closed_form(self):
        c = 0.1
        res = design_sequential(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True, c=c))
        beta = 1 / (1 - math.exp(-1 / (c + 1)))
        us = res.smoothed.h * np.arange(res.smoothed.d + 1)
        target = np.maximum(beta * (1 - np.exp((us - 1) / (1 + c))), 0.0)
        assert np.max(np.abs(res.smoothed.y - target)) <= 2e-2

    def test_needs_positive_c(self):
        with pytest.raises(ValueError):
            design_sequential(DesignSpec(Cap(1.0), 1.0, d=100, plateau=True, c=0.0))
        with pytest.raises(ValueError):
            design_optimal(DesignSpec(Cap(1.0), 1.0, d=100, plateau=True, c=0.1))


class TestKappa:
    def test_constant_gradient_is_zero(self):
        sm = from_base(Linear(1.0), 2.0, 100)
        assert kappa_of(sm, Linear(1.0), 0.3) == 0.0

    def test_zero_c_is_zero(self):
        sm = adwords_closed_form_smoothing(d=256)
        assert kappa_of(sm, Cap(1.0), 0.0) == 0.0

    def test_beta_decomposition_cross_check(self):
        # verified beta with the lag term should match 1 - alpha + kappa
        # computed from its pieces on the same smoothing
        c = 0.1
        res = design_sequential(DesignSpec(Cap(1.0), 1.0, d=1000, plateau=True, c=c))
        sm = res.smoothed
        beta_no_lag, _, _ = verify_beta(sm, Cap(1.0), c=0.0)
        kap = kappa_of(sm, Cap(1.0), c)
        total, _, _ = verify_beta(sm, Cap(1.0), c=c)
        assert total <= beta_no_lag + kap + 1e-9
        assert total >= beta_no_lag - 1e-9


class TestOptimalityAnchor:
    def test_adwords_certificate_check(self):
        rep = adwords_certificate_check()
        assert rep.passed
        assert rep.mass_residual <= 1e-6
        assert rep.slackness_residual <= 1e-5
        assert rep.f_nonneg
