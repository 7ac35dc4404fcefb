import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgreed.scalar import SLOPE_CAP, Cap, Linear, Log1p, PiecewiseLinear, Power, Sqrt
from smoothgreed.smoothing import (
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
    smoothed_from_descriptor,
    verify_beta,
)

from oracles import adwords_certificate_check, dp_design_beta, from_base, kappa_of

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
        grid = SmoothedScalar(0.25, [1.0, 1.0, 0.5, 0.5, 0.0], tail_mode="zero")
        assert grid.deriv_inv_hi(1.0) == pytest.approx(0.25)
        assert grid.deriv_inv_lo(0.5) == pytest.approx(0.5)
        assert grid.deriv_inv_hi(0.5) == pytest.approx(0.75)
        assert grid.deriv_inv_lo(0.0) == pytest.approx(1.0)
        assert grid.deriv_inv_hi(2.0) == 0.0
        assert grid.deriv_inv_hi(-1.0) == math.inf

    def test_monotone_grid_required(self):
        with pytest.raises(ValueError):
            SmoothedScalar(0.5, [0.0, 1.0, 0.0], tail_mode="zero")

    def test_descriptor_round_trip(self):
        sm = from_base(Cap(1.0), 1.0, 64, tail_mode="zero")
        back = smoothed_from_descriptor(sm.to_descriptor())
        np.testing.assert_array_equal(back.y, sm.y)
        assert back.h == sm.h and back.tail_mode == sm.tail_mode


class TestNesterovClosedForms:
    def test_adwords_total_derivative(self):
        # reward slope one plus the smoothed unit penalty at theta = l = 1
        pen = nesterov_penalty_smoothing(1.0, 1.0)
        us = np.linspace(0, 1, 101)
        total = 1.0 + np.asarray(pen.deriv(us))
        np.testing.assert_allclose(total, (E - np.exp(us)) / (E - 1), atol=1e-12)

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
        sm = from_base(Cap(1.0), 1.0, 1000, tail_mode="zero")
        sup, arg, res = verify_beta(sm, Cap(1.0))
        assert sup == pytest.approx(2.0, abs=2e-3)
        assert np.max(res) <= 1e-12

    def test_closed_form_adwords(self):
        sm = adwords_closed_form_smoothing()
        sup, _, _ = verify_beta(sm, Cap(1.0))
        assert sup == pytest.approx(E / (E - 1), abs=1e-3)

    def test_linear_is_one(self):
        sm = from_base(Linear(1.0), 2.0, 200, tail_mode="hold_last")
        sup, _, _ = verify_beta(sm, Linear(1.0))
        assert sup == pytest.approx(1.0, abs=1e-12)


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
            assert sup8 <= res.beta + 10 * spec.feas_tol

    def test_design_rejects_bad_base(self):
        from smoothgreed.scalar import NegPlusPenalty
        with pytest.raises(ValueError):
            design_optimal(DesignSpec(NegPlusPenalty(1.0, 1.0), 2.0, d=50))

    def test_invalid_spec_rejected(self):
        for field in ("u_end", "c", "beta_tol", "feas_tol"):
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


class TestKnotSolver:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(KNOT_BASES) - 1), st.floats(-1.0, 1.0), st.floats(0.0, 3.0),
           st.floats(0.0, 3.0), st.one_of(st.floats(1e-6, 10.0), st.just(SLOPE_CAP)))
    # g is exactly 0 on [1, y_hi]: Newton from hi moved one tolerance per step
    @example(3, -5e-324, 3.0, 3.0, 1.5)
    @example(3, -5e-324, 0.1, 0.1, SLOPE_CAP)
    def test_newton_matches_bisection_contract(self, idx, lc, const, target, y_hi):
        base = KNOT_BASES[idx]
        y_argmin = float(base.supergrad(lc).hi) if lc > 0 else SLOPE_CAP
        g = lambda y: const + lc * y - base.conj1(y) - target
        tol = 1e-12
        y = _min_feasible_y(base, lc, const, target, y_hi, y_argmin, tol)
        ref = _bisect_min_feasible_y(base, lc, const, target, y_hi, y_argmin, tol)
        assert (y is None) == (ref is None), (y, ref)
        if y is None:
            return
        ystar = min(y_argmin, y_hi)
        assert 0.0 <= y <= ystar
        assert g(y) <= 0.0 or (y == ystar and g(y) <= 1e-11), (y, g(y))
        below = y - tol * max(1.0, y)
        assert below < max(0.0, base.conj_dom_lo()) or g(below) > 0.0, (y, below, g(below))

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
        sm = from_base(Linear(1.0), 2.0, 100, tail_mode="hold_last")
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
