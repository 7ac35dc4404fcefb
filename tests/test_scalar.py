import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgreed.scalar import (
    Cap,
    Linear,
    Log1p,
    NegPlusPenalty,
    PiecewiseLinear,
    Power,
    Sqrt,
    alpha_at,
    alpha_bar,
    check_positive,
    from_descriptor,
)

from oracles import biconjugate_grid, conjugate_grid

FIG_PL = PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0])

CATALOG = [
    Cap(1.0),
    Cap(2.5),
    FIG_PL,
    PiecewiseLinear([1.0], [2.0, 0.5]),
    Log1p(),
    Sqrt(),
    Power(0.3),
    Power(0.7),
    Linear(1.0),
    Linear(0.4),
    NegPlusPenalty(2.0, 1.0),
]


class TestEvaluation:
    def test_cap_identity_segment(self):
        assert Cap(1.0).value(0.5) == 0.5

    def test_pl_middle_piece(self):
        assert FIG_PL.value(0.6) == pytest.approx(0.55, abs=1e-15)

    def test_budgeted_coordinate_saturates(self):
        # u - (u - 1)_+ collapses to min(u, 1)
        assert Cap(1.0).value(2.0) == 1.0

    def test_normalized_at_zero(self):
        for f in CATALOG:
            assert f.value(0.0) == 0.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            Cap(1.0).supergrad(-0.1)


class TestConjugate:
    def test_cap_at_zero(self):
        assert Cap(1.0).conjugate(0.0) == -1.0

    def test_cap_linear_segment(self):
        for y in (0.0, 0.25, 0.7, 1.0):
            assert Cap(1.0).conjugate(y) == pytest.approx(y - 1.0, abs=1e-15)

    def test_log1p_closed_form(self):
        for y in (0.1, 0.5, 1.0):
            assert Log1p().conjugate(y) == pytest.approx(1 - y + math.log(y), abs=1e-12)

    def test_against_grid_oracle(self):
        cases = {
            "cap": (Cap(1.0), [0.0, 0.3, 1.0, 2.0]),
            "pl": (FIG_PL, [0.0, 0.2, 0.5, 0.8, 1.5]),
            "log1p": (Log1p(), [0.05, 0.4, 1.0, 3.0]),
            "sqrt": (Sqrt(), [0.1, 0.6]),
            "power": (Power(0.3), [0.2, 1.0]),
            "linear": (Linear(1.0), [1.0, 2.0]),
            "penalty": (NegPlusPenalty(2.0, 1.0), [-1.5, -0.5, 0.0, 0.5]),
        }
        for name, (f, ys) in cases.items():
            for y in ys:
                got = f.conjugate(y)
                ref = conjugate_grid(f.value, y)
                assert got == pytest.approx(ref, abs=3e-3), (name, y)

    def test_outside_domain_is_minus_inf(self):
        assert Cap(1.0).conjugate(-0.1) == -math.inf
        assert Linear(1.0).conjugate(0.9) == -math.inf
        assert NegPlusPenalty(2.0, 1.0).conjugate(-2.1) == -math.inf

    def test_scalar_fast_path_matches_vector(self):
        ys = np.linspace(-2.0, 3.0, 41)
        for f in CATALOG:
            vec = f.conjugate(ys)
            for y, v in zip(ys, vec):
                assert f.conj1(float(y)) == pytest.approx(v, abs=1e-12) or (
                    math.isinf(v) and math.isinf(f.conj1(float(y))))

    def test_biconjugation_round_trip(self):
        base_grid = np.concatenate((np.linspace(-3, 5, 30_000), np.geomspace(5, 1e6, 5000)))
        for f in CATALOG:
            for u in (0.05, 0.4, 1.0, 2.3):
                sg = f.supergrad(u)
                y_grid = np.concatenate((base_grid, [sg.lo, min(sg.hi, 1e9)]))
                got = biconjugate_grid(f.conjugate, u, y_grid)
                assert got == pytest.approx(float(f.value(u)), abs=1e-6), f


class TestSupergradients:
    def test_cap_kink(self):
        sg = Cap(1.0).supergrad(1.0)
        assert (sg.lo, sg.hi) == (0.0, 1.0)

    def test_cap_flat(self):
        sg = Cap(1.0).supergrad(2.0)
        assert (sg.lo, sg.hi) == (0.0, 0.0)

    def test_power_half(self):
        sg = Power(0.5).supergrad(4.0)
        assert sg.lo == pytest.approx(0.25) and sg.hi == pytest.approx(0.25)

    def test_boundary_unbounded_above(self):
        assert Cap(1.0).supergrad(0.0).hi >= 1e11
        assert Sqrt().supergrad(0.0).lo >= 1e11

    def test_fenchel_young_equality(self):
        for f in CATALOG:
            for u in (0.1, 0.5, 1.0, 1.7, 3.0):
                y = f.supergrad(u).lo
                if y >= 1e11:
                    continue
                lhs = f.conj1(y) + float(f.value(u))
                assert lhs == pytest.approx(y * u, abs=1e-9), (f, u)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(1e-9, 10.0), st.integers(0, len(CATALOG) - 1))
    def test_antitone_order(self, u, gap, idx):
        f = CATALOG[idx]
        hi_later = f.supergrad(u + gap).hi
        lo_earlier = f.supergrad(u).lo
        assert hi_later <= lo_earlier + 1e-12


class TestDerivativeInverses:
    def test_sup_definitions_over_catalog(self):
        # deriv_inv_hi(v) = sup{u >= 0 : deriv_right(u) >= v} and
        # deriv_inv_lo(v) = sup{u >= 0 : deriv_left(u) > v}, with sup {} = 0:
        # the derivative keeps the relation just below the returned point
        # and loses it just above
        eps = 1e-9
        for f in CATALOG:
            slopes = list(getattr(f, "s", [0.5, 1.0]))
            vs = [-3.0, -0.5, 0.0] + slopes + [0.5 * (a + b) for a, b in zip(slopes, slopes[1:])]
            if math.isfinite(f.slope0()):
                vs.append(f.slope0() + 1.0)
            for v in vs:
                # the designer's scalar fast path for deriv_inv_lo
                slope = f.conj1_slope(v)
                assert type(slope) is float and slope == float(f.deriv_inv_lo(v)), (f, v, slope)
            for inv, deriv, keeps in (
                    (f.deriv_inv_hi, f.deriv_right, lambda g, v: g >= v),
                    (f.deriv_inv_lo, f.deriv_left, lambda g, v: g > v)):
                for v in vs:
                    u = float(inv(v))
                    if u == math.inf:
                        assert keeps(float(deriv(1e6)), v), (f, inv.__name__, v)
                        continue
                    if u > 0:
                        assert keeps(float(deriv(u * (1 - eps))), v), (f, inv.__name__, v, u)
                    assert not keeps(float(deriv(u * (1 + eps) + eps)), v), (f, inv.__name__, v, u)


class TestAlpha:
    def test_linear_is_zero(self):
        for u in (0.1, 1.0, 7.0):
            assert alpha_at(Linear(1.0), u) == 0.0

    def test_cap_at_kink(self):
        assert alpha_at(Cap(1.0), 1.0) == -1.0

    def test_power_exponent_shift(self):
        for p in (0.3, 0.5, 0.7):
            for u in (0.2, 1.0, 4.0):
                assert alpha_at(Power(p), u) == pytest.approx(p - 1.0, abs=1e-12)

    def test_range_for_monotone_catalog(self):
        for f in CATALOG:
            if not f.monotone:
                continue
            for u in (0.2, 1.0, 3.0):
                a = alpha_at(f, u)
                assert -1.0 - 1e-12 <= a <= 1e-12

    def test_undefined_on_nonpositive_values(self):
        with pytest.raises(ValueError):
            alpha_at(NegPlusPenalty(1.0, 1.0), 2.0)

    def test_alpha_bar_overrides(self):
        assert alpha_bar(Cap(1.0), 10.0) == -1.0
        assert alpha_bar(Power(0.5), 10.0) == -0.5
        assert alpha_bar(Sqrt(), 10.0) == -0.5
        assert alpha_bar(Linear(2.0), 10.0) == 0.0
        assert alpha_bar(FIG_PL, 10.0) == -1.0

    def test_alpha_bar_log1p_grid(self):
        # dense-grid infimum on (0, 100]; the closed form
        # (u/(1+u) - log(1+u)) / log(1+u) is decreasing, so the infimum
        # sits at the horizon
        got = alpha_bar(Log1p(), 100.0)
        closed = (100 / 101 - math.log(101)) / math.log(101)
        assert got == pytest.approx(closed, abs=1e-9)
        assert got == pytest.approx(-0.7854662719450182, abs=1e-12)


class TestDescriptors:
    def test_round_trip(self):
        for f in CATALOG:
            g = from_descriptor(f.to_descriptor())
            us = np.linspace(0.0, 3.0, 50)
            np.testing.assert_allclose(g.value(us), f.value(us), atol=0)

    def test_sqrt_is_power_half(self):
        # the parameterization keeps its own kind and empty parameters, and
        # the Power calculus matches sqrt's closed forms to rounding
        f = Sqrt()
        assert isinstance(f, Power) and f.p == 0.5
        assert f.to_descriptor() == {"kind": "sqrt", "params": {}}
        assert type(from_descriptor(f.to_descriptor())) is Sqrt
        us = np.linspace(0.01, 50.0, 400)
        np.testing.assert_allclose(f.value(us), np.sqrt(us), rtol=5e-16)
        np.testing.assert_allclose(f.deriv_right(us), 0.5 / np.sqrt(us), rtol=5e-16)
        np.testing.assert_allclose(f.conjugate(us), -0.25 / us, rtol=5e-16)
        np.testing.assert_allclose(f.deriv_inv_lo(us), 0.25 / us ** 2, rtol=5e-16)
        assert f.alpha_exact() == -0.5 and f.slope0() == math.inf

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_descriptor({"kind": "mystery"})

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0.5], [0.5, 1.0])  # increasing slopes
        with pytest.raises(ValueError):
            Power(1.5)
        with pytest.raises(ValueError):
            Cap(-1.0)

    def test_booleans_are_not_positive_numbers(self):
        # a JSON true would otherwise pass as 1
        check_positive("owner", b=1, l=np.float64(2.0))
        for v in (True, np.True_):
            with pytest.raises(ValueError, match="owner: b must be finite and positive"):
                check_positive("owner", b=v)
