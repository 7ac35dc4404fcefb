import math

import numpy as np
import pytest

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
    l_bound_lp,
    logdet_step_gain,
    lp_ball_distance,
    theta_of_instance,
)
from smoothgreed.instances import gen_adwords_triangular, gen_logdet_stream, gen_lp_random
from smoothgreed.online import certify, run_simultaneous
from smoothgreed.scalar import Cap, Linear
from smoothgreed.smoothing import (
    adwords_closed_form_smoothing,
    nesterov_logdet_smoothing,
    nesterov_penalty_smoothing,
)

from oracles import AntitoneReport, antitone_check, l1_projection_distance


class TestSupport:
    def test_simplex_best_vertex(self):
        val, x = FeasibleSet("simplex", 3).support([-1.0, 2.0, 0.0])
        assert val == 2.0
        np.testing.assert_array_equal(x, [0, 1, 0])

    def test_simplex_origin_dominates(self):
        val, x = FeasibleSet("simplex", 2).support([-1.0, -2.0])
        assert val == 0.0
        np.testing.assert_array_equal(x, [0, 0])

    def test_unit_interval(self):
        val, x = FeasibleSet("unit_interval").support([0.7])
        assert (val, x[0]) == (0.7, 1.0)
        val, x = FeasibleSet("unit_interval").support([-0.2])
        assert (val, x[0]) == (0.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FeasibleSet("simplex", 3).support([1.0, 2.0])

    def test_tie_breaks_to_lowest_index(self):
        _, x = FeasibleSet("simplex", 3).support([2.0, 2.0, 2.0])
        np.testing.assert_array_equal(x, [1, 0, 0])


class TestDualObjective:
    def test_linear_single_step(self):
        obj = SeparableObjective([Linear(1.0)])
        steps = [Step(DiagMap(np.array([1.0])), FeasibleSet("simplex", 1))]
        assert dual_objective(obj, steps, np.array([1.0])) == pytest.approx(1.0)

    def test_budgeted_no_steps(self):
        obj = SeparableObjective([Cap(1.0)])
        assert dual_objective(obj, [], np.array([1.0])) == pytest.approx(0.0)

    def test_outside_domain_is_plus_inf(self):
        obj = SeparableObjective([Cap(1.0)])
        assert dual_objective(obj, [], np.array([-0.5])) == math.inf

    def test_two_step_instance_against_enumeration(self):
        # independent recomputation: vertex enumeration for the supports
        # plus the hand-written conjugate of min(u, 1)
        obj = SeparableObjective([Cap(1.0)] * 2)
        steps = [Step(DiagMap(np.array([1.0, 0.4])), FeasibleSet("simplex", 2)),
                 Step(DiagMap(np.array([0.3, 0.8])), FeasibleSet("simplex", 2))]
        for y in (np.array([0.5, 0.5]), np.array([1.0, 0.2]), np.array([0.0, 1.0])):
            got = dual_objective(obj, steps, y)
            sup = sum(max(0.0, max(st.A.a * y)) for st in steps)
            conj = sum(min(v, 1.0) - 1.0 for v in y)
            assert got == pytest.approx(sup - conj, abs=1e-9)

    def test_weak_duality_against_enumeration(self):
        from oracles import enumerate_offline_best
        obj = SeparableObjective([Cap(1.0)] * 2)
        steps = [Step(DiagMap(np.array([0.9, 0.4])), FeasibleSet("simplex", 2)),
                 Step(DiagMap(np.array([0.3, 0.8])), FeasibleSet("simplex", 2)),
                 Step(DiagMap(np.array([0.5, 0.5])), FeasibleSet("simplex", 2))]
        best = enumerate_offline_best(obj.value, steps, frac=4)
        for y in (np.array([1.0, 1.0]), np.array([0.7, 0.9]), np.array([0.2, 0.4])):
            assert dual_objective(obj, steps, y) >= best - 1e-9


class TestLpBallDistance:
    def test_p1_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.uniform(0, 3, size=4)
            val, lo, hi = lp_ball_distance(u, 1.0)
            assert val == pytest.approx(max(u.sum() - 1.0, 0.0), abs=1e-10)

    def test_inside_ball(self):
        val, lo, hi = lp_ball_distance([0.3, 0.4], 2.0)
        assert val == 0.0
        np.testing.assert_array_equal(lo, 0.0)

    def test_flagged_example_reconciled(self):
        # the clip-level characterization and direct l1 projection agree:
        # at u = (2, 2) with p = 1 the level is 0.5 and the distance is 3
        val, lo, hi = lp_ball_distance([2.0, 2.0], 1.0)
        assert val == pytest.approx(3.0, abs=1e-10)
        assert val == pytest.approx(l1_projection_distance([2.0, 2.0], 1), abs=1e-9)
        np.testing.assert_allclose(lo, [1.0, 1.0])

    def test_p2_against_direct_projection(self):
        val, _, _ = lp_ball_distance([2.0, 2.0], 2.0)
        assert val == pytest.approx(4.0 - math.sqrt(2.0), abs=1e-10)
        rng = np.random.default_rng(11)
        for p in (1.5, 2.0, 3.0):
            u = rng.uniform(0.2, 2.5, size=3)
            got = lp_ball_distance(u, p)[0]
            ref = l1_projection_distance(u, p)
            assert got <= ref + 1e-7
            assert got == pytest.approx(ref, abs=5e-4)

    def test_linf_matches_hinge_sum(self):
        val, lo, hi = lp_ball_distance([2.0, 0.5], math.inf)
        assert val == 1.0
        np.testing.assert_array_equal(lo, [1.0, 0.0])

    def test_one_lipschitz_in_l1(self):
        rng = np.random.default_rng(3)
        for p in (1.0, 2.0, 4.0, math.inf):
            for _ in range(100):
                u = rng.uniform(0, 2.5, size=3)
                v = rng.uniform(0, 2.5, size=3)
                du = lp_ball_distance(u, p)[0] - lp_ball_distance(v, p)[0]
                assert abs(du) <= np.sum(np.abs(u - v)) + 1e-10

    def test_subgradient_interval_on_boundary(self):
        # unit p-norm with a flat maximum coordinate: interval from 0
        val, lo, hi = lp_ball_distance([1.0, 0.0], 2.0)
        assert val == 0.0
        np.testing.assert_array_equal(lo, 0.0)


class TestThetaAndL:
    def test_adwords_shape_is_one(self):
        steps = [Step(DiagMap(np.array([0.5, 0.2])), FeasibleSet("simplex", 2))]
        assert theta_of_instance(steps) == 1.0
        assert l_bound_lp(steps) == pytest.approx(1.0, rel=1e-5)

    def test_single_column(self):
        steps = [Step(StackedMap(np.array([2.0]), np.array([[1.0]])), FeasibleSet("simplex", 1))]
        assert theta_of_instance(steps) == 2.0

    def test_random_instance_vs_vertex_scan(self):
        rng = np.random.default_rng(5)
        steps = []
        for _ in range(6):
            c = rng.uniform(0.1, 1.0, size=3)
            B = rng.uniform(0.0, 1.0, size=(4, 3))
            B[rng.random(size=(4, 3)) < 0.3] = 0.0
            if not B.any(axis=0).all():
                B[0] += 0.5
            steps.append(Step(StackedMap(c, B), FeasibleSet("simplex", 3)))
        # brute scan over vertices, written independently
        best = math.inf
        worst = 0.0
        for st in steps:
            for j in range(3):
                den = float(np.sum(st.A.B[:, j]))
                if den > 0:
                    best = min(best, st.A.c[j] / den)
                for i in range(4):
                    if st.A.B[i, j] > 0:
                        worst = max(worst, st.A.c[j] / st.A.B[i, j])
        assert theta_of_instance(steps) == pytest.approx(best, rel=1e-12)
        assert l_bound_lp(steps) == pytest.approx(worst * (1 + 1e-6), rel=1e-12)


class TestLogDetMachinery:
    def test_identity_gain(self):
        st = LogDetState(np.eye(2))
        assert logdet_step_gain(st, np.array([1.0, 0.0]), 1.0) == pytest.approx(math.log(2))

    def test_zero_weight_gain(self):
        st = LogDetState(np.eye(2))
        assert logdet_step_gain(st, np.array([1.0, 1.0]), 0.0) == 0.0

    def test_stream_matches_dense_recomputation(self):
        rng = np.random.default_rng(9)
        st = LogDetState(np.eye(5))
        acc = 0.0
        for _ in range(500):
            a = rng.normal(size=5)
            x = float(rng.uniform(0, 1))
            acc += logdet_step_gain(st, a, x)
            st.apply(a, x)
        dense = np.linalg.slogdet(st.Asum)[1]
        assert acc == pytest.approx(dense, abs=1e-8)
        assert st.drift() <= 1e-6

    def test_invalid_weight(self):
        st = LogDetState(np.eye(2))
        with pytest.raises(ValueError):
            logdet_step_gain(st, np.array([1.0, 0.0]), 1.5)

    def test_objective_l_floor_enforced(self):
        with pytest.raises(ValueError):
            LogDetObjective(np.eye(2), b=1.0, l=1.0)  # needs > 2

    def test_nonfinite_parameters_rejected(self):
        for kwargs, field in ((dict(b=math.nan), "b"), (dict(b=math.inf), "b"),
                              (dict(b=0.0), "b"), (dict(b=2.0, l=math.nan), "l"),
                              (dict(b=2.0, l=math.inf), "l")):
            with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
                LogDetObjective(np.eye(2), **kwargs)
        with pytest.raises(ValueError, match="A0 entries must be finite"):
            LogDetObjective(np.array([[1.0, math.nan], [math.nan, 1.0]]), b=2.0)

    def test_hstar_fenchel_young(self):
        rng = np.random.default_rng(2)
        obj = LogDetObjective(np.eye(3), b=2.0)
        M = rng.normal(size=(3, 3))
        U = M @ M.T
        Y = np.linalg.inv(U + np.eye(3))
        lhs = obj.hstar(Y) + obj.reward(U)
        assert lhs == pytest.approx(float(np.sum(Y * U)), abs=1e-9)


class TestAntitone:
    def test_separable_passes(self):
        rep = antitone_check(SeparableObjective([Cap(1.0)] * 3), trials=40, seed=1)
        assert isinstance(rep, AntitoneReport) and rep.passed

    def test_logdet_passes(self):
        rep = antitone_check(LogDetObjective(np.eye(3), b=2.0), trials=25, seed=2)
        assert rep.passed and rep.max_violation <= 1e-8

    def test_convex_control_fails(self):
        class ConvexSquare:
            def deriv_left(self, u):
                return 2.0 * u

            deriv_right = deriv_left

        rep = antitone_check(ConvexSquare(), trials=25, seed=3)
        assert not rep.passed


class TestPenaltyLPObjective:
    def test_value_layout(self):
        obj = PenaltyLPObjective(2, l=2.0, theta=1.0)
        state = np.array([3.0, 1.5, 0.5])
        assert obj.value(state) == pytest.approx(3.0 - 2.0 * 0.5)

    def test_nonfinite_parameters_rejected(self):
        for l, theta, field in ((math.nan, 1.0, "l"), (math.inf, 1.0, "l"), (-1.0, 1.0, "l"),
                                (2.0, math.nan, "theta"), (2.0, math.inf, "theta"),
                                (2.0, 0.0, "theta")):
            with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
                PenaltyLPObjective(2, l=l, theta=theta)

    def test_conjugate_requires_unit_reward_dual(self):
        obj = PenaltyLPObjective(2, l=2.0, theta=1.0)
        assert obj.conj(np.array([0.5, 0.0, 0.0])) == -math.inf
        assert obj.conj(np.array([1.0, -1.0, 0.0])) == pytest.approx(-1.0)

    def test_lp_ball_conjugate_is_dual_norm(self):
        obj = PenaltyLPObjective(2, l=2.0, theta=1.0, penalty_kind="lp_ball", p=2.0)
        y = np.array([1.0, -1.0, -0.5])
        assert obj.conj(y) == pytest.approx(-math.hypot(1.0, 0.5))

    def test_alpha_realized_at_interior_point(self):
        obj = PenaltyLPObjective(2, l=2.0, theta=1.0)
        state = np.array([2.0, 0.5, 0.3])
        assert obj.alpha_at_realized(state) == 0.0


class TestEngineTwin:
    """``engine`` is ``self`` unless smoothed, else the same class over the surrogate."""

    @staticmethod
    def families():
        """(plain, smoothed, its smoothable part, the surrogate, steps, a state)."""
        cap = Cap(1.0)
        s = adwords_closed_form_smoothing()
        adv = gen_adwords_triangular(3, 2)
        yield (SeparableObjective([cap] * 3),
               SeparableObjective([cap] * 3, smoothed=s, certified_beta=s.beta_exact),
               lambda o: tuple(o.coords), (s,) * 3, adv.steps, (np.array([0.3, 1.2, 2.0]),))
        lp = gen_lp_random(3, 10, 2, 0.7, seed=1)
        l, theta = lp.extras["l"], lp.extras["theta"]
        pen = nesterov_penalty_smoothing(l, theta)
        yield (PenaltyLPObjective(3, l, theta), PenaltyLPObjective(3, l, theta, smoothed_penalty=pen),
               lambda o: (o.pen,), (pen,), lp.steps, (np.array([2.0, 0.4, 1.1, 1.7]),))
        det = gen_logdet_stream(3, 10, 2.0, seed=1)
        A0, l = np.asarray(det.extras["A0"]), det.extras["l"]
        pen = nesterov_logdet_smoothing(3, l, 2.0)
        M = np.random.default_rng(np.random.Philox(key=5)).normal(size=(3, 3))
        yield (LogDetObjective(A0, 2.0, l=l), LogDetObjective(A0, 2.0, l=l, smoothed_budget=pen),
               lambda o: (o.pen,), (pen,), det.steps, (M @ M.T, 2.7))

    def test_twin(self):
        for plain, smooth, part, surrogate, steps, state in self.families():
            assert plain.engine is plain
            eng = smooth.engine
            assert type(eng) is type(smooth) and eng is not smooth
            assert eng.engine is eng
            assert repr(part(smooth)) == repr(part(plain))    # still the exact part
            assert part(eng) == surrogate                     # by identity
            assert smooth.value(*state) == plain.value(*state)
            for obj in (plain, smooth):
                rep = certify(run_simultaneous(obj, steps), obj, steps)
                assert rep.P > 0
                assert (rep.alpha_realized is None) == (obj is smooth)
