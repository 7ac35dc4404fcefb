import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from smoothgreed import objectives
from smoothgreed.objectives import (
    DiagMap,
    FeasibleSet,
    LogDetObjective,
    PROBE_TOL,
    _PENDING,
    LogDetState,
    PenaltyLPObjective,
    RankOneMap,
    SeparableObjective,
    StackedMap,
    Step,
    dual_objective,
    l_bound_lp,
    logdet_step_gain,
    theta_of_instance,
)
from smoothgreed.instances import gen_adwords_triangular, gen_logdet_stream, gen_lp_random
from smoothgreed.online import certify, run_sequential, run_simultaneous
from smoothgreed.scalar import Cap, Linear, Log1p, Power, alpha_bar
from smoothgreed.smoothing import (
    adwords_closed_form_smoothing,
    nesterov_logdet_smoothing,
    nesterov_penalty_smoothing,
)

from oracles import AntitoneReport, antitone_check, path_graph_stream


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
        assert float(np.max(np.abs(st.Y @ st.Asum - np.eye(5)))) <= 1e-6

    @pytest.mark.parametrize("source", ["random_vectors", "graph_incidence"])
    def test_every_quad_is_certified(self, source, monkeypatch):
        # every a^T Y a, read by a raw stream of updates or by either engine,
        # one at a time or in a block, agrees with a dense solve to within
        # PROBE_TOL relative; Asum is summed here, as reading it would apply
        # the state's pending updates
        if source == "graph_incidence":
            inst = path_graph_stream(100, 300, 60.0, seed=4)
        else:
            inst = gen_logdet_stream(30, 300, 60.0, seed=4)
        A0 = np.asarray(inst.extras["A0"])
        if source == "graph_incidence":
            eigs = np.linalg.eigvalsh(A0)
            assert eigs[-1] / eigs[0] > 5e4
        errors = []
        quad, quads, apply = LogDetState.quad, LogDetState.quads, LogDetState.apply
        sums = weakref.WeakKeyDictionary()     # each state's A0 + sum x a a^T

        def check(self, a, q):
            exact = float(a @ np.linalg.solve(sums.get(self, self.A0), a))
            errors.append(abs(q - exact) / exact)

        def checked_quad(self, a):
            q = quad(self, a)
            check(self, a, q)
            return q

        def checked_quads(self, A):
            q, ok = quads(self, A)
            for a, qa in zip(A[ok], q[ok]):
                check(self, a, qa)
            return q, ok

        def summed_apply(self, a, x, q=None):
            apply(self, a, x, q)
            sums[self] = sums.get(self, self.A0) + x * np.outer(a, a)

        monkeypatch.setattr(LogDetState, "quad", checked_quad)
        monkeypatch.setattr(LogDetState, "quads", checked_quads)
        monkeypatch.setattr(LogDetState, "apply", summed_apply)
        rng = np.random.default_rng(6)
        st = LogDetState(A0)
        for step in inst.steps:
            a = step.A.a
            st.apply(a, float(rng.uniform()), st.quad(a))
        l = inst.extras["l"]
        for smoothed in (None, nesterov_logdet_smoothing(len(A0), l, 60.0)):
            obj = LogDetObjective(A0, 60.0, l=l, smoothed_budget=smoothed)
            for run in (run_simultaneous, run_sequential):
                run(obj, inst.steps)
        assert len(errors) > 1500
        assert max(errors) <= PROBE_TOL

    def test_apply_reuses_only_a_matching_quad(self):
        # apply may take Y a from the last quad only for the same a under the
        # same Y; each update must equal one made with a fresh Y a
        rng = np.random.default_rng(8)
        st = LogDetState(np.eye(5))
        a, b = rng.normal(size=5), rng.normal(size=5)

        def check_apply(x, q):
            Ya = st.Y @ a
            expected = st.Y - np.outer(Ya, Ya) * (x / (1.0 + x * q))
            st.apply(a, x, q)
            np.testing.assert_array_equal(st.Y, expected)

        check_apply(0.7, st.quad(a))                    # the read just made
        check_apply(0.4, float(a @ np.linalg.solve(st.Asum, a)))    # Y changed since
        q = st.quad(a)
        st.quad(b)
        check_apply(0.3, q)                             # another vector read since
        st.quad(a)
        a[0] += 1.0                                     # a changed in place since
        check_apply(0.5, float(a @ np.linalg.solve(st.Asum, a)))

    @settings(max_examples=200, deadline=None)
    @given(hs.integers(2, 8), hs.integers(0, 2 ** 32 - 1), hs.integers(0, _PENDING - 2),
           hs.sampled_from([1e-3, 1.0, 30.0]), hs.one_of(hs.just(1.0), hs.floats(1e-6, 1.0)))
    def test_post_update_read_is_closed_form(self, n, seed, prior, scale, x):
        # after apply(a, x, q), a fresh certified read of a is q/(1 + x q)
        # (Sherman-Morrison): both reads are within PROBE_TOL relative, and
        # q -> q/(1 + x q) does not amplify a relative error.  Read with the
        # prior updates and this one pending (fewer than _PENDING), then flushed
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, n))
        st = LogDetState(B @ B.T + np.eye(n))
        for _ in range(prior):
            st.apply(rng.normal(size=n), float(rng.uniform()))
        a = scale * rng.normal(size=n)
        q = st.quad(a)
        st.apply(a, x, q)
        want = q / (1.0 + x * q)
        for flushed in (False, True):
            if flushed:
                st.flush()
            post = st.quad(a)
            assert abs(post - want) <= 2 * PROBE_TOL * want, (flushed, post, want)

    def test_lam_min_is_a_lower_bound(self):
        n = 100
        A0 = np.asarray(path_graph_stream(n, 1, 1.0, seed=0).extras["A0"])
        exact = 4.0 * math.sin(math.pi / (2 * n)) ** 2   # path Laplacian's lambda_2
        lam = LogDetState(A0).lam_lo
        assert exact * (1.0 - 1e-7) <= lam < exact
        assert LogDetState(A0, LogDetObjective(A0, 1.0).lam_min).lam_lo == lam

    def test_corrupted_inverse_refactors_once(self):
        rng = np.random.default_rng(5)
        st = LogDetState(np.eye(6))
        for _ in range(20):
            st.apply(rng.normal(size=6), float(rng.uniform()))
        E = rng.normal(size=(6, 6))
        st.Y += 1e-6 * (E + E.T)
        a = rng.normal(size=6)
        before = st.refactors
        q = st.quad(a)
        assert st.refactors == before + 1
        assert abs(q - float(a @ np.linalg.solve(st.Asum, a))) <= PROBE_TOL * q
        assert st.quad(a) == q and st.refactors == before + 1   # the fresh inverse is kept

    def test_block_read_matches_quad(self):
        # quads reads rows as quad reads each, with updates pending or flushed
        rng = np.random.default_rng(7)
        st = LogDetState(np.eye(6) + 0.1)
        A = rng.normal(size=(9, 6))
        for pending in (3, 0):
            for _ in range(pending):
                st.apply(rng.normal(size=6), float(rng.uniform()))
            q, ok = st.quads(A)
            assert ok.all()
            for a, qa in zip(A, q):
                assert abs(qa - st.quad(a)) <= 1e-13 * qa
                assert abs(qa - float(a @ np.linalg.solve(st.Asum, a))) <= PROBE_TOL * qa
        assert st.refactors == 0

    def test_block_read_flags_a_corrupted_inverse(self):
        # a block read never refactorizes: rows failing the probe are flagged
        rng = np.random.default_rng(5)
        st = LogDetState(np.eye(6))
        for _ in range(20):
            st.apply(rng.normal(size=6), float(rng.uniform()))
        E = rng.normal(size=(6, 6))
        st.Y += 1e-6 * (E + E.T)
        for _ in range(3):      # pending, with q given so that no quad refactorizes
            a = rng.normal(size=6)
            st.apply(a, float(rng.uniform()), float(a @ np.linalg.solve(st.A0, a)))
        q, ok = st.quads(rng.normal(size=(5, 6)))
        assert not ok.any() and st.refactors == 0

    def test_probe_failing_on_fresh_inverse_raises(self):
        # 8x8 Hilbert matrix, cond ~ 1.5e10: even inv(A0) misses the probe
        H = 1.0 / (np.arange(8)[:, None] + np.arange(8) + 1.0)
        st = LogDetState(H)
        with pytest.raises(FloatingPointError, match="residual probe"):
            st.quad(np.ones(8))
        assert st.refactors == 1

    def test_invalid_weight(self):
        st = LogDetState(np.eye(2))
        with pytest.raises(ValueError):
            logdet_step_gain(st, np.array([1.0, 0.0]), 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            st.apply(np.array([1.0, 0.0]), -0.5)

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


class TestRatioBound:
    def test_alpha_bar_once_per_distinct_coordinate(self, monkeypatch):
        # the floor is 1/(1 - min alpha_bar) over the coordinates; a function
        # listed n times is one function, and its alpha_bar is taken once
        calls = []

        def counted(f, u_max):
            calls.append(f)
            return alpha_bar(f, u_max)

        monkeypatch.setattr(objectives, "alpha_bar", counted)
        log1p = Log1p()
        for coords, want in (([log1p] * 100, 1), ([Cap(1.0), Log1p(), Power(0.4)], 3)):
            calls.clear()
            floor = SeparableObjective(coords).ratio_bound()
            assert len(calls) == want
            assert floor == 1.0 / (1.0 - min(alpha_bar(c, 1e4) for c in coords))


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
                tr = run_simultaneous(obj, steps)
                rep = certify(tr, obj, steps)
                assert tr.P_orig > 0
                assert (rep.alpha_realized is None) == (obj is smooth)
