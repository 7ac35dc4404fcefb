"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force: dense grids, vertex
enumeration, and level-set dynamic programming.  None of it shares code
paths with the implementations under test.  The helpers at the end are not
oracles: they build test inputs and checks from the library's own types,
and only the tests use them.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from smoothgreed.objectives import (LogDetObjective, LogDetState, PenaltyLPObjective, RankOneMap,
                                    SeparableObjective, Step, coordwise, logdet_step_gain)
from smoothgreed.online import CERT_TOL, INTERIOR_SHIFT, _logdet_step, _sim_step
from smoothgreed import smoothing
from smoothgreed.instances import gen_logdet_stream
from smoothgreed.scalar import SLOPE_CAP, ScalarConcave, alpha_bar
from smoothgreed.smoothing import FEAS_TOL, DesignResult, SmoothedScalar, make_monotone, verify_beta


def conjugate_grid(value_fn, y, u_max=1e4, n=60_000):
    """inf_u y*u - value(u) by dense grid minimization."""
    us = np.concatenate((np.linspace(0.0, 10.0, n), np.geomspace(10.0, u_max, n // 2)))
    return float(np.min(y * us - value_fn(us)))


def biconjugate_grid(conj_fn, u, y_grid):
    """Concave biconjugation: inf_y y*u - conj(y) over a supplied dual grid."""
    vals = y_grid * u - conj_fn(y_grid)
    return float(np.min(vals[np.isfinite(vals)]))


def dp_design_beta(base, u_end, d=200, n_levels=400, tol=1e-5):
    """Level-set dynamic program for the plateau smoothing design.

    Discretizes the derivative range into n_levels values, propagates the
    minimal accumulated integral per terminal level, and bisects the ratio
    parameter.  Independent of the library's forward construction.
    """
    h = u_end / d
    levels = np.linspace(0.0, base.slope0(), n_levels)
    conj = np.asarray(base.conjugate(levels), dtype=float)
    psis = np.asarray(base.value(h * np.arange(d + 1)), dtype=float)

    def feasible(beta):
        dp = np.zeros(n_levels)
        for t in range(1, d + 1):
            a = dp + 0.5 * h * levels
            best_from = np.minimum.accumulate(a[::-1])[::-1]
            nd = best_from + 0.5 * h * levels
            nd = np.where(nd - conj <= beta * psis[t] + 1e-12, nd, np.inf)
            if not np.isfinite(nd).any():
                return False
            dp = nd
        return np.isfinite(dp[0])

    lo, hi = 1.0, 4.0
    while not feasible(hi):
        hi *= 1.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def enumerate_offline_best(obj_value, steps, frac=2):
    """Brute-force offline optimum over per-step simplex choices.

    Choices are the vertices plus fractional blends (frac levels along each
    vertex), the accumulated image goes through obj_value.  Exponential;
    only for tiny orthant instances.
    """
    import itertools

    choice_sets = []
    for st in steps:
        k = st.F.k
        opts = [np.zeros(k)]
        for j in range(k):
            e = np.zeros(k)
            e[j] = 1.0
            for lv in range(1, frac + 1):
                opts.append(e * lv / frac)
        choice_sets.append(opts)
    best = -np.inf
    for combo in itertools.product(*choice_sets):
        img = sum(st.A.apply(x) for st, x in zip(steps, combo))
        best = max(best, obj_value(img))
    return best


def logdet_relaxation_grid(A0, vecs, budget, grid=20):
    """Exhaustive grid enumeration of the rank-one determinant relaxation."""
    import itertools

    levels = np.linspace(0.0, 1.0, grid + 1)
    best = -np.inf
    for combo in itertools.product(levels, repeat=len(vecs)):
        if sum(combo) > budget + 1e-12:
            continue
        M = A0.copy()
        for x, a in zip(combo, vecs):
            M = M + x * np.outer(a, a)
        val = np.linalg.slogdet(M)[1] - np.linalg.slogdet(A0)[1]
        best = max(best, val)
    return best


def sequential_fill_deficit(x, idx, x_min, x_max):
    """The room-by-room index-order fill of 1 - sum(x) that water-filling used.

    Kept as the reference for the vectorized prefix fill: each room of
    x_max - x_min takes min(room, running deficit) until the deficit is at
    most 1e-16, then what sum(x) exceeds 1 by is taken back, last first.
    """
    deficit = 1.0 - x.sum()
    filled = []
    if deficit > 0:
        room = np.maximum(x_max - x_min, 0.0)
        for j in np.flatnonzero(room > 0.0):
            take = min(room[j], deficit)
            x[idx[j]] = x_max[j] if take == room[j] else x[idx[j]] + take
            filled.append(j)
            deficit -= take
            if deficit <= 1e-16:
                break
    for j in reversed(filled):
        over = x.sum() - 1.0
        while over > 0.0 and x[idx[j]] > x_min[j]:
            x[idx[j]] = max(min(x[idx[j]] - over, np.nextafter(x[idx[j]], 0.0)), x_min[j])
            over = x.sum() - 1.0
        if over <= 0.0:
            break


def min_feasible_y_reference(base, lin_coeff, const, target, y_hi, y_argmin, tol=1e-12,
                             guess=None):
    """The designer's knot solve as it was before it took its bracket ends'
    conjugates from the caller; kept as the reference for bit identity.

    Smallest y in [0, y_hi] with g(y) = const + lin_coeff*y - conj(y) - target <= 0.

    g is convex in y and minimized at ``y_argmin`` (a supergradient of the
    base at u = lin_coeff, precomputed by the caller); its right derivative
    is lin_coeff - conj'(y+), with conj'(y+) the base's ``conj1_slope``.
    Safeguarded Newton on the bracket [lo, hi], g(lo) > 0 >= g(hi): on a
    convex g a Newton step from lo never passes the root, so steps are taken
    from lo (from hi while g(lo) is infinite), kept one tolerance inside the
    bracket, and replaced by the midpoint when they leave it or the slope
    is not finite and negative.  A midpoint is also taken whenever the last
    two steps did not halve the bracket: Newton stalls where g is flat at
    zero (from hi it then moves one tolerance per step) and crawls at
    multiple roots, and this bounds the solve at three steps per halving.
    Before those steps, g is read at ``guess`` while g(lo) is infinite, if
    lo + tol*max(1, lo) < guess < hi, and one Newton step is taken and
    followed by a probe one tolerance past its point, on the root's far
    side.
    Returns hi once hi - tol*max(1, hi) <= lo: feasible and within tol of
    the smallest feasible y.  Returns None when no feasible y exists in the
    range.
    """
    conj, slope = base.conj1, base.conj1_slope
    hi = min(y_argmin, y_hi)
    ghi = const + lin_coeff * hi - conj(hi) - target
    if not ghi <= 1e-11:
        return None
    # below the conjugate's domain g is +inf; start at its edge
    lo = max(0.0, base.conj_dom_lo())
    glo = const + lin_coeff * lo - conj(lo) - target
    if glo <= 0.0:
        return lo
    if ghi > 0.0:
        return hi      # the minimum misses by rounding only
    if glo == math.inf and guess is not None and lo + tol * max(1.0, lo) < guess < hi:
        gy = const + lin_coeff * guess - conj(guess) - target
        if gy <= 0.0:
            hi, ghi = guess, gy
        else:
            lo, glo = guess, gy
    y0, g0 = (lo, glo) if glo < math.inf else (hi, ghi)
    dg = lin_coeff - slope(y0)
    if -math.inf < dg < 0.0 and lo <= y0 - g0 / dg <= hi and hi - lo > tol * max(1.0, hi):
        y = min(max(y0 - g0 / dg, lo + tol * max(1.0, lo)), hi - tol * max(1.0, hi))
        for _ in range(2):      # the Newton point, then the probe
            gy = const + lin_coeff * y - conj(y) - target
            if gy <= 0.0:
                hi, ghi = y, gy
                y = hi - tol * max(1.0, hi)
            else:
                lo, glo = y, gy
                y = lo + tol * max(1.0, lo)
            if not lo < y < hi:
                break
    w1 = w2 = math.inf     # bracket widths before the last two steps
    while hi - lo > tol * max(1.0, hi):
        y = math.nan
        if hi - lo <= 0.5 * w2:
            y0, g0 = (lo, glo) if glo < math.inf else (hi, ghi)
            dg = lin_coeff - slope(y0)
            if -math.inf < dg < 0.0:
                y = y0 - g0 / dg
            if lo <= y <= hi:
                y = min(max(y, lo + tol * max(1.0, lo)), hi - tol * max(1.0, hi))
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
        w1, w2 = hi - lo, w1
        gy = const + lin_coeff * y - conj(y) - target
        if gy <= 0.0:
            hi, ghi = y, gy
        else:
            lo, glo = y, gy
    return hi


def greedy_construct_reference(spec, beta, psis):
    """The designer's greedy construction as it was before it carried each
    knot's conjugate forward; kept as the reference for bit identity.

    Forward minimal-derivative construction for a candidate beta.

    Chooses at each knot the smallest feasible derivative sample, which
    keeps the accumulated integral (the only coupling across knots) as
    small as possible.  ``psis`` lists the base at the knots.  Returns the
    grid, its last sample unclamped, or None when a knot has no feasible
    sample, and the last knot's margin, (const + lc*lo - conj(lo))/psi_d -
    beta, or None when the construction stops before the last knot.
    """
    base, d, c = spec.base, spec.d, spec.c
    h = spec.u_end / d
    s0 = base.slope0()
    inf_slope = not math.isfinite(s0)
    ycap = SLOPE_CAP if inf_slope else s0
    # Convexity in y makes g minimal at a supergradient of the base taken
    # at the linear coefficient; hoisted, since it is shared by all knots.
    lin = 0.5 * h - c
    y_argmin = float(base.supergrad(lin).hi) if lin > 0 else SLOPE_CAP
    lin1 = h - c
    y_argmin1 = float(base.supergrad(lin1).hi) if lin1 > 0 else SLOPE_CAP
    y = [ycap] * (d + 1)
    lo = max(0.0, base.conj_dom_lo())
    cum, margin = 0.0, None
    for t in range(1, d + 1):
        first_free = t == 1 and inf_slope
        if first_free:
            lc, am, const = lin1, y_argmin1, 0.0
        else:
            lc, am = lin, y_argmin
            const = cum + 0.5 * h * y[t - 1]
        if c:
            const += c * s0
        target = beta * psis[t]
        # the cubic through the last four knots (the line through two while
        # t <= 4); the solve reads it only while g is infinite at the
        # bracket's low end
        guess = None
        if t > 4:
            guess = 4.0 * (y[t - 1] + y[t - 3]) - 6.0 * y[t - 2] - y[t - 4]
        elif t > 2:
            guess = 2.0 * y[t - 1] - y[t - 2]
        if t == d:
            margin = (const + lc * lo - base.conj1(lo)) / psis[d] - beta
        yt = min_feasible_y_reference(base, lc, const, target, min(y[t - 1], ycap), am, guess=guess)
        if yt is None:
            return None, margin
        y[t] = yt
        if first_free:
            y[0] = yt
            cum = h * yt
        else:
            cum += 0.5 * h * (y[t - 1] + yt)
    return np.array(y), margin


def design_bisection_reference(spec):
    """The designer's beta search as it was before it decided midpoints from
    the plateau misses: a bisection that constructs every midpoint; kept as
    the reference for bit identity.

    The construction is the library's ``_greedy_construct``, looked up at
    call time, with the plateau check it once applied itself.  Returns the
    ``DesignResult``.
    """
    def construct(beta):
        y, _ = smoothing._greedy_construct(spec, beta, psis)
        if y is None or (spec.plateau and y[-1] > FEAS_TOL):
            return None
        if spec.plateau:
            y[-1] = 0.0
        return y

    if not spec.base.monotone or float(spec.base.value(spec.u_end)) <= 0:
        raise ValueError("design: base must be monotone with positive values on (0, u_end]")
    beta_hi = max(1.0, 1.0 - alpha_bar(spec.base, spec.u_end)) + 0.05
    if spec.c > 0:
        beta_hi += spec.c * spec.base.slope0() / max(spec.base.value(spec.u_end), 1e-12) + spec.c
    h = spec.u_end / spec.d
    psis = np.asarray(spec.base.value(h * np.arange(spec.d + 1)), dtype=float)
    if np.any(psis[1:] <= 0):
        raise ValueError("design: base must be positive on the grid interior")
    psis = psis.tolist()
    tries = 0
    while (y_best := construct(beta_hi)) is None:
        beta_hi *= 1.5
        tries += 1
        if tries > 60:
            raise RuntimeError("design: could not bracket a feasible beta")
    lo, hi = 1.0, beta_hi
    # past the float spacing near beta the midpoint is lo or hi: stop there
    while hi - lo > spec.beta_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        y_mid = construct(mid)
        if y_mid is None:
            lo = mid
        else:
            hi, y_best = mid, y_mid
    sm = SmoothedScalar(spec.u_end / spec.d, make_monotone(y_best))
    sup_beta, _, residuals = verify_beta(sm, spec.base, c=spec.c, refine=4)
    return DesignResult(smoothed=sm, beta=max(1.0, sup_beta),
                        max_residual=float(np.max(residuals)), certified=True, spec=spec)


def lp_step_highs(obj: PenaltyLPObjective, st: Step, state):
    """Exact saddle for the unsmoothed packing step via an epigraph LP (HiGHS).

    The reference for online._lp_step_exact; same arguments and returns.
    """
    from scipy.optimize import linprog

    c, B = st.A.c, st.A.B
    n, k = B.shape
    w = state[1:]
    # variables (x, s): maximize c@x - l * sum(s)
    cost = np.concatenate((-c, np.full(n, obj.l)))
    A_ub = np.zeros((n + 1, k + n))
    A_ub[:n, :k] = B
    A_ub[:n, k:] = -np.eye(n)
    A_ub[n, :k] = 1.0
    b_ub = np.concatenate((1.0 - w, [1.0]))
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * (k + n),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"packing step LP failed: {res.message}")
    x = np.maximum(res.x[:k], 0.0)
    y_pen = np.minimum(np.asarray(res.ineqlin.marginals[:n], dtype=float), 0.0)
    y_pen = np.maximum(y_pen, -obj.l)
    return x, y_pen


def records_jsonl(records):
    """Records JSONL as one strict json.dumps per record of its dict."""
    return "".join(json.dumps({"t": r.t, "x": np.atleast_1d(r.x).tolist(), "sigma": r.sigma,
                               "inner": r.inner, "gain": r.gain}, allow_nan=False) + "\n"
                   for r in records)


# ----------------------------------------------------------------------
# Test helpers built on the library
# ----------------------------------------------------------------------


def every_step_orthant(obj, steps, algo):
    """The orthant engine loop refreshing u, the seq dual and the engine value
    after every step, zero steps included.

    Returns the records as (t, x, sigma, inner, gain) tuples, P, D and corr.
    """
    return every_step_orthant_run(obj, steps, algo)[:4]


def every_step_orthant_run(obj, steps, algo):
    """every_step_orthant, also returning the final dual and the largest sim
    saddle residual: (records, P, D, corr, y_final, saddle_residual)."""
    eng = obj.engine
    u = np.zeros(obj.n + 1 if isinstance(obj, PenaltyLPObjective) else obj.n)
    if algo == "seq":
        y = eng.grad_lo(u)
        if np.any(y >= 1e11):
            u = np.full(len(u), INTERIOR_SHIFT)
            y = eng.grad_lo(u)
    plateau = None
    if algo == "sim" and isinstance(eng, SeparableObjective):
        plateau = coordwise(eng.coords, eng._uniform, "deriv_inv_lo", np.zeros(eng.n))
    sigma_sum = corr = resid = 0.0
    y_low = np.inf
    prev_val = eng.value(u)
    records = []
    for t, st in enumerate(steps, 1):
        if algo == "sim":
            x, y_step = _sim_step(eng, st, u, plateau)
            z, y_low = st.A.adjoint(y_step), np.minimum(y_low, y_step)
            sigma = max(0.0, float(np.max(z)))
            inner = float(x @ z)
            resid = max(resid, abs(sigma * min(float(x.sum()), 1.0) - inner))
        else:
            sigma, x = st.F.support(st.A.adjoint(y))
        img = st.A.apply(x)
        u = u + img
        if algo == "seq":
            y_next = eng.grad_lo(u)
            corr += float(img @ (y_next - y))
            inner = float(img @ y)
            y = y_next
        val = eng.value(u)
        records.append((t, x, sigma, inner, val - prev_val))
        prev_val = val
        sigma_sum += sigma
    if algo == "sim":
        y = np.minimum(eng.grad_lo(u), y_low)
    return records, obj.value(u), sigma_sum - obj.conj(y), corr, y, resid


def every_step_psd(obj, steps, algo):
    """The PSD engine loop evaluating the budget penalty after every step.

    Returns the records as (t, x, sigma, inner, gain) tuples.
    """
    state = LogDetState(obj.A0, obj.lam_min)
    pen = obj.engine.pen
    used = 0.0
    prev_pen = float(pen.value(0.0))
    yb = float(pen.deriv_right(0.0))
    records = []
    for t, st in enumerate(steps, 1):
        a = st.A.a
        q = state.quad(a)
        if algo == "sim":
            x, q_post, yb = _logdet_step(pen, q, used)
            z = q_post + yb
        else:
            z = q + yb
            x = 1.0 if z > 0.0 else 0.0
        gain_logdet = logdet_step_gain(state, a, x, q)
        if x > 0.0:
            state.apply(a, x, q)
        used += x
        pen_now = float(pen.value(used))
        records.append((t, x, max(0.0, z), x * z, gain_logdet + pen_now - prev_pen))
        prev_pen = pen_now
        if algo == "seq" and x > 0.0:
            yb = float(pen.deriv_right(used))
    return records


def per_arrival_psd(obj, steps, algo):
    """The PSD engine loop with one quad per arrival and each rank-one update
    applied as it is made (no block reads, no deferred updates).  The seq
    correction reads a^T Asum^{-1} a again after each update, and the final
    dual takes inv(Asum): the references for the engines' closed forms.

    Returns P, D and corr, the list of every arrival's x, and the number of
    refactorizations.
    """
    state = LogDetState(obj.A0, obj.lam_min)
    pen = obj.engine.pen
    used = reward = sigma_sum = corr = 0.0
    yb = float(pen.deriv_right(0.0))
    xs = []
    for st in steps:
        a = st.A.a
        q = state.quad(a)
        if algo == "sim":
            x, q_post, yb = _logdet_step(pen, q, used)
            z = q_post + yb
        else:
            z = q + yb
            x = 1.0 if z > 0.0 else 0.0
        reward += logdet_step_gain(state, a, x, q)
        if x > 0.0:
            state.apply(a, x, q)
            state.flush()
        used += x
        if algo == "seq" and x > 0.0:
            yb_next = float(pen.deriv_right(used))
            corr += x * (state.quad(a) - q) + x * (yb_next - yb)
            yb = yb_next
        sigma_sum += max(0.0, z)
        xs.append(x)
    y_final = (np.linalg.inv(state.Asum), float(pen.deriv_right(used)))
    return (reward + float(obj.pen.value(used)), sigma_sum - obj.conj(y_final), corr, xs,
            state.refactors)


def regret_form_ok(trace, steps, mu, sq_norm_sum=None):
    """The sequential regret form of weak duality for a surrogate whose
    gradient is 1/mu-Lipschitz: P_engine - sum_t sigma_t >= -S / (2 mu) - CERT_TOL.

    S = sum_t ||A_t x_t||^2 is recomputed from the run's records and steps
    unless given; on the PSD cone A_t x = (x a a^T, x), whose squared norm
    is (||a||^4 + 1) x^2.
    """
    if sq_norm_sum is None:
        assert len(trace.records) == len(steps), "the regret form needs every record"
        sq_norm_sum = 0.0
        for rec, st in zip(trace.records, steps):
            if isinstance(st.A, RankOneMap):
                sq_norm_sum += (float(st.A.a @ st.A.a) ** 2 + 1.0) * float(rec.x[0]) ** 2
            else:
                sq_norm_sum += float(np.sum(st.A.apply(rec.x) ** 2))
    return trace.P_engine - trace.sigma_sum >= -sq_norm_sum / (2.0 * mu) - CERT_TOL


def path_graph_stream(n, m, b, seed):
    """Path-graph base (cond ~ n^3 / pi^2) plus m seeded random edges."""
    rng = np.random.default_rng(seed)
    stream = []
    while len(stream) < m:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            stream.append((i, j))
    edges = {"base": [(i, i + 1) for i in range(n - 1)], "stream": stream}
    return gen_logdet_stream(n, m, b, source="graph_incidence", seed=seed, edges=edges)


def from_base(base: ScalarConcave, u_end: float, d: int, plateau: bool = False):
    """Sample a catalog function's own derivative; the trivial smoothing.

    ``plateau`` zeroes the last sample, so the smoothing is flat past u_end.
    """
    us = u_end / d * np.arange(d + 1)
    y = np.asarray(base.deriv_right(us), dtype=float)
    y = np.minimum(y, SLOPE_CAP)
    if plateau:
        y[-1] = 0.0
    return SmoothedScalar(u_end / d, make_monotone(y))


def kappa_of(smoothed: SmoothedScalar, base: ScalarConcave, c: float) -> float:
    """Worst-case dual-lag price: sup_u c*(y(0) - y(u)) / psi(u)."""
    if c == 0.0:
        return 0.0
    us = np.linspace(0.0, smoothed.u_end, 4 * smoothed.d + 1)[1:]
    psi = np.asarray(base.value(us), dtype=float)
    ys = np.asarray(smoothed.deriv(us), dtype=float)
    vals = c * (smoothed.slope0() - ys) / np.where(psi > 0, psi, np.inf)
    return float(max(np.max(vals), 0.0))


@dataclass
class AdwordsCheckReport:
    mass_residual: float
    stationarity_residual: float
    slackness_residual: float
    f_nonneg: bool
    passed: bool


def adwords_certificate_check(tol: float = 1e-6) -> AdwordsCheckReport:
    """Numerically verify the optimality system of the cap smoothing.

    The dual density f(u) = exp(1-u)/(e-1) must integrate the cap to one,
    reproduce its own tail integral through the conjugate slope, and make
    the ratio constraint tight wherever f is positive.
    """
    from scipy.integrate import quad

    c = math.e - 1.0
    f = lambda u: math.exp(1.0 - u) / c
    y = lambda u: max((math.e - math.exp(u)) / c, 0.0)
    cumint = lambda u: (math.e * min(u, 1.0) - math.exp(min(u, 1.0)) + 1.0) / c
    psi = lambda u: min(u, 1.0)
    conj = lambda z: min(z, 1.0) - 1.0
    beta = math.e / c

    mass, _ = quad(lambda u: f(u) * psi(u), 0.0, 1.0)
    tail, _ = quad(f, 1.0, 60.0)
    mass_res = abs(mass + tail - 1.0)

    # Tail integral of f must equal f(u) times the conjugate slope (== 1
    # on the active range), i.e. int_u^inf f = f(u).
    us = np.linspace(0.0, 3.0, 301)
    stat_res = max(abs(quad(f, float(u), 80.0)[0] - f(float(u))) for u in us[:: 10])

    slack = max(abs(cumint(float(u)) - conj(y(float(u))) - beta * psi(float(u)))
                for u in np.linspace(1e-9, 1.0, 201))

    ok = mass_res <= tol and stat_res <= 10 * tol and slack <= 10 * tol
    return AdwordsCheckReport(mass_res, stat_res, slack, True, ok)


@dataclass
class AntitoneReport:
    passed: bool
    max_violation: float
    trials: int
    detail: str = ""


def antitone_check(obj, trials: int = 50, seed: int = 0, tol: float = 1e-8) -> AntitoneReport:
    """Sample cone-ordered pairs and test the order-reversing gradient law.

    For orthant objectives compares supergradient intervals coordinatewise;
    for the PSD objective checks grad(V) - grad(U) against -tol * I in the
    eigenvalue order.  Anything with scalar deriv_left/deriv_right methods
    is accepted, so convex negative controls can be probed too.
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    worst = 0.0
    if isinstance(obj, LogDetObjective):
        n = obj.n
        for _ in range(trials):
            M1 = rng.normal(size=(n, n))
            M2 = rng.normal(size=(n, n))
            V = M1 @ M1.T * 0.5
            U = V + M2 @ M2.T * 0.5
            GV = np.linalg.inv(V + obj.A0)
            GU = np.linalg.inv(U + obj.A0)
            lam = float(np.linalg.eigvalsh(GV - GU)[0])
            worst = max(worst, -lam)
        return AntitoneReport(worst <= tol, worst, trials, "psd pairs")
    if isinstance(obj, SeparableObjective):
        coords = obj.coords
        for _ in range(trials):
            v = rng.uniform(0.0, 3.0, size=obj.n)
            u = v + rng.uniform(0.0, 3.0, size=obj.n)
            for f, ui, vi in zip(coords, u, v):
                hi_u = min(float(f.deriv_left(ui)), 1e15)
                lo_v = float(f.deriv_right(vi))
                worst = max(worst, hi_u - lo_v)
        return AntitoneReport(worst <= tol, worst, trials, "orthant pairs")
    # scalar path: any object exposing one-sided derivatives
    for _ in range(trials):
        v = float(rng.uniform(0.0, 3.0))
        u = v + float(rng.uniform(1e-6, 3.0))
        worst = max(worst, float(obj.deriv_left(u)) - float(obj.deriv_right(v)))
    return AntitoneReport(worst <= tol, worst, trials, "scalar pairs")

