"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force: dense grids, vertex
enumeration, and level-set dynamic programming.  None of it shares code
paths with the implementations under test.  The helpers at the end are not
oracles: they build test inputs and checks from the library's own types,
and only the tests use them.
"""

import math
from dataclasses import dataclass

import numpy as np

from smoothgreed.objectives import LogDetObjective, SeparableObjective
from smoothgreed.scalar import SLOPE_CAP, ScalarConcave
from smoothgreed.smoothing import SmoothedScalar, make_monotone


def conjugate_grid(value_fn, y, u_max=1e4, n=60_000):
    """inf_u y*u - value(u) by dense grid minimization."""
    us = np.concatenate((np.linspace(0.0, 10.0, n), np.geomspace(10.0, u_max, n // 2)))
    return float(np.min(y * us - value_fn(us)))


def biconjugate_grid(conj_fn, u, y_grid):
    """Concave biconjugation: inf_y y*u - conj(y) over a supplied dual grid."""
    vals = y_grid * u - conj_fn(y_grid)
    return float(np.min(vals[np.isfinite(vals)]))


def l1_projection_distance(u, p, restarts=6):
    """Direct l1 distance from the p-ball over the orthant.

    Multi-start constrained minimization of ||u - v||_1 over ||v||_p <= 1,
    v >= 0; for p = 1 the exact closed form is the witness.
    """
    from scipy.optimize import minimize

    u = np.asarray(u, dtype=float)
    if p == 1:
        return max(float(np.sum(u)) - 1.0, 0.0)
    if float(np.sum(u ** p)) ** (1.0 / p) <= 1.0:
        return 0.0
    k = len(u)
    rng = np.random.default_rng(12345)
    cons = [{"type": "ineq",
             "fun": lambda v: 1.0 - float(np.sum(np.abs(v) ** p)) ** (1.0 / p)}]
    best = np.inf
    starts = [u / float(np.sum(u ** p)) ** (1.0 / p)]
    for _ in range(restarts - 1):
        v0 = rng.uniform(0.0, 1.0, k)
        starts.append(v0 / max(1.0, float(np.sum(v0 ** p)) ** (1.0 / p)))
    for v0 in starts:
        res = minimize(lambda v: float(np.sum(np.abs(u - v))), v0,
                       constraints=cons, bounds=[(0.0, None)] * k,
                       method="SLSQP", options={"maxiter": 400, "ftol": 1e-12})
        if res.fun < best:
            best = float(res.fun)
    return best


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


# ----------------------------------------------------------------------
# Test helpers built on the library
# ----------------------------------------------------------------------


def from_base(base: ScalarConcave, u_end: float, d: int, tail_mode="hold_last"):
    """Sample a catalog function's own derivative; the trivial smoothing."""
    us = u_end / d * np.arange(d + 1)
    y = np.asarray(base.deriv_right(us), dtype=float)
    y = np.minimum(y, SLOPE_CAP)
    if tail_mode == "zero":
        y[-1] = 0.0
    return SmoothedScalar(u_end / d, make_monotone(y), tail_mode=tail_mode)


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
