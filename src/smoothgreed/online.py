"""The two online engines and their per-run dual certificates.

Both engines consume a stream of (map, feasible set) steps and an objective
whose ``engine`` may be a smoothed surrogate: decisions are made through
``obj.engine``, while primal values and certificates are reported through
``obj`` itself.  The sequential engine assigns against the dual at the
previous point; the simultaneous engine solves each step's coordinate
maximization exactly and extracts the consistent saddle dual, so that the
support value equals the realized inner product to floating precision.
That exactness is what lets the duality-gap identities be asserted at 1e-9.
Every simultaneous step solver is exact: water-filling over sorted breaks
for separable allocation, an LP for unsmoothed packing, safeguarded scalar
Newton for smoothed packing with one column and projected Newton with more,
and on the PSD cone a closed-form root for the piecewise-linear budget
penalty and safeguarded scalar Newton for a smoothed one.
Each cone has one loop serving both engines (the orthant loop covers
allocation and packing); the engines differ only in how a step's point is
chosen and whether the loop tracks the saddle residual or the correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from smoothgreed.objectives import (
    DiagMap,
    LogDetObjective,
    LogDetState,
    PenaltyLPObjective,
    RankOneMap,
    SeparableObjective,
    StackedMap,
    Step,
    logdet_step_gain,
)
from smoothgreed.scalar import PiecewiseLinear

INTERIOR_SHIFT = 1e-8


@dataclass
class StepRecord:
    t: int
    x: np.ndarray
    sigma: float
    inner: float
    gain: float

    def to_jsonable(self):
        return {"t": self.t, "x": np.atleast_1d(self.x).tolist(),
                "sigma": self.sigma, "inner": self.inner, "gain": self.gain}


@dataclass
class RunTrace:
    algo: str
    m: int
    u_final: object
    y_final: object
    P_orig: float
    P_engine: float
    D_alg: float
    D_engine: float
    sigma_sum: float
    corr: float
    sq_norm_sum: float
    records: list = field(default_factory=list)
    interior_shift: bool = False
    saddle_residual: float = 0.0

    @property
    def ratio_lb(self) -> float:
        return self.P_orig / self.D_alg if self.D_alg > 0 else math.inf

    def gains(self):
        return np.array([r.gain for r in self.records])

    def summary(self) -> dict:
        return {
            "version": "v1",
            "algo": self.algo, "m": self.m, "P": self.P_orig,
            "P_engine": self.P_engine, "D": self.D_alg,
            "D_engine": self.D_engine, "ratio_lb": self.ratio_lb,
            "corr": self.corr, "interior_shift": self.interior_shift,
        }


# ----------------------------------------------------------------------
# Exact step solvers
# ----------------------------------------------------------------------


def _coord_vec(coords, uniform, method, u):
    """Apply one scalar method coordinatewise; a single call when shared."""
    if uniform:
        return np.asarray(getattr(coords[0], method)(u), dtype=float)
    return np.array([float(getattr(f, method)(ui)) for f, ui in zip(coords, u)])


# Bracket width at which _newton_root stops (one ulp at 1: its roots lie in
# [0, 1]), and the Newton step length below which it accepts a point.
_ROOT_TOL = 2.0 ** -52
_NEWTON_STEP_TOL = 1e-12


def _newton_root(g, dg, lo, g_lo, hi):
    """Root of a nonincreasing g on [lo, hi], with g(lo) = g_lo > 0 >= g(hi).

    Safeguarded Newton with the derivative dg (rtsafe in Numerical
    Recipes): each step starts at the last iterate and is kept half a
    tolerance inside the bracket.  The midpoint replaces a step that leaves
    the bracket, whose slope is not finite and negative, or that is longer
    than both _NEWTON_STEP_TOL and half the previous step, so that Newton
    cannot stall where g is flat or crawl at a multiple root.  Returns the
    first point with g <= 0 reached by a step of at most _NEWTON_STEP_TOL
    (on a simple root its error is of the order of the step's square, at
    the resolution of g), or hi once hi - lo <= _ROOT_TOL.
    """
    x, gx = lo, g_lo
    last = math.inf     # length of the previous step
    while hi - lo > _ROOT_TOL:
        y = math.nan
        d = dg(x)
        if -math.inf < d < 0.0:
            y = x - gx / d
        if lo <= y <= hi:
            y = min(max(y, lo + 0.5 * _ROOT_TOL), hi - 0.5 * _ROOT_TOL)
        if not (lo < y < hi and abs(y - x) <= max(0.5 * last, _NEWTON_STEP_TOL)):
            y = 0.5 * (lo + hi)
        last = abs(y - x)
        x, gx = y, g(y)
        if gx > 0.0:
            lo = x
        elif last <= _NEWTON_STEP_TOL:
            return x
        else:
            hi = x
    return hi


# Relative offset that puts a level strictly on one side of a jump of the
# fill: a jump of a piecewise-linear coordinate sits at a_j * s_i only up to
# the rounding of v / a_j, so the strict fill is taken a little above it
# and the full fill a little below.  Continuous levels are solved to it.
_LEVEL_WIN = 2e-15


def _breaks(f, a, w):
    """Levels at which the fill of coordinates sharing f changes regime.

    A piecewise-linear fill is a step function that jumps at a * slope; any
    other fill is continuous and strictly between 0 and 1 only for levels
    between a * f'(w + a) and a * f'(w).
    """
    if isinstance(f, PiecewiseLinear):
        return np.outer(a, f.s[f.s > 0]).ravel()
    ends = np.concatenate((w, w + a))
    return np.concatenate((a, a)) * np.asarray(f.deriv_right(ends), dtype=float)


def _solve_level(total, lo, f_lo, hi, f_hi, v):
    """Root of the continuous, nonincreasing total(v) - 1 on (lo, hi].

    f_lo = total(lo+) - 1 > 0 >= f_hi = total(hi) - 1.  Safeguarded secant
    (Illinois) from the first iterate v, when it is inside the bracket;
    returns the upper end, so that total <= 1 at the returned level.
    """
    w_lo, w_hi, side = f_lo, f_hi, 0
    for _ in range(200):
        tol = _LEVEL_WIN * hi
        if hi - lo <= tol or f_hi >= -1e-15:
            break
        if not lo < v < hi:
            v = lo + w_lo * (hi - lo) / (w_lo - w_hi)
        v = min(max(v, lo + 0.5 * tol), hi - 0.5 * tol)
        f = total(v) - 1.0
        if f > 0.0:
            lo, f_lo, w_lo = v, f, f
            w_hi *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            hi, f_hi, w_hi = v, f, f
            w_lo *= 0.5 if side > 0 else 1.0
            side = 1
        v = math.nan
    return hi


def _shared_level(f, br, a, w, lo, hi):
    """Closed-form level on the bracket (lo, hi] for a shared smooth f, or nan.

    When the coordinates partially filled on the bracket share their bid a0,
    they all end at one point u, where sum(u - w_j) = a0 * (1 - full count),
    and the level is a0 * f'(u).
    """
    top, bottom = br[:len(a)], br[len(a):]       # a * f'(w) and a * f'(w + a)
    part = (bottom < hi) & (top > lo)
    if not part.any() or np.any(a[part] != a[part][0]):
        return math.nan
    a0 = a[part][0]
    u = (a0 * (1.0 - np.sum(bottom >= hi)) + float(w[part].sum())) / int(part.sum())
    return a0 * float(f.deriv_right(u))


def _level(coords, uniform, a, w, total, s0, jumps):
    """Smallest level v whose strict fill total(v) is at most 1; total(0) = s0 > 1.

    A binary search over the sorted regime breaks of all coordinates
    (_breaks) brackets the level.  When some fill jumps (``jumps``: a
    piecewise-linear coordinate) and the full fill just below the bracket's
    upper end is still above 1, that end is the level.  Otherwise the fill
    is continuous on the bracket and the level solves total = 1
    (_solve_level), started in closed form when the coordinates share a
    smooth f (_shared_level).
    """
    if uniform:
        br = _breaks(coords[0], a, w)
    else:
        br = np.concatenate([_breaks(f, a[j:j + 1], w[j:j + 1]) for j, f in enumerate(coords)])
    g0 = np.minimum(_coord_vec(coords, uniform, "deriv_left", w), 1e12)
    vhi = float(np.max(a * np.maximum(g0, 0.0))) * (1.0 + 1e-9) + 1e-30
    cand = np.append(np.unique(br[(br > 0.0) & (br < vhi)]) * (1.0 + _LEVEL_WIN), vhi)
    i, j = 0, len(cand) - 1
    lo, s_lo, s_hi = 0.0, s0, None
    while i < j:
        mid = (i + j) // 2
        s = total(cand[mid])
        if s <= 1.0:
            j, s_hi = mid, s
        else:
            i, lo, s_lo = mid + 1, cand[mid], s
    if jumps:
        hi = cand[j] * (1.0 - 2.0 * _LEVEL_WIN)
        s_hi = total(hi, "deriv_inv_hi")
        if s_hi > 1.0:
            return cand[j]
    else:
        hi = cand[j]
        s_hi = total(hi) if s_hi is None else s_hi
    guess = _shared_level(coords[0], br, a, w, lo, hi) if uniform and not jumps else math.nan
    return _solve_level(total, lo, s_lo - 1.0, hi, s_hi - 1.0, guess)


def _fill_deficit(x, idx, x_min, x_max):
    """Assign 1 - sum(x) within the rooms x_max - x_min, in index order.

    ``x`` is the full vector, holding x_min at the positions ``idx``.  The
    running deficit rounds differently from the sum of x, so what the sum
    still exceeds 1 by is taken back from the filled coordinates, last
    first; any point of a room keeps the level's marginal.
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


def _waterfill(coords, uniform, a, w):
    """Exact coordinate maximization of sum_j f_j(w_j + a_j x_j) over the simplex.

    Equalizes marginals a_j * f_j'(.) at a shared level (_level); remaining
    mass at the level is assigned in index order.  Returns (x, y) with y a
    supergradient selection making x an exact support-function argmax for
    a * y.
    """
    k = len(a)
    x = np.zeros(k)
    act = a > 0
    if not act.any():
        return x, _coord_vec(coords, uniform, "deriv_right", w)
    aa = a[act]
    ww = w[act]
    if uniform:
        sub = coords
        pl = np.full(len(aa), isinstance(coords[0], PiecewiseLinear))
    else:
        sub = [coords[j] for j in range(k) if act[j]]
        pl = np.array([isinstance(f, PiecewiseLinear) for f in sub])
    snap = bool(pl.any())

    def fill(v, inv):
        t = _coord_vec(sub, uniform, inv, v / aa)
        x = np.clip((t - ww) / aa, 0.0, 1.0)
        # a fill that ends at a breakpoint t must reach it in the engine's
        # w + a*x, or the supergradient there misses the level
        short = pl & (ww + aa * x < t) & (x < 1.0) if snap else pl
        while short.any():
            step = np.maximum((t - (ww + aa * x)) / aa, 0.0)
            x[short] = np.minimum(np.maximum(x + step, np.nextafter(x, 2.0)), 1.0)[short]
            short &= (ww + aa * x < t) & (x < 1.0)
        return x

    # Sums are taken over the full x, as callers take them: with inactive
    # zeros in between, pairwise summation can round differently.
    def total(v, inv="deriv_inv_lo"):
        x[act] = fill(v, inv)
        return float(x.sum())

    # Strict-gain capacity at level zero decides whether the simplex binds.
    s0 = total(0.0)
    if s0 <= 1.0:
        v_star = 0.0
    else:
        v_star = _level(sub, uniform, aa, ww, total, s0, snap)
        x_min = fill(v_star, "deriv_inv_lo")
        x_max = fill(v_star * (1.0 - 2.0 * _LEVEL_WIN), "deriv_inv_hi")
        x[act] = x_min
        _fill_deficit(x, np.flatnonzero(act), x_min, x_max)
    u = w + a * x
    y = _coord_vec(coords, uniform, "deriv_right", u)
    if v_star > 0.0:
        # left of u by the rounding of w + a*x, which can pass a breakpoint
        upper = _coord_vec(sub, uniform, "deriv_left", u[act] * (1.0 - _LEVEL_WIN))
        y[act] = np.clip(v_star / aa, y[act], upper)
    return x, y


def _lp_step_exact(obj: PenaltyLPObjective, st: Step, state):
    """Exact saddle for the unsmoothed packing step via an epigraph LP."""
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


def _lp_step_scalar(obj: PenaltyLPObjective, st: Step, state):
    """Exact step for k == 1 with a smoothed penalty: the root of the slope.

    The slope c0 + B^T G'(w + B x) of the step objective is nonincreasing
    in x; its root on [0, 1] is found by _newton_root with the derivative
    B^T diag(G'') B.  Returns (x, G'(w + Bx)).
    """
    pen = obj.pen
    c0 = float(st.A.c[0])
    Bcol = st.A.B[:, 0]
    w = state[1:]

    def slope(x):
        return c0 + float(Bcol @ np.asarray(pen.deriv_right(w + Bcol * x), dtype=float))

    def curvature(x):
        return float((Bcol * Bcol) @ np.asarray(pen.deriv2(w + Bcol * x), dtype=float))

    s0 = slope(0.0)
    if s0 <= 0.0:
        x = 0.0
    elif slope(1.0) >= 0.0:
        x = 1.0
    else:
        x = _newton_root(slope, curvature, 0.0, s0, 1.0)
    return np.array([x]), np.asarray(pen.deriv_right(w + Bcol * x), dtype=float)


def _lp_step_newton(obj: PenaltyLPObjective, st: Step, state):
    """Exact step for a smoothed penalty and k > 1: projected Newton.

    Maximizes c.x + sum_i G(w_i + (Bx)_i) over {x >= 0, sum(x) <= 1}, where
    G is the smoothed penalty (concave, C^1, piecewise C^2).  An active set
    holds the coordinates fixed at 0 and whether sum(x) = 1 binds; on its
    face, Newton steps with the k x k Hessian B^T diag(G'') B, slightly
    regularized where G is linear, run to the boundary or to an Armijo
    step.  At the face's optimum the most violated constraint is released,
    until the multipliers certify the optimum (Bertsekas 1982).  Returns
    (x, G'(w + Bx)).
    """
    pen = obj.pen
    c, B = st.A.c, st.A.B
    k = len(c)
    w = state[1:]

    def value(x):
        return float(c @ x) + float(np.sum(pen.value(w + B @ x)))

    x = np.zeros(k)
    free = np.zeros(k, dtype=bool)     # coordinates not fixed at 0
    tight = False                      # sum(x) = 1 binds
    for _ in range(100):
        u = w + B @ x
        g = c + B.T @ np.asarray(pen.deriv_right(u), dtype=float)
        tol = 1e-14 * (1.0 + float(np.max(np.abs(g))))
        F = np.flatnonzero(free)
        lam = float(np.mean(g[F])) if tight else 0.0
        r = g[F] - lam
        d = np.zeros(len(F))
        if len(F) > tight:          # else the face is a point
            BF = B[:, F]
            M = -BF.T @ (np.asarray(pen.deriv2(u), dtype=float)[:, None] * BF)
            M[np.diag_indices_from(M)] += 1e-10 * (1.0 + float(np.max(np.diag(M))))
            if tight:   # d = M^-1 (r - nu 1) with sum(d) = 0
                p, q = np.linalg.solve(M, np.column_stack((r, np.ones(len(F))))).T
                d = p - (p.sum() / q.sum()) * q
            else:
                d = np.linalg.solve(M, r)
        if np.max(np.abs(r), initial=0.0) > tol and np.max(np.abs(d), initial=0.0) > 1e-16:
            # longest step keeping x >= 0 and sum(x) <= 1, then Armijo; below
            # the resolution of the value the Newton step is taken whole
            neg = d < 0
            ends = -x[F][neg] / d[neg]
            amax = min(ends, default=math.inf)
            if not tight and d.sum() > 0:
                amax = min(amax, max(1.0 - x.sum(), 0.0) / d.sum())
            alpha, v0, slope = min(1.0, amax), value(x), float(r @ d)
            xn = x.copy()
            while alpha * float(np.max(np.abs(d))) > 1e-16:
                xn[F] = np.maximum(x[F] + alpha * d, 0.0)
                if slope <= 1e-13 * (1.0 + abs(v0)) or value(xn) >= v0 + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                alpha, xn = 0.0, x.copy()
            blocked = F[neg][ends <= amax] if alpha == amax else F[:0]
            xn[blocked] = 0.0
            while xn.sum() > 1.0:
                xn /= np.nextafter(xn.sum(), 2.0)
            if len(blocked) or not np.array_equal(xn, x):
                free[blocked] = False
                tight = tight or (alpha == amax and len(blocked) == 0) or xn.sum() >= 1.0
                x = xn
                continue
        # optimum on the face: release the most violated constraint, if any
        viol = np.where(free, -math.inf, g - lam)
        j = int(np.argmax(viol))
        if tight and -lam > max(viol[j], tol):
            tight = False
        elif viol[j] > tol:
            free[j] = True
        else:
            break
    u = w + B @ x
    return x, np.asarray(pen.deriv_right(u), dtype=float)


def _sim_step(obj, st: Step, u):
    """Exact coordinate maximization of one orthant step at the state u.

    ``obj`` is the engine objective (``engine`` of the caller's objective).

    Separable allocation steps are water-filled (_waterfill); packing steps
    solve the epigraph LP when unsmoothed (_lp_step_exact), and otherwise
    find the root of the scalar slope by safeguarded Newton at k == 1
    (_lp_step_scalar) or run projected Newton on the simplex
    (_lp_step_newton).  Returns (x, z) with z = A^T y for the step's saddle
    dual y, so that x attains the support value of z up to floating-point
    rounding.
    """
    if isinstance(obj, SeparableObjective):
        x, y = _waterfill(obj.coords, obj._uniform, st.A.a, u)
        return x, st.A.a * y
    if obj.smoothed_penalty is None:
        x, y_pen = _lp_step_exact(obj, st, u)
    elif st.A.B.shape[1] == 1:
        x, y_pen = _lp_step_scalar(obj, st, u)
    else:
        x, y_pen = _lp_step_newton(obj, st, u)
    return x, st.A.c + st.A.B.T @ y_pen


def _logdet_step(pen, q0, used):
    """Exact coordinate maximization of a rank-one step, q0 = a^T Y a.

    Maximizes log(1 + q0 x) + pen(used + x) over [0, 1] at the root of the
    nonincreasing slope g(x) = q0/(1 + q0 x) + pen'(used + x).  For a
    piecewise-linear penalty the root is closed form: on a piece of slope
    s < 0, g vanishes at 1/(-s) - 1/q0 = (q0 + s)/(-s q0), and the first
    piece where that point falls before the piece's end holds the root,
    at that point or, when it falls before the piece's start, at the kink
    there.  A kink root is rounded up until used + x takes the post-kink
    slope, and yb is taken from the kink's interval, which used + x may
    pass by its rounding; with a spent budget the root is exactly 0.  A
    smoothed penalty is solved by safeguarded Newton on its second
    derivative (_newton_root).  Returns (x, q_post, yb): q_post =
    q0/(1 + q0 x) and yb the supergradient of the penalty closest to
    -q_post.
    """

    def post_quad(x):
        return q0 / (1.0 + q0 * x)

    def g_lo(x):
        return post_quad(x) + float(pen.deriv_right(used + x))

    if post_quad(0.0) + float(pen.deriv_left(used)) <= 0.0:
        x = 0.0
    elif g_lo(1.0) >= 0.0:
        x = 1.0
    elif isinstance(pen, PiecewiseLinear):
        s_before = math.inf
        for (s, knot, _), end in zip(pen._pieces, pen._ends[1:].tolist()):
            root = (q0 + s) / -s / q0 if s < 0.0 else math.inf
            if root < end - used:
                break
            s_before = s
        if root <= knot - used:
            x = max(knot - used, 0.0)
            while used + x < knot and x < 1.0:
                x = min(max(x + (knot - (used + x)), math.nextafter(x, 2.0)), 1.0)
            q_post = post_quad(x)
            return x, q_post, min(max(-q_post, s), s_before)
        x = min(max(root, 0.0), 1.0)
    else:
        def g_slope(x):
            return -post_quad(x) ** 2 + float(pen.deriv2(used + x))

        x = _newton_root(g_lo, g_slope, 0.0, g_lo(0.0), 1.0)
    q_post = post_quad(x)
    yb = min(max(-q_post, float(pen.deriv_right(used + x))), float(pen.deriv_left(used + x)))
    return x, q_post, yb


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


def _check_steps(obj, steps):
    """Reject steps the engines cannot run, before any computation starts.

    Errors name the offending step by its record index t (from 1).
    """
    if isinstance(obj, SeparableObjective):
        want, kind, what = DiagMap, "simplex", "separable objectives take diagonal simplex steps"
    elif isinstance(obj, PenaltyLPObjective):
        want, kind, what = StackedMap, "simplex", "packing objectives take stacked simplex steps"
    elif isinstance(obj, LogDetObjective):
        want, kind, what = (RankOneMap, "unit_interval",
                            "determinant objectives take rank-one interval steps")
    else:
        raise TypeError(f"unsupported objective {type(obj).__name__}")
    n = obj.n
    for t, st in enumerate(steps, 1):
        A = st.A
        if not isinstance(A, want) or st.F.kind != kind:
            raise ValueError(f"step {t}: {what}")
        if want is StackedMap:
            entries = (A.c, A.B)
            sized = (np.ndim(A.B) == 2 and np.shape(A.B)[0] == n
                     and np.shape(A.c) == (np.shape(A.B)[1],) == (st.F.k,))
        else:
            entries = (A.a,)
            sized = np.shape(A.a) == (n,) and (want is RankOneMap or st.F.k == n)
        if not sized:
            raise ValueError(f"step {t}: map size does not match the objective (n={n})")
        if not all(np.isfinite(v).all() for v in entries):
            raise ValueError(f"step {t}: non-finite map entries")
        if want is not RankOneMap and any((v < 0).any() for v in entries):
            raise ValueError(f"step {t}: step map must keep the orthant invariant")


def run_simultaneous(obj, steps, keep_records: bool = True) -> RunTrace:
    """Run the simultaneous-update engine; exact per-step saddles."""
    if isinstance(obj, PenaltyLPObjective):
        if obj.penalty_kind == "lp_ball":
            # the exact packing step solves the separable-hinge LP, not this penalty
            raise ValueError("run_simultaneous: no exact step solver for the lp_ball "
                             "penalty; use run_sequential")
        if obj.smoothed_penalty is not None and not hasattr(obj.smoothed_penalty, "deriv2"):
            # projected Newton needs the penalty's second derivative
            raise ValueError("run_simultaneous: a smoothed penalty must be a SmoothedScalar")
    if isinstance(obj, LogDetObjective):
        pen = obj.engine.pen
        if not (isinstance(pen, PiecewiseLinear) or hasattr(pen, "deriv2")):
            # the exact step is closed form or Newton on the second derivative
            raise ValueError("run_simultaneous: a smoothed budget must be a SmoothedScalar")
    _check_steps(obj, steps)
    return (_run_psd if obj.cone == "psd" else _run_orthant)(obj, steps, "sim", keep_records)


def run_sequential(obj, steps, keep_records: bool = True) -> RunTrace:
    """Run the sequential-update engine (assign, then refresh the dual)."""
    _check_steps(obj, steps)
    return (_run_psd if obj.cone == "psd" else _run_orthant)(obj, steps, "seq", keep_records)


def _run_orthant(obj, steps, algo, keep_records):
    """Allocation and packing: sim solves each step exactly, seq assigns
    against the previous dual and tracks the dual-movement correction."""
    eng = obj.engine
    u = np.zeros(obj.n + 1 if isinstance(obj, PenaltyLPObjective) else obj.n)
    shift = False
    if algo == "seq":
        y = eng.grad_lo(u)
        if np.any(y >= 1e11):   # unbounded slope at the origin: start inside
            u = np.full(len(u), INTERIOR_SHIFT)
            y = eng.grad_lo(u)
            shift = True
    sigma_sum = corr = sqsum = resid = 0.0
    prev_val = eng.value(u)
    records = []
    for t, st in enumerate(steps, 1):
        if algo == "sim":
            x, z = _sim_step(eng, st, u)
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
        gain = val - prev_val
        prev_val = val
        sigma_sum += sigma
        sqsum += float(np.sum(img ** 2))
        if keep_records:
            records.append(StepRecord(t, x, sigma, inner, gain))
    if algo == "sim":
        y = eng.grad_lo(u)
    return RunTrace(algo, len(steps), u, y, obj.value(u), eng.value(u),
                    sigma_sum - obj.conj(y), sigma_sum - eng.conj(y),
                    sigma_sum, corr, sqsum, records, shift, resid)


def _run_psd(obj, steps, algo, keep_records):
    """Log-det with a scalar budget over the product of the PSD cone and R+."""
    state = LogDetState(obj.A0)
    pen = obj.engine.pen
    used = reward = sigma_sum = corr = sqsum = resid = 0.0
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
        sigma = max(0.0, z)
        gain_logdet = logdet_step_gain(state, a, x, q)
        if x > 0.0:
            state.apply(a, x, q)
        used += x
        reward += gain_logdet
        pen_now = float(pen.value(used))
        gain = gain_logdet + pen_now - prev_pen
        prev_pen = pen_now
        if algo == "sim":
            resid = max(resid, abs(sigma * min(x, 1.0) - x * z))
        else:
            yb_next = float(pen.deriv_right(used))
            # <A_t x, y_next - y_t> over the product cone
            corr += x * (state.quad(a) - q) + x * (yb_next - yb)
            yb = yb_next
        sigma_sum += sigma
        sqsum += (float(a @ a) ** 2 + 1.0) * x * x
        if keep_records:
            records.append(StepRecord(t, np.array([x]), sigma, x * z, gain))
    y_final = (np.linalg.inv(state.Asum), float(pen.deriv_right(used)))
    return RunTrace(algo, len(steps), (state.U, used), y_final,
                    reward + float(obj.pen.value(used)), reward + float(pen.value(used)),
                    sigma_sum - obj.conj(y_final), sigma_sum - obj.engine.conj(y_final),
                    sigma_sum, corr, sqsum, records, False, resid)


# ----------------------------------------------------------------------
# Certificates and diagnostics
# ----------------------------------------------------------------------


@dataclass
class CertificateReport:
    ratio_lb: float
    structural_bound: float | None
    realized_bound: float | None
    identity_ok: bool
    structural_ok: bool
    structural_applicable: bool
    P: float
    D: float
    corr: float
    alpha_realized: float | None = None

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.structural_ok


def certify(trace: RunTrace, obj, steps, tol: float = 1e-9) -> CertificateReport:
    """Check the run's certified ratio against what the theory guarantees.

    ``ratio_lb = P / D`` is a sound per-run lower bound on the competitive
    ratio because D upper-bounds the offline optimum for any antitone dual
    stream.  Three checks:

    * identity: D never exceeds the surrogate value at the realized point
      minus the original conjugate (minus the dual-movement correction for
      sequential runs) — this holds for every exact-argmax run;
    * realized bound: the identity restated as a ratio floor, defined when
      the primal value is positive;
    * structural bound: the a-priori floor (1 over one-minus-alpha, or the
      certified 1/beta), applicable to simultaneous runs always, and to
      sequential runs on monotone objectives with the dual-lag rescaling.
      A sequential run on a non-monotone objective carries no ratio
      theorem, so only the identity is enforced there.
    """
    P, D, corr = trace.P_orig, trace.D_alg, trace.corr
    ratio_lb = trace.ratio_lb
    corr_term = corr if trace.algo == "seq" else 0.0
    conj_at_final = obj.conj(trace.y_final)
    denom = trace.P_engine - conj_at_final - corr_term
    identity_ok = D <= denom + tol * max(1.0, abs(denom))
    realized = P / denom if (P > 0 and denom > 0) else None
    alpha_real = None
    if P > 0 and obj.engine is obj:   # the classical realized parameter
        alpha_real = conj_at_final / P
    applicable = trace.algo == "sim" or isinstance(obj, SeparableObjective)
    structural = obj.ratio_bound() if applicable else None
    structural_ok = True
    if applicable:
        if trace.algo == "seq" and D > 0:
            structural = structural * max(0.0, 1.0 + corr / D)
        structural_ok = ratio_lb >= structural - tol
    return CertificateReport(ratio_lb, structural, realized, identity_ok,
                             structural_ok, applicable, P, D, corr, alpha_real)


@dataclass
class GapReport:
    gap: float
    bound: float
    regret_bound: float | None
    passed: bool
    passed_regret: bool | None


def duality_gap_diagnostics(trace: RunTrace, obj, mu: float | None = None,
                            tol: float = 1e-9) -> GapReport:
    """Assert the duality-gap identities on the engine objective.

    The simultaneous gap is at least conj(y_final); the sequential gap adds
    the dual-movement correction.  With a Lipschitz-gradient surrogate the
    correction is bounded by the squared step norms over 2*mu.
    """
    gap = trace.P_engine - trace.D_engine
    base = obj.engine.conj(trace.y_final)
    bound = base + (trace.corr if trace.algo == "seq" else 0.0)
    ok = gap >= bound - tol
    reg_bound = None
    reg_ok = None
    if mu is not None and trace.algo == "seq":
        reg_bound = base - trace.sq_norm_sum / (2.0 * mu)
        reg_ok = gap >= reg_bound - tol
    return GapReport(gap, bound, reg_bound, ok, reg_ok)
