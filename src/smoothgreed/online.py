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
for separable allocation (when one coordinate function and one bid are
shared, the PL shared-bid fill for a piecewise-linear function, and the
uniform fill for a smooth one at equal states, skip the break search), a simplex
on the step LP's k-row dual for unsmoothed packing, safeguarded scalar
Newton for smoothed packing with one column and projected Newton with
more, and on the PSD cone a closed-form root for the piecewise-linear
budget penalty and safeguarded scalar Newton for a smoothed one.
Each cone has one loop serving both engines (the orthant loop covers
allocation and packing); the engines differ only in how a step's point is
chosen and whether the loop tracks the saddle residual or the correction.
A step's ``StepRecord`` holds x, sigma, the inner product and the gain in
the engine objective; an orthant step with A x = 0 moves neither the state
nor the dual, so it records a gain of exactly 0.0.  The orthant loop solves
an arrival of the Step object before it only where x may change, with
every output that of solving each arrival: after a zero image the run
repeats x, and on simultaneous allocation with one shared coordinate
function the uniform fill and the PL shared-bid fill repeat x while the
fills of the moving coordinates to the plateau and to each positive
piece's start equal the solved arrival's bit for bit (_block).  On
sequential allocation with one shared coordinate function the picks of a
run merge the coordinates' falling values (_seq_block).  Gains are
evaluated in bulk, to the bits of differencing the objective after every
step: the orthant loop evaluates the states of every _GAIN_CHUNK moving
steps in one ``row_values`` pass, and the PSD loop its budget penalty over
the run in one pass.  Runs with ``keep_records=False`` make neither pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from smoothgreed.objectives import (
    PROBE_TOL,
    DiagMap,
    LogDetObjective,
    LogDetState,
    PenaltyLPObjective,
    RankOneMap,
    SeparableObjective,
    StackedMap,
    Step,
    coordwise,
    logdet_step_gain,
)
from smoothgreed.scalar import PiecewiseLinear

INTERIOR_SHIFT = 1e-8
_GAIN_CHUNK = 128    # moving orthant steps whose record gains are evaluated in one pass
CERT_TOL = 1e-9     # absolute tolerance of every certificate inequality
_CLEAR = 4 * PROBE_TOL    # relative margin of a q that _run_psd's blocks take as x = 0


@dataclass
class StepRecord:
    t: int
    x: np.ndarray
    sigma: float
    inner: float
    gain: float


@dataclass
class RunTrace:
    algo: str
    m: int
    u_final: object
    y_final: object
    P_orig: float
    P_engine: float
    conj_final: float   # obj.conj(y_final), the one pricing of the final dual
    sigma_sum: float
    corr: float
    records: list = field(default_factory=list)
    interior_shift: bool = False
    saddle_residual: float = 0.0

    @property
    def D_alg(self) -> float:
        """The certificate D = sum_t sigma_t - conj(y_final) >= OPT."""
        return self.sigma_sum - self.conj_final

    @property
    def ratio_lb(self) -> float:
        return self.P_orig / self.D_alg if self.D_alg > 0 else math.inf

    @property
    def slack(self) -> float:
        """Margin of the weak-duality identity sum_t sigma_t + corr <= P_engine."""
        return self.P_engine - self.corr - self.sigma_sum

    def summary(self) -> dict:
        return {
            "version": "v1",
            "algo": self.algo, "m": self.m, "P": self.P_orig,
            "P_engine": self.P_engine, "D": self.D_alg, "ratio_lb": self.ratio_lb,
            "corr": self.corr, "interior_shift": self.interior_shift,
        }


# ----------------------------------------------------------------------
# Exact step solvers
# ----------------------------------------------------------------------


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
        tol = max(_LEVEL_WIN * hi, math.ulp(hi))     # the product underflows on a subnormal hi
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
    they all end at one state point u, where the full ones and the partial
    fills (u - w_j)/a0 total one, and the level is a0 * f'(u).
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
    g0 = np.minimum(coordwise(coords, uniform, "deriv_left", w), 1e12)
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
    rooms fill whole while the running deficit, reduced room by room in
    index order (np.subtract.accumulate), stays above 1e-16; the room where
    it stops takes what is left.  When the first room already stops it,
    that room alone is filled, with the same arithmetic.  The running
    deficit rounds differently from the sum of x, so what the sum still
    exceeds 1 by is taken back from the filled coordinates, last first; any
    point of a room keeps the level's marginal.
    """
    deficit = 1.0 - x.sum()
    if not deficit > 0.0:
        return
    room = np.maximum(x_max - x_min, 0.0)
    has = room > 0.0
    p = int(np.argmax(has))
    if not has[p]:
        return
    if deficit - room[p] <= 1e-16:
        filled = [p]
        x[idx[p]] = x_max[p] if room[p] <= deficit else x_min[p] + deficit
    else:
        pos = np.flatnonzero(has)
        left = np.subtract.accumulate(np.concatenate(([deficit], room[pos])))
        done = left[1:] <= 1e-16
        filled = pos[:int(np.argmax(done)) + 1] if done.any() else pos
        take = np.minimum(room[filled], left[:len(filled)])
        x[idx[filled]] = np.where(take == room[filled], x_max[filled], x_min[filled] + take)
        filled = filled.tolist()
    for j in reversed(filled):
        over = x.sum() - 1.0
        while over > 0.0 and x[idx[j]] > x_min[j]:
            x[idx[j]] = max(min(x[idx[j]] - over, np.nextafter(x[idx[j]], 0.0)), x_min[j])
            over = x.sum() - 1.0
        if over <= 0.0:
            break


def _uniform_fill(x, act, cap):
    """Put one amount on every active coordinate of x, and return it.

    The amount is fl(1/K) for K active coordinates, or ``cap`` when that is
    smaller, stepped down by ulps while the full x.sum() exceeds one.
    """
    xs = min(1.0 / np.count_nonzero(act), cap)
    x[act] = xs
    while x.sum() > 1.0:
        xs = math.nextafter(xs, 0.0)
        x[act] = xs
    return xs


# A quotient q/a overflows only when |q| exceeds a times the largest float.
# The fills divide state points and levels by the bids; while states and
# bids stay far below 2**512, so do those, and only a bid under 2**-512 can
# overflow a quotient.  An overflowed fill or level is clipped either way.
_TINY_BID = 2.0 ** -512


def _waterfill(coords, uniform, a, w, plateau=None, level=None):
    """Exact coordinate maximization of sum_j f_j(w_j + a_j x_j) over the simplex.

    Equalizes marginals a_j * f_j'(.) at a shared level (_level); remaining
    mass at the level is assigned in index order (_fill_deficit).  When one
    f is shared and every active bid is equal, the level search is skipped:
    a piecewise-linear f is filled piece by piece (the PL shared-bid fill),
    and a smooth one whose active states are also equal takes the same
    amount on every active coordinate (_uniform_fill), which by symmetry
    and concavity is the exact maximizer.  ``plateau``, when given, is
    every coordinate's deriv_inv_lo(0), where its strict gain ends; the
    engine computes it once per run.  ``level``, when a list, receives the
    level of the fill (0.0 where the simplex does not bind).
    Returns (x, y) with y a supergradient selection making x an exact
    support-function argmax for a * y.
    """
    act = a > 0
    if not act.any():
        return np.zeros(len(a)), coordwise(coords, uniform, "deriv_right", w)
    aa = a[act]
    same = uniform and bool((aa == aa[0]).all())      # one f and one bid
    if (aa[0] if same else aa.min()) < _TINY_BID:
        with np.errstate(over="ignore"):    # v/a and (t - w)/a overflow; both are clipped
            return _fill(coords, uniform, a, w, plateau, act, aa, same, level)
    return _fill(coords, uniform, a, w, plateau, act, aa, same, level)


def _fill_at(t, ww, aa, pl):
    """Fill of the states ww with the bids aa up to the state points t; being
    elementwise, it fills a stack of rows of states as each row alone.

    ``pl`` marks the piecewise-linear coordinates, or is None when none is:
    their fill, when it ends at a breakpoint t, must reach it in the engine's
    w + a*x, or the supergradient there misses the level.
    """
    x = ((t - ww) / aa).clip(0.0, 1.0)
    if pl is None:
        return x
    short = pl & (ww + aa * x < t) & (x < 1.0)
    while short.any():
        step = np.maximum((t - (ww + aa * x)) / aa, 0.0)
        x[short] = np.minimum(np.maximum(x + step, np.nextafter(x, 2.0)), 1.0)[short]
        short &= (ww + aa * x < t) & (x < 1.0)
    return x


def _fill(coords, uniform, a, w, plateau, act, aa, same, level):
    """_waterfill past its checks: act marks the active bids aa = a[act], and
    same says that one f and one bid are shared.  Of its branches, the two
    that read no continuous level (the uniform fill, the PL shared-bid fill)
    and the one where the simplex does not bind are stepped by _block."""
    x = np.zeros(len(a))
    ww = w[act]
    if uniform:
        sub = coords
        pl = np.full(len(aa), isinstance(coords[0], PiecewiseLinear))
    else:
        sub = [coords[j] for j in range(len(a)) if act[j]]
        pl = np.array([isinstance(f, PiecewiseLinear) for f in sub])
    snap = bool(pl.any())
    mask = pl if snap else None

    def fill(v, inv):
        return _fill_at(coordwise(sub, uniform, inv, v / aa), ww, aa, mask)

    # Sums are taken over the full x, as callers take them: with inactive
    # zeros in between, pairwise summation can round differently.
    def total_at(t):
        xa = _fill_at(t, ww, aa, mask)
        x[act] = xa
        return xa, float(x.sum())

    def total(v, inv="deriv_inv_lo"):
        return total_at(coordwise(sub, uniform, inv, v / aa))[1]

    # Strict-gain capacity at level zero decides whether the simplex binds.
    if plateau is None:
        plateau = coordwise(sub, uniform, "deriv_inv_lo", np.zeros(len(aa)))
    else:
        plateau = plateau[act]
    x_top, s0 = total_at(plateau)
    if s0 <= 1.0:
        v_star = 0.0
    elif same and not snap and bool((ww == ww[0]).all()):
        # one state point t = w0 + a0 * xs for every active coordinate
        xs = _uniform_fill(x, act, float(x_top[0]))
        # a one-element array, so that _block's rows take the same path
        v_star = aa[0] * float(sub[0].deriv_right(ww[:1] + aa[0] * xs)[0])
    else:
        if same and snap:
            # The PL shared-bid fill.  Every marginal is a0 * s_i, and the
            # level is the jump of the last piece i whose strict fill, to its
            # start ends[i], totals at most one; its room runs to the fill at
            # ends[i + 1].  The fill at ends[0] = 0 is empty (states are
            # nonnegative) and the one at the plateau exceeds one.  v_star is
            # the level the break search returns for that jump.
            f = sub[0]
            i, j, x_max = 0, int(np.count_nonzero(f.s > 0.0)), x_top
            while j - i > 1:
                mid = (i + j) // 2
                x_mid, s_mid = total_at(f._ends[mid])
                if s_mid <= 1.0:
                    i = mid
                else:
                    j, x_max = mid, x_mid
            v_star = aa[0] * f.s[i] * (1.0 + _LEVEL_WIN)
            x_min = _fill_at(f._ends[i], ww, aa, mask)
        else:
            v_star = _level(sub, uniform, aa, ww, total, s0, snap)
            x_min = fill(v_star, "deriv_inv_lo")
            x_max = fill(v_star * (1.0 - 2.0 * _LEVEL_WIN), "deriv_inv_hi")
        x[act] = x_min
        _fill_deficit(x, np.flatnonzero(act), x_min, x_max)
    u = w + a * x
    y = coordwise(coords, uniform, "deriv_right", u)
    if v_star > 0.0:
        # left of u by the rounding of w + a*x, which can pass a breakpoint
        upper = coordwise(sub, uniform, "deriv_left", u[act] * (1.0 - _LEVEL_WIN))
        y[act] = np.clip(v_star / aa, y[act], upper)
    if level is not None:
        level.append(v_star)
    return x, y


# The most arrivals of one Step that _block and _seq_block step at a time (and
# the most zero steps one _run_psd block reads), and the fewest left in the
# run (for _block: that the fills must keep in exact arithmetic) for them to try
_BLOCK_CAP, _BLOCK_MIN = 64, 2


def _block(f, points, a, img, w, r, v_star):
    """Step up to r more arrivals of the allocation step with bids a that
    _waterfill solved at the state w, to the image img = a*x at the level
    v_star, on the shared function f.

    Only the fills _fill names block, with one bid on every active
    coordinate and, for a smooth f, equal active states.  Their x is a
    function of the fills of the active coordinates to the column
    ``points``: the plateau and, for a piecewise-linear f, the starts of its
    positive pieces.  Those are taken on the state before each arrival,
    U[k] = w + img added k times (cumsum is sequential: bit for bit
    u = u + img), and arrival k returns x while they equal those at w bit
    for bit; only moving states can change theirs.  A moving state keeps
    its fill to a point while a bid short of it or past it; rows are taken
    as far as that holds in exact arithmetic, plus one, and none when that
    is fewer than _BLOCK_MIN.  Returns None
    when no arrival blocks, else (L, U, Y): the first L arrivals return x,
    the state after arrival k is U[k + 1] and Y[k - 1] its dual, taken as
    _fill takes it.
    """
    mov = img > 0.0
    gap = points - w
    if ((gap - a < _BLOCK_MIN * img) & (gap > 0.0) & mov).any():
        return None
    act = a > 0
    aa, ww = a[act], w[act]
    pl = isinstance(f, PiecewiseLinear)
    if aa[0] < _TINY_BID or (aa != aa[0]).any() or not pl and (ww != ww[0]).any():
        return None
    gap = gap[:, mov]
    with np.errstate(over="ignore"):    # a tiny image; the block is then capped by r
        ahead = float(np.where(gap > 0.0, (gap - a[mov]) / img[mov], np.inf).min())
    if ahead < r:
        r = int(ahead) + 1
    U = np.empty((r + 2, len(w)))
    U[0], U[1:] = w, img
    np.cumsum(U, axis=0, out=U)
    fills = _fill_at(points, U[:r + 1, None, mov], aa[0], True if pl else None)
    bits = fills.reshape(r + 1, -1).view(np.int64)
    L = int(np.argmax((bits != bits[0]).any(axis=1))) - 1
    if not L:
        return None
    L = r if L < 0 else L
    post = U[2:L + 2]
    Y = np.asarray(f.deriv_right(post), dtype=float)
    if v_star > 0.0:
        upper = np.asarray(f.deriv_left(post[:, act] * (1.0 - _LEVEL_WIN)), dtype=float)
        if pl:
            Y[:, act] = np.clip(v_star / aa, Y[:, act], upper)
        else:       # the uniform fill's level at each row's common state point
            v = aa[0] * np.asarray(f.deriv_right(post[:, int(act.argmax())]), dtype=float)[:, None]
            Y[:, act] = np.where(v > 0.0, np.clip(v / aa, Y[:, act], upper), Y[:, act])
    return L, U, Y


def _seq_block(f, a, u, y, r):
    """Step up to r arrivals of the allocation step with bids a as the
    sequential engine does, from the state u with the dual y = f'(u) on the
    shared function f.

    Each arrival picks argmax(a*y), ties to the lowest index, and moves
    only the picked coordinate's state and dual, so the picks merge the
    active coordinates' own sequences of values: per active coordinate j,
    the states S[j, c] = u_j + c*a_j by one cumsum (bit for bit u = u + img),
    their duals Yc = f'(S) and the values V = a_j*Yc, as DiagMap.adjoint
    takes them.  While every row falls, a stable sort of -V read row by row
    orders the entries on (-V, j, c): the greedy's picks.  From a row's first
    value that rises (rounding can break the fall) or is not finite, the row
    keeps its last good value, so that its next entry sorts right after that
    value is picked: the block stops there, where the greedy would read an
    unknown value, and before the first value <= 0, where support returns
    x = 0.  Returns None when no arrival blocks, else per pick its
    coordinate, sigma (= inner) and corr term a_j*(y_next - y)_j, as lists,
    then the state after each pick as rows and the dual after them.
    """
    # np.max passes on a nan (0*inf), which support's argmax would pick
    if not np.max(a * y) > 0.0:
        return None
    act = np.flatnonzero(a > 0.0)
    aa = a[act, None]
    S = np.empty((len(act), r + 1))
    S[:, 0], S[:, 1:] = u[act], aa
    np.cumsum(S, axis=1, out=S)
    Yc = np.asarray(f.deriv_right(S), dtype=float)
    V = aa * Yc[:, :r]
    bad = ~np.isfinite(V)
    bad[:, 1:] |= V[:, 1:] > V[:, :-1]
    key = V
    if bad.any():
        bad = np.logical_or.accumulate(bad, axis=1)
        key = np.minimum.accumulate(np.where(bad, np.inf, V), axis=1)
    order = np.argsort(-key.ravel(), kind="stable")[:r]
    L = int(np.argmax(np.append(bad.ravel()[order] | (key.ravel()[order] <= 0.0), True)))
    if not L:
        return None
    J, C = np.divmod(order[:L], r)
    j = np.arange(len(act))
    count = np.cumsum(J[:, None] == j, axis=0)     # each coordinate's picks so far
    U = np.tile(u, (L, 1))
    U[:, act] = S[j, count]
    y = y.copy()
    y[act] = Yc[j, count[-1]]
    bid = aa[J, 0]
    return act[J].tolist(), V[J, C].tolist(), (bid * (Yc[J, C + 1] - Yc[J, C])).tolist(), U, y


def _lp_step_exact(obj: PenaltyLPObjective, st: Step, state):
    """Exact saddle for the unsmoothed packing step: a simplex on its dual.

    The step maximizes c.x - l * sum_i (w_i + (Bx)_i - 1)_+ over
    {x >= 0, sum(x) <= 1}.  Its dual minimizes r.y + mu over
    B^T y + mu 1 - e = c, 0 <= y <= l, mu >= 0, e >= 0, with r = 1 - w: k
    rows, so a bounded-variable primal simplex keeps a k x k basis, whose
    multipliers are the step's x.  The start holds y at l on overspent rows
    (r < 0) and at 0 elsewhere.  If some reward is left uncovered,
    resid = c - B^T y > 0, the basis {mu} + {e_j : j != j*} at
    j* = argmax resid gives x = e_j*, optimal whenever column j* fits every
    row; otherwise the basis {e} gives x = 0, which is optimal.  Pivots
    follow Bland's rule.  Returns (x, -y).
    """
    c, B = st.A.c, st.A.B
    n, k = B.shape
    l = obj.l
    r = 1.0 - state[1:]
    # the dual's columns: y_0..y_{n-1}, mu, e_0..e_{k-1}
    A = np.hstack((B.T, np.ones((k, 1)), -np.eye(k)))
    cost = np.concatenate((r, [1.0], np.zeros(k)))
    hi = np.concatenate((np.full(n, l), np.full(k + 1, math.inf)))
    v = np.concatenate((np.where(r < 0.0, l, 0.0), np.zeros(k + 1)))
    resid = c - B.T @ v[:n]
    j = int(np.argmax(resid))
    basis = np.arange(n + 1, n + 1 + k)
    if resid[j] > 0.0:
        basis[j] = n
    tol = 1e-12 * max(1.0, float(np.max(np.abs(r))), float(np.max(c)))
    for _ in range(10 * (n + k)):
        Ab = A[:, basis]
        v[basis] = 0.0                      # the basic values from the nonbasic ones
        v[basis] = np.linalg.solve(Ab, c - A @ v)
        x = np.linalg.solve(Ab.T, cost[basis])
        d = cost - x @ A                    # reduced costs
        d[basis] = 0.0
        up = v >= hi                        # nonbasic at the upper bound
        enter = np.flatnonzero(np.where(up, d > tol, d < -tol))
        if not len(enter):
            break
        q = int(enter[0])
        dv = (1.0 if up[q] else -1.0) * np.linalg.solve(Ab, A[:, q])    # per unit move of q
        vb, hb = v[basis], hi[basis]
        room = np.maximum(np.where(dv < 0.0, vb, hb - vb), 0.0)
        ratio = np.divide(room, np.abs(dv), out=np.full(k, math.inf),
                          where=np.abs(dv) > 1e-11 * float(np.max(np.abs(dv))))
        t = float(np.min(ratio))
        if min(t, hi[q]) == math.inf:
            raise RuntimeError("packing step LP failed: the dual is unbounded")
        if hi[q] <= t:                      # q moves to its other bound
            v[q] = 0.0 if up[q] else hi[q]
        else:                               # the lowest-index blocking variable leaves
            ties = np.flatnonzero(ratio == t)
            p = int(ties[np.argmin(basis[ties])])
            v[basis[p]] = 0.0 if dv[p] < 0.0 else hb[p]
            basis[p] = q
    else:
        raise RuntimeError("packing step LP failed: the pivot cap was reached")
    x = np.maximum(x, 0.0)
    while x.sum() > 1.0:
        x /= np.nextafter(x.sum(), 2.0)
    return x, np.clip(0.0 - v[:n], -l, 0.0)     # 0.0 - y: no -0.0 where y = 0


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


def _sim_step(obj, st: Step, u, plateau=None, level=None):
    """Exact coordinate maximization of one orthant step at the state u.

    ``obj`` is the engine objective (``engine`` of the caller's objective);
    ``plateau`` and ``level`` are passed on to _waterfill.

    Separable allocation steps are water-filled (_waterfill); packing steps
    run a simplex on the step LP's dual when unsmoothed (_lp_step_exact),
    and otherwise find the root of the scalar slope by safeguarded Newton
    at k == 1 (_lp_step_scalar) or run projected Newton on the simplex
    (_lp_step_newton).  Returns (x, y) with y the step's saddle dual in the
    layout of u, so that x attains the support value of A^T y up to
    floating-point rounding.
    """
    if isinstance(obj, SeparableObjective):
        return _waterfill(obj.coords, obj._uniform, st.A.a, u, plateau, level)
    if obj.smoothed_penalty is None:
        x, y_pen = _lp_step_exact(obj, st, u)
    elif st.A.B.shape[1] == 1:
        x, y_pen = _lp_step_scalar(obj, st, u)
    else:
        x, y_pen = _lp_step_newton(obj, st, u)
    return x, np.concatenate(([1.0], y_pen))


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

    Errors name the offending step by its record index t (from 1).  A Step
    object is checked once, at its first t: generated streams repeat one
    object per phase.  Rank-one streams, whose arrivals are distinct, are
    checked in one pass over their stacked (m, n) rows, which are returned;
    only a stream failing it is walked step by step, for the first bad t.
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
    if want is RankOneMap and all(isinstance(st.A, RankOneMap) and st.F.kind == kind for st in steps):
        try:
            rows = np.array([st.A.a for st in steps], dtype=float)
        except ValueError:      # rows of unequal shapes
            rows = None
        if rows is not None and rows.shape == (len(steps), n) and np.isfinite(rows).all():
            return rows
    def first_t(st):
        return next(t for t, other in enumerate(steps, 1) if other is st)

    for st in dict(zip(map(id, steps), steps)).values():    # each object once, in order
        A = st.A
        if not isinstance(A, want) or st.F.kind != kind:
            raise ValueError(f"step {first_t(st)}: {what}")
        if want is StackedMap:
            entries = (A.c, A.B)
            sized = (np.ndim(A.B) == 2 and np.shape(A.B)[0] == n
                     and np.shape(A.c) == (np.shape(A.B)[1],) == (st.F.k,))
        else:
            entries = (A.a,)
            sized = np.shape(A.a) == (n,) and (want is RankOneMap or st.F.k == n)
        if not sized:
            raise ValueError(f"step {first_t(st)}: map size does not match the objective (n={n})")
        if not all(np.isfinite(v).all() for v in entries):
            raise ValueError(f"step {first_t(st)}: non-finite map entries")
        if want is not RankOneMap and any((v < 0).any() for v in entries):
            raise ValueError(f"step {first_t(st)}: step map must keep the orthant invariant")


def run_simultaneous(obj, steps, keep_records: bool = True) -> RunTrace:
    """Run the simultaneous-update engine; exact per-step saddles."""
    if isinstance(obj, PenaltyLPObjective):
        if obj.smoothed_penalty is not None and not hasattr(obj.smoothed_penalty, "deriv2"):
            # projected Newton needs the penalty's second derivative
            raise ValueError("run_simultaneous: a smoothed penalty must be a SmoothedScalar")
    if isinstance(obj, LogDetObjective):
        pen = obj.engine.pen
        if not (isinstance(pen, PiecewiseLinear) or hasattr(pen, "deriv2")):
            # the exact step is closed form or Newton on the second derivative
            raise ValueError("run_simultaneous: a smoothed budget must be a SmoothedScalar")
    rows = _check_steps(obj, steps)
    if obj.cone == "psd":
        return _run_psd(obj, steps, "sim", keep_records, rows)
    return _run_orthant(obj, steps, "sim", keep_records)


def run_sequential(obj, steps, keep_records: bool = True) -> RunTrace:
    """Run the sequential-update engine (assign, then refresh the dual)."""
    rows = _check_steps(obj, steps)
    if obj.cone == "psd":
        return _run_psd(obj, steps, "seq", keep_records, rows)
    return _run_orthant(obj, steps, "seq", keep_records)


def _run_orthant(obj, steps, algo, keep_records):
    """Allocation and packing: sim solves each step exactly, seq assigns
    against the previous dual and tracks the dual-movement correction.

    The arrivals of the Step object solved last repeat its x without a
    solve: all of them after a zero image, which moves neither the state
    nor the dual, and those that _block steps on sim allocation with one
    shared coordinate function.  On seq allocation with one shared
    coordinate function, _seq_block steps a run's arrivals before any
    support call; the first that it does not take is assigned alone.
    Both blocks end with the run, as run_left finds it, or at _BLOCK_CAP.
    """
    eng = obj.engine
    u = np.zeros(obj.n + 1 if isinstance(obj, PenaltyLPObjective) else obj.n)
    shift = False
    if algo == "seq":
        y = eng.grad_lo(u)
        if np.any(y >= 1e11):   # unbounded slope at the origin: start inside
            u = np.full(len(u), INTERIOR_SHIFT)
            y = eng.grad_lo(u)
            shift = True
    plateau = None      # each allocation coordinate's deriv_inv_lo(0), a constant of eng
    if algo == "sim" and isinstance(eng, SeparableObjective):
        plateau = coordwise(eng.coords, eng._uniform, "deriv_inv_lo", np.zeros(eng.n))
    points = None       # the state points whose fills decide _block, as a column
    if plateau is not None and eng._uniform:
        # the plateau, and a piecewise-linear f's piece starts past 0 (its fill is empty)
        f = eng.coords[0]
        points = (f._ends[1:np.count_nonzero(f.s > 0.0) + 1] if isinstance(f, PiecewiseLinear)
                  else plateau[:1])[:, None]
    seq_f = (eng.coords[0] if algo == "seq" and isinstance(eng, SeparableObjective) and eng._uniform
             else None)
    sigma_sum = corr = resid = 0.0
    y_low = np.inf      # running minimum of the sim steps' duals
    records = []
    rows, pending = [u], []     # states since the last gain pass, and their moving records

    def stage(states, recs):
        """Queue moving records and their states for the gain passes."""
        rows.extend(states)
        pending.extend(recs)
        while len(pending) >= _GAIN_CHUNK:
            _set_gains(eng, rows[:_GAIN_CHUNK + 1], pending[:_GAIN_CHUNK])
            del rows[:_GAIN_CHUNK], pending[:_GAIN_CHUNK]

    run = [None, 0]     # a Step object and the end of its run, as run_left last found them
    # the x of each coordinate that _seq_block picks, shared by its records
    one_hot = functools.cache(lambda j: np.eye(1, obj.n, j)[0])

    def run_left(st):
        """Arrivals from t on before the run of the Step object st ends."""
        if run[0] is not st or run[1] <= t:
            end = t
            while end < len(steps) and steps[end] is st:
                end += 1
            run[:] = st, end
        return run[1] - t

    t = 0
    while t < len(steps):
        st = steps[t]
        if seq_f is not None:
            r = min(run_left(st), _BLOCK_CAP)
            got = _seq_block(seq_f, st.A.a, u, y, r) if r >= _BLOCK_MIN else None
            if got is not None:
                picks, sigmas, dcorr, U, y = got
                for s, c in zip(sigmas, dcorr):
                    sigma_sum += s
                    corr += c
                if keep_records:
                    recs = [StepRecord(t + k, one_hot(j), s, s, 0.0)
                            for k, j, s in zip(range(1, len(picks) + 1), picks, sigmas)]
                    records.extend(recs)
                    stage(U, recs)
                t, u = t + len(picks), U[-1]
                if len(picks) == r:
                    continue
        w = u
        if algo == "sim":
            level = [] if points is not None else None
            x, y_step = _sim_step(eng, st, u, plateau, level)
            z, y_low = st.A.adjoint(y_step), np.minimum(y_low, y_step)
            sigma = max(0.0, float(np.max(z)))
            inner = float(x @ z)
            x_sum = min(float(x.sum()), 1.0)
            resid = max(resid, abs(sigma * x_sum - inner))
        else:
            sigma, x = st.F.support(st.A.adjoint(y))
        img = st.A.apply(x)
        moved = img.any()       # else neither u nor the dual moves, and the gain is 0.0
        if moved:
            u = u + img
        if algo == "seq":
            inner = float(img @ y)
            if moved:
                y_next = eng.grad_lo(u)
                corr += float(img @ (y_next - y))
                y = y_next
        sigma_sum += sigma
        t += 1
        if keep_records:
            records.append(StepRecord(t, x, sigma, inner, 0.0))
            if moved:
                stage([u], records[-1:])
        if not moved:
            while t < len(steps) and steps[t] is st:
                t += 1
                sigma_sum += sigma
                if keep_records:
                    records.append(StepRecord(t, x, sigma, inner, 0.0))
            continue
        while points is not None:
            r = min(run_left(st), _BLOCK_CAP)
            got = _block(eng.coords[0], points, st.A.a, img, w, r, level[0]) if r >= _BLOCK_MIN else None
            if got is None:
                break
            L, U, Y = got
            Z = st.A.adjoint(Y)
            y_low = np.minimum(y_low, Y.min(axis=0))
            sigmas = [max(0.0, s) for s in Z.max(axis=1).tolist()]
            inners = [float(x @ z) for z in Z]      # on contiguous rows, as on a solve's z
            for s, i in zip(sigmas, inners):
                resid = max(resid, abs(s * x_sum - i))
                sigma_sum += s
            if keep_records:
                recs = [StepRecord(t + k, x, s, i, 0.0) for k, s, i in zip(range(1, L + 1), sigmas, inners)]
                records.extend(recs)
                stage(U[2:L + 2], recs)
            t += L
            w, u = U[L], U[L + 1]
            if L < len(U) - 2:
                break
    if pending:
        _set_gains(eng, rows, pending)
    if algo == "sim":
        # D bounds OPT only if y lies below every step's dual: the LP step can
        # hold a kink that w + Bx misses by rounding, where the slope reads above
        y = np.minimum(eng.grad_lo(u), y_low)
    return RunTrace(algo, len(steps), u, y, obj.value(u), eng.value(u), obj.conj(y),
                    sigma_sum, corr, records, shift, resid)


def _set_gains(eng, rows, records):
    """Each record's gain: the engine value of its state minus that of the one before."""
    for rec, gain in zip(records, np.diff(eng.row_values(np.array(rows))).tolist()):
        rec.gain = gain


def _run_psd(obj, steps, algo, keep_records, rows):
    """Log-det with a scalar budget over the product of the PSD cone and R+.

    ``rows`` holds the arrivals' vectors a, stacked.  After a step with
    x = 0, which moves neither the state nor the dual, the next arrivals'
    q are read together (LogDetState.quads).  The leading rows whose probe
    passes and whose q is below the x = 0 boundary at the unchanged budget
    use by _CLEAR relative, so that every certified read of them takes
    x = 0, are recorded as their steps record them (x, sigma and gain 0.0,
    inner -0.0, or 0.0 on a kink of the budget penalty); the first other
    arrival takes its step alone.  A block reads twice the rows of a full
    one before it, up to _BLOCK_CAP, and after one that stops at its first
    row the next zero step reads none.  The final dual is the flushed,
    certified inverse ``state.Y``; no inverse of Asum is taken at the end.
    """
    state = LogDetState(obj.A0, obj.lam_min)
    pen = obj.engine.pen
    used = reward = sigma_sum = corr = resid = 0.0
    yb = float(pen.deriv_right(0.0))
    records, useds = [], [0.0]
    t, size = 0, 1
    while t < len(steps):
        a = steps[t].A.a
        t += 1
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
        if algo == "sim":
            resid = max(resid, abs(sigma * min(x, 1.0) - x * z))
        elif x > 0.0:   # a step of x = 0 moves neither the state nor the dual
            yb_next = float(pen.deriv_right(used))
            # <A_t x, y_next - y_t> over the product cone; the post-update read
            # a^T (Asum + x a a^T)^{-1} a is q/(1 + x q) by Sherman-Morrison
            corr += x * (q / (1.0 + x * q) - q) + x * (yb_next - yb)
            yb = yb_next
        sigma_sum += sigma
        if keep_records:     # the gain holds the log-det part until the penalty pass
            records.append(StepRecord(t, np.array([x]), sigma, x * z, gain_logdet))
            useds.append(used)
        if x > 0.0:
            continue
        if not size:
            size = 1
            continue
        # x = 0 at q <= top: -pen'(used+) on sim, -yb on seq.  Its inner x*z is
        # -0.0 below kink (z < 0) and 0.0 above it, where used sits on a kink
        # of a piecewise-linear pen and the sim step's yb = -q makes z = 0
        if algo == "sim":
            top, kink = -float(pen.deriv_right(used)), -float(pen.deriv_left(used))
        else:
            top = kink = -yb
        while t < len(steps):
            qs, ok = state.quads(rows[t:t + size])
            below = qs < kink * (1.0 - _CLEAR)
            clear = ok & (qs < top * (1.0 - _CLEAR)) & (below | (qs > kink * (1.0 + _CLEAR)))
            L = len(qs) if clear.all() else int(np.argmin(clear))
            if keep_records:
                zero = np.zeros(1)
                records.extend(StepRecord(s, zero, 0.0, i, 0.0) for s, i in
                               zip(range(t + 1, t + L + 1), np.where(below[:L], -0.0, 0.0).tolist()))
                useds.extend([used] * L)
            t += L
            if L < len(qs):
                size = size if L else 0
                break
            size = min(2 * size, _BLOCK_CAP)
    if keep_records:
        pens = np.asarray(pen.value(np.array(useds)), dtype=float)
        gains = np.array([rec.gain for rec in records]) + pens[1:] - pens[:-1]
        for rec, gain in zip(records, gains.tolist()):
            rec.gain = gain
    y_final = (state.Y, float(pen.deriv_right(used)))
    return RunTrace(algo, len(steps), (state.U, used), y_final,
                    reward + float(obj.pen.value(used)), reward + float(pen.value(used)),
                    obj.conj(y_final), sigma_sum, corr, records, False, resid)


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
    alpha_realized: float | None = None
    reasons: tuple = ()     # one line per failed inequality, with its margin

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.structural_ok


def certify(trace: RunTrace, obj, steps) -> CertificateReport:
    """Check the run's certified ratio against what the theory guarantees.

    ``ratio_lb = P / D`` is a sound per-run lower bound on the competitive
    ratio because D upper-bounds the offline optimum for any antitone dual
    stream.  Three checks:

    * identity: D never exceeds the surrogate value at the realized point
      minus the original conjugate (minus the dual-movement correction for
      sequential runs); the conjugates cancel, leaving ``slack >= -CERT_TOL``;
    * realized bound: the identity restated as a ratio floor, defined when
      the primal value is positive;
    * structural bound: the a-priori floor (1 over one-minus-alpha, or the
      certified 1/beta), applicable to simultaneous runs always, and to
      sequential runs on monotone objectives with the dual-lag rescaling.
      A sequential run on a non-monotone objective carries no ratio
      theorem, so only the identity is enforced there.

    The realized bound and alpha read the final dual's conjugate from
    ``trace.conj_final``, priced once by the engine: no conjugate is
    evaluated here.  The report's ``reasons`` name each failed inequality.
    """
    P, D = trace.P_orig, trace.D_alg
    denom = trace.P_engine - trace.conj_final - trace.corr     # corr is 0.0 on sim runs
    realized = P / denom if (P > 0 and denom > 0) else None
    alpha_real = None
    if P > 0 and obj.engine is obj:   # the classical realized parameter
        alpha_real = trace.conj_final / P
    identity_ok = trace.slack >= -CERT_TOL
    reasons = [] if identity_ok else [f"identity: slack {trace.slack:.4g} < -CERT_TOL {-CERT_TOL:g}"]
    structural, structural_ok = None, True
    if trace.algo == "sim" or isinstance(obj, SeparableObjective):
        structural = floor = obj.ratio_bound()
        lag = None
        if trace.algo == "seq" and D > 0:
            lag = max(0.0, 1.0 + trace.corr / D)
            structural = structural * lag
        structural_ok = trace.ratio_lb >= structural - CERT_TOL
        if not structural_ok:
            lagged = "" if lag is None else f" * lag 1 + corr/D {lag:.4g} = {structural:.4g}"
            reasons.append(f"floor: ratio_lb {trace.ratio_lb:.4g} < floor {floor:.4g}{lagged}"
                           f" by {structural - trace.ratio_lb:.4g}")
    return CertificateReport(trace.ratio_lb, structural, realized, identity_ok,
                             structural_ok, alpha_real, tuple(reasons))


@dataclass
class GapReport:
    passed: bool


def duality_gap_diagnostics(trace: RunTrace, obj) -> GapReport:
    """The identity ``certify`` checks, ``trace.slack >= -CERT_TOL``, alone."""
    return GapReport(trace.slack >= -CERT_TOL)
