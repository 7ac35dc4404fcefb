"""Smoothed surrogates for scalar concave objectives.

Two sources of smoothings live here: closed-form entropy-type smoothings of
budget penalties, and a numerical designer that picks the derivative grid
minimizing the certified ratio parameter beta.  A smoothing is represented
by its non-increasing derivative samples y[0..d] on a uniform grid; between
samples the derivative is interpolated linearly, so the function itself is
piecewise quadratic, concave, and exactly integrable.

Every designed smoothing is post-verified: beta is the supremum of

    (psiS(u) + c*(psi'(0) - y(u)) - psi*(y(u))) / psi(u)

over a refined grid, so the reported ratio 1/beta is always a sound
certificate for the returned object, independent of how it was constructed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from smoothgreed.scalar import SLOPE_CAP, PiecewiseLinear, ScalarConcave, alpha_bar, check_positive

_E = math.e
FEAS_TOL = 1e-6     # a plateau design's last sample may miss zero by this much
_ENTROPY_SAMPLES = 2048     # grid steps behind each entropy penalty smoothing


def _scalar(out):
    return out if out.ndim else float(out)


def make_monotone(y):
    """Running minimum of a derivative grid; idempotent, pointwise <= input."""
    return np.minimum.accumulate(np.asarray(y, dtype=float))


class SmoothedScalar(ScalarConcave):
    """Concave function defined by derivative samples on a uniform grid.

    Parameters
    ----------
    h : grid step in u-units, finite and positive.
    y : array of d+1 finite derivative samples, non-increasing.

    Past the grid the last slope y[-1] holds, so a grid whose last sample
    is zero is a plateau: constant past u_end, the shape of the adwords
    optimum.  The closed-form smoothings are subclasses that override
    ``deriv``, ``value``, ``deriv2`` and ``_deriv_inv``, so certificates do
    not inherit grid error; their samples still back the grid queries and
    the descriptor.
    """

    kind = "smoothed_grid"

    def __init__(self, h, y):
        check_positive("SmoothedScalar", h=h)
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or len(y) < 2:
            raise ValueError("SmoothedScalar: need at least two derivative samples")
        if not np.all(np.isfinite(y)):
            bad = np.flatnonzero(~np.isfinite(y))
            raise ValueError(f"SmoothedScalar: derivative samples must be finite, got "
                             f"{', '.join(f'y[{i}] = {y[i]}' for i in bad[:5])}")
        self.h = float(h)
        with np.errstate(over="ignore", invalid="ignore"):
            dy = np.diff(y)
            self.cumint = np.concatenate(([0.0], np.cumsum(0.5 * self.h * (y[1:] + y[:-1]))))
            finite = np.isfinite(dy / self.h).all() and np.isfinite(self.cumint[-1])
        if np.any(dy > 1e-12):
            raise ValueError("SmoothedScalar: derivative grid must be non-increasing")
        if not finite:
            raise ValueError("SmoothedScalar: derivative grid overflows: a slope diff(y)/h "
                             "or the integral is not finite")
        self.y = y
        self.d = len(y) - 1
        self.ugrid = self.h * np.arange(self.d + 1)
        self.u_end = self.h * self.d
        self.monotone = bool(y[-1] >= -1e-12)

    # -- evaluation ------------------------------------------------------

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        return _scalar(np.interp(u, self.ugrid, self.y, left=self.y[0], right=self.y[-1]))

    def value(self, u):
        u = np.asarray(u, dtype=float)
        uc = np.minimum(u, self.u_end)
        idx = np.clip((uc / self.h).astype(int), 0, self.d - 1)
        u0 = idx * self.h
        du = uc - u0
        slope = (self.y[idx + 1] - self.y[idx]) / self.h
        out = self.cumint[idx] + self.y[idx] * du + 0.5 * slope * du * du
        if self.y[-1]:
            out = out + self.y[-1] * np.maximum(u - self.u_end, 0.0)
        return _scalar(out)

    # a method, not an alias, so both sides follow a subclass's deriv
    def deriv_right(self, u):
        return self.deriv(u)

    deriv_left = deriv_right

    def deriv2(self, u):
        """Right second derivative: the slope of the interpolated derivative."""
        u = np.asarray(u, dtype=float)
        idx = np.clip((u / self.h).astype(int), 0, self.d - 1)
        return _scalar(np.where(u < self.u_end, (self.y[idx + 1] - self.y[idx]) / self.h, 0.0))

    def slope0(self):
        return float(self.y[0])

    def conj_dom_lo(self):
        return float(self.y[-1])

    def conjugate(self, z):
        """inf_u z*u - value(u), exact for the piecewise-linear derivative."""
        z = np.asarray(z, dtype=float)
        uz = self.deriv_inv_hi(z)
        # At the tail slope the infimum is attained along the whole tail;
        # clamp the attaining point onto the grid where value() is exact.
        uz = np.minimum(uz, self.u_end)
        out = z * uz - self.value(uz)
        return _scalar(np.where(z < self.y[-1] - 1e-15, -np.inf, out))

    # -- derivative inverses (water-filling and designer support) ---------

    def deriv_inv_hi(self, v):
        """Rightmost u with deriv(u) >= v (sup over an empty set is 0)."""
        return self._deriv_inv(v, "hi")

    def deriv_inv_lo(self, v):
        """Rightmost u with deriv(u) > v (the strict-gain horizon)."""
        return self._deriv_inv(v, "lo")

    def _deriv_inv(self, v, side):
        v = np.asarray(v, dtype=float)
        hi = side == "hi"
        # first sample below v ("hi") or at most v ("lo")
        j = np.searchsorted(-self.y, -v, side="right" if hi else "left")
        jj = np.clip(j, 1, self.d)
        y0, y1 = self.y[jj - 1], self.y[jj]
        denom = np.where(y0 > y1, y0 - y1, 1.0)
        frac = np.where(y0 > y1, np.clip((y0 - v) / denom, 0.0, 1.0), 0.0 if hi else 1.0)
        out = (jj - 1 + frac) * self.h
        out = np.where(j == 0, 0.0, out)
        # every sample reaches v: the held last slope does too, past the grid
        return _scalar(np.where(j > self.d, np.inf, out))

    def params(self):
        return {"h": self.h, "y": self.y.tolist()}

    def __repr__(self):
        return (f"{type(self).__name__}(d={self.d}, h={self.h:.4g}, "
                f"y0={self.y[0]:.4g}, y_end={self.y[-1]:.4g})")


# ----------------------------------------------------------------------
# Closed-form entropy smoothings
# ----------------------------------------------------------------------

class EntropyPenaltySmoothing(SmoothedScalar):
    """Entropy smoothing of the budget penalty u -> -l*(u - budget)_+.

    The derivative is y(u) = (theta/(e-1)) * (1 - exp(gamma*u/budget))
    clipped to [-l, 0]; it reaches -l at ``u_clip``, where the grid ends
    and the last slope is held.  ``ratio_bound`` is the certified ratio floor
    of the log-det form, else None; ``LogDetObjective.floor`` reads it.
    """

    def __init__(self, l, theta, gamma, budget, u_clip, ratio_bound=None):
        self.l, self.theta, self.gamma = l, theta, gamma
        self.budget, self.u_clip, self.ratio_bound = budget, u_clip, ratio_bound
        self.scale = theta / (_E - 1.0)
        h = u_clip / _ENTROPY_SAMPLES
        super().__init__(h, self.deriv(h * np.arange(_ENTROPY_SAMPLES + 1)))

    # On a float, deriv and deriv2 take the array path's operations in its
    # order (np.exp, not math.exp, which rounds apart) without its overhead.
    def deriv(self, u):
        if isinstance(u, float):
            return float(min(max(self.scale * (1.0 - np.exp(self.gamma * u / self.budget)), -self.l), 0.0))
        y = self.scale * (1.0 - np.exp(self.gamma * np.asarray(u, dtype=float) / self.budget))
        return _scalar(np.clip(y, -self.l, 0.0))

    def value(self, u):
        u = np.asarray(u, dtype=float)
        b, gamma, u_clip = self.budget, self.gamma, self.u_clip
        uc = np.minimum(u, u_clip)
        inner = self.scale * (uc - np.expm1(gamma * uc / b) * b / gamma)
        return _scalar(inner - self.l * np.maximum(u - u_clip, 0.0))

    def deriv2(self, u):
        b, gamma, u_clip = self.budget, self.gamma, self.u_clip
        if isinstance(u, float):
            dy = -self.scale * gamma / b * np.exp(gamma * min(u, u_clip) / b)
            return float(dy) if u < u_clip else 0.0
        u = np.asarray(u, dtype=float)
        dy = -self.scale * gamma / b * np.exp(gamma * np.minimum(u, u_clip) / b)
        return _scalar(np.where(u < u_clip, dy, 0.0))

    def _deriv_inv(self, v, side):
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = self.budget / self.gamma * np.log(np.maximum(1.0 - v / self.scale, 1.0))
        if side == "hi":
            return _scalar(np.where(v > 0, 0.0, np.where(v <= -self.l, np.inf, core)))
        core = np.minimum(core, self.u_clip)
        return _scalar(np.where(v >= 0, 0.0, np.where(v < -self.l, np.inf, core)))


def nesterov_penalty_smoothing(l: float, theta: float,
                               budget: float = 1.0) -> EntropyPenaltySmoothing:
    """Smooth the penalty u -> -l*(u - budget)_+ with the entropy smoother.

    The smoothed derivative follows the first-order inversion
    y(u) = (theta/(e-1)) * (1 - exp(gamma*u/budget)) clipped to [-l, 0],
    with gamma = log(1 + l*(e-1)/theta); it reaches -l exactly at
    u = budget, after which the grid holds the last slope.
    """
    check_positive("nesterov_penalty_smoothing", l=l, theta=theta, budget=budget)
    gamma = math.log1p(l * (_E - 1.0) / theta)
    return EntropyPenaltySmoothing(l, theta, gamma, budget, budget)


def nesterov_logdet_smoothing(n: int, l: float, b: float) -> EntropyPenaltySmoothing:
    """Entropy smoothing of the budget penalty for determinant maximization.

    Uses theta = log(1 + 1/n) and gamma = log(1 + l/theta); the associated
    certified ratio is 1 / (1 + (1 + 1/(e-1)) * gamma).
    """
    if n < 1:
        raise ValueError("nesterov_logdet_smoothing: need n >= 1")
    check_positive("nesterov_logdet_smoothing", l=l, b=b)
    theta = math.log1p(1.0 / n)
    gamma = math.log1p(l / theta)
    # The derivative hits -l strictly past the budget; cover that point.
    u_clip = b * math.log1p(l * (_E - 1.0) / theta) / gamma
    return EntropyPenaltySmoothing(l, theta, gamma, b, u_clip,
                                   ratio_bound=1.0 / (1.0 + (1.0 + 1.0 / (_E - 1.0)) * gamma))


class AdwordsCapSmoothing(SmoothedScalar):
    """The optimal smoothing of min(u, 1): derivative ((e - e^u)/(e-1))_+.

    Its beta is exactly e/(e-1).  It equals slope one plus the unit penalty
    at theta = 1, but that fold ran 10-15% slower on closed-form allocation.
    """

    beta_exact = _E / (_E - 1.0)

    def __init__(self, d):
        h = 1.0 / d
        grid = self.deriv(h * np.arange(d + 1))
        grid[-1] = 0.0
        super().__init__(h, grid)

    def deriv(self, u):
        uc = np.minimum(np.asarray(u, dtype=float), 1.0)
        return _scalar(np.maximum((_E - np.exp(uc)) / (_E - 1.0), 0.0))

    def value(self, u):
        uc = np.minimum(np.asarray(u, dtype=float), 1.0)
        return _scalar((_E * uc - np.exp(uc) + 1.0) / (_E - 1.0))

    def _deriv_inv(self, v, side):
        v = np.asarray(v, dtype=float)
        # on [0, 1] the log's argument runs from e down to exactly 1, so no
        # v, nan and infinities included, raises a floating-point warning;
        # v outside [0, 1] is replaced below
        core = np.log(_E - (_E - 1.0) * v.clip(0.0, 1.0))
        if side == "hi":
            return _scalar(np.where(v > 1.0, 0.0, np.where(v <= 0.0, np.inf, core)))
        return _scalar(np.where(v >= 1.0, 0.0, np.where(v < 0.0, np.inf, core)))


def adwords_closed_form_smoothing(d: int = 4096) -> AdwordsCapSmoothing:
    """The optimal smoothing of min(u, 1); its beta is exactly e/(e-1)."""
    return AdwordsCapSmoothing(d)


def nesterov_pl_smoothing(base, theta: float, d: int = 2000) -> SmoothedScalar:
    """Entropy smoothing of a monotone piecewise-linear catalog function.

    Decomposes the function into its leading linear part and one budget
    penalty per slope drop, smooths each penalty with the shared parameter
    theta, and sums the derivatives.  For the single-kink cap this recovers
    the classical optimal smoothing at theta equal to the drop size.
    """
    # linear functions have no drop and the budget penalty is not monotone
    if not (isinstance(base, PiecewiseLinear) and len(base.b) and base.monotone):
        raise TypeError("nesterov_pl_smoothing: base must be cap or piecewise_linear")
    h = float(base.b[-1]) / d
    u = h * np.arange(d + 1)
    total = float(base.s[0])
    for j, bj in enumerate(base.b):
        drop = float(base.s[j] - base.s[j + 1])
        total = total + nesterov_penalty_smoothing(drop, theta, float(bj)).deriv(u)
    grid = make_monotone(np.maximum(total, 0.0))
    if grid[-1] <= 1e-12:
        grid[-1] = 0.0      # a plateau past the last breakpoint
    return SmoothedScalar(h, grid)


# ----------------------------------------------------------------------
# Verification and the designer
# ----------------------------------------------------------------------

def verify_beta(smoothed: SmoothedScalar, base: ScalarConcave, c: float = 0.0,
                refine: int = 4):
    """Supremum of the certified ratio parameter over a refined grid.

    Returns (sup_beta, argmax_u, residuals); residuals are the constraint
    slacks at sup_beta and are nonpositive by construction.  For bases with
    an unbounded slope at 0 the grid starts at the first design knot, and
    the certificate only covers [h, u_end].
    """
    U = smoothed.u_end
    m = max(1, refine) * smoothed.d
    us = np.linspace(0.0, U, m + 1)[1:]
    s0 = base.slope0()
    if math.isfinite(s0):
        # the ratio peaks between the first knots; cover the approach to 0
        us = np.unique(np.concatenate((us, np.geomspace(U * 1e-7, U, 1024))))
    else:
        us = us[us >= smoothed.h - 1e-12]
    ys = np.asarray(smoothed.deriv(us), dtype=float)
    lhs = np.asarray(smoothed.value(us), dtype=float) - base.conjugate(ys)
    if c:
        lhs = lhs + c * (s0 - ys)
    psi = np.asarray(base.value(us), dtype=float)
    ok = psi > 0
    ratios = np.where(ok, lhs / np.where(ok, psi, 1.0), -np.inf)
    k = int(np.argmax(ratios))
    sup_beta = float(ratios[k])
    arg_u = float(us[k])
    if math.isfinite(s0):
        # closed-form right limit at 0: with y(0) >= slope0 the constraint
        # ratio tends to (y(0) + (conj_slope + c) * |y'(0+)|) / slope0
        y0 = smoothed.slope0()
        if y0 >= s0 - 1e-9:
            g = max(0.0, (smoothed.y[0] - smoothed.y[1]) / smoothed.h)
            conj_slope = float(base.deriv_inv_hi(min(y0, s0 * (1 + 1e-12))))
            limit0 = (y0 + (conj_slope + c) * g) / s0
            if limit0 > sup_beta:
                sup_beta, arg_u = limit0, 0.0
        else:
            sup_beta, arg_u = math.inf, 0.0
    if math.isinf(sup_beta):
        # no finite beta certifies the grid: every constraint with psi > 0
        # holds only in the limit, and inf - inf would be NaN
        residuals = np.where(psi > 0, -np.inf, lhs)
    else:
        residuals = lhs - sup_beta * psi
    return sup_beta, arg_u, residuals


@dataclass
class DesignSpec:
    """Inputs for the optimal-smoothing program.

    ``plateau`` designs on [0, u_end] with a forced terminal zero slope
    (valid globally when the base is flat past u_end); otherwise the grid
    is a finite horizon and the certificate covers [0, u_end] only.
    ``c > 0`` switches to the sequential variant with the dual-lag term.
    """

    base: ScalarConcave
    u_end: float
    d: int = 1000
    plateau: bool = False
    c: float = 0.0
    beta_tol: float = 1e-4

    def __post_init__(self):
        for name in ("u_end", "c", "beta_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"DesignSpec: {name} must be finite, got {getattr(self, name)!r}")
        if not isinstance(self.d, (int, np.integer)) or self.d < 10:
            raise ValueError(f"DesignSpec: d must be an integer >= 10, got {self.d!r}")
        if self.beta_tol <= 0:
            raise ValueError("DesignSpec: beta_tol must be positive")
        if self.u_end <= 0:
            raise ValueError("DesignSpec: u_end must be positive")
        if self.c < 0:
            raise ValueError("DesignSpec: c must be nonnegative")
        if self.c > 0 and not math.isfinite(self.base.slope0()):
            raise ValueError("DesignSpec: sequential design needs a finite slope at 0")


@dataclass
class DesignResult:
    smoothed: SmoothedScalar
    beta: float
    max_residual: float
    certified: bool
    spec: DesignSpec
    # (beta, feasible, miss) of each construction the beta search ran, in
    # order; miss is a plateau grid's unclamped last sample, else None
    probes: list = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return 1.0 / self.beta

    def summary(self) -> dict:
        return {
            "version": "v1",
            "beta": self.beta,
            "ratio": self.ratio,
            "d": self.smoothed.d,
            "variant": "sequential" if self.spec.c > 0 else "simultaneous",
            "c": self.spec.c,
            "h": self.smoothed.h,
            "tail_mode": "zero" if self.spec.plateau else "hold_last",  # for older readers
            "max_residual": self.max_residual,
            "certified": self.certified,
            "y": self.smoothed.y.tolist(),
        }

    def write(self, prefix: str, provenance: str = ""):
        """Write prefix.csv (u, y, psi, psiS, beta_u) and prefix.json."""
        sm, base = self.smoothed, self.spec.base
        us = sm.ugrid
        psiS = np.asarray(sm.value(us), dtype=float)
        psi = np.asarray(base.value(us), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            conj = base.conjugate(sm.y)
            lag = self.spec.c * (base.slope0() - sm.y) if self.spec.c else 0.0
            beta_u = np.where(psi > 0, (psiS + lag - conj) / np.where(psi > 0, psi, 1.0), np.nan)
        with open(prefix + ".csv", "w", newline="") as fh:
            fh.write(f"# smoothgreed design v1 beta={self.beta:.12g} "
                     f"ratio={self.ratio:.12g}{' ' + provenance if provenance else ''}\n")
            w = csv.writer(fh)
            w.writerow(["u", "y", "psi", "psiS", "beta_u"])
            for row in zip(us, sm.y, psi, psiS, beta_u):
                w.writerow([f"{v:.12g}" for v in row])
        with open(prefix + ".json", "w") as fh:
            json.dump(self.summary(), fh, indent=1)


def _min_feasible_y(conj, slope, lin_coeff, const, target, lo, c_lo, hi, c_hi, tol=1e-12,
                    guess=None):
    """Smallest y in [lo, hi] with g(y) = const + lin_coeff*y - conj(y) - target <= 0.

    ``conj``, ``slope`` are the base's ``conj1``, ``conj1_slope``, and ``c_lo``,
    ``c_hi`` are conj(lo), conj(hi).  The caller puts lo at the edge of the
    conjugate's domain and hi at or left of the minimizer of the convex g.
    Safeguarded Newton keeps g(lo) > 0 >= g(hi): on a convex g a Newton step
    from lo never passes the root, so steps go from lo (from hi while g(lo)
    is infinite, after reading g at ``guess`` if lo + tol*max(1, lo) < guess
    < hi), one tolerance inside the bracket.  The first Newton point is
    followed by a probe one tolerance past it on the root's far side, which
    ends the solve when the step was exact.  A midpoint replaces a step that
    leaves the bracket or has no finite negative slope, and follows any two
    later steps that did not halve the bracket (Newton stalls where g is
    flat at zero), which bounds the solve at three steps per halving.
    Returns (y, conj(y)): lo if feasible, else hi once hi - tol*max(1, hi)
    <= lo; None when no y in the range is feasible.

    Unless y = lo, g was read > 0 somewhere in [y - tol*max(1, y), y]; g is
    nonincreasing, so at y - tol*max(1, y) it reads above minus the rounding
    of two evaluations of g, each at most 4 eps times |const| + |lc*y| +
    |target| + |y*u| + |f(u)| (conj(y) = y*u - f(u), u = conj1_slope(y)).
    Where g is flat to rounding a solve can promise no more: at a double
    root, such as g(y) = (y - 1/2)^2/y, g reads 0 over about 1e-8.
    """
    ghi = const + lin_coeff * hi - c_hi - target
    if not ghi <= 1e-11:
        return None
    glo = const + lin_coeff * lo - c_lo - target
    if glo <= 0.0:
        return lo, c_lo
    if ghi > 0.0:
        return hi, c_hi      # the minimum misses by rounding only
    if glo == math.inf and guess is not None and lo + (tol * lo if lo > 1.0 else tol) < guess < hi:
        cy = conj(guess)
        gy = const + lin_coeff * guess - cy - target
        if gy <= 0.0:
            hi, ghi, c_hi = guess, gy, cy
        else:
            lo, glo = guess, gy
    # the first Newton step and its probe, out of the loop: as its steps they lost 40% of the gain
    y0, g0 = (lo, glo) if glo < math.inf else (hi, ghi)
    dg = lin_coeff - slope(y0)
    tol_hi = tol * hi if hi > 1.0 else tol
    if -math.inf < dg < 0.0 and lo <= (y := y0 - g0 / dg) <= hi and hi - lo > tol_hi:
        y_in = lo + (tol * lo if lo > 1.0 else tol)
        y = y if y > y_in else y_in
        y = y if y < hi - tol_hi else hi - tol_hi
        for _ in (0, 1):       # the Newton point, then one tolerance past it
            cy = conj(y)
            gy = const + lin_coeff * y - cy - target
            if gy <= 0.0:
                hi, ghi, c_hi = y, gy, cy
                y = hi - (tol * hi if hi > 1.0 else tol)
            else:
                lo, glo = y, gy
                y = lo + (tol * lo if lo > 1.0 else tol)
            if not lo < y < hi:
                break
    w1 = w2 = math.inf     # bracket widths before the last two steps
    while hi - lo > (tol_hi := tol * hi if hi > 1.0 else tol):
        y = math.nan
        if hi - lo <= 0.5 * w2:
            y0, g0 = (lo, glo) if glo < math.inf else (hi, ghi)
            dg = lin_coeff - slope(y0)
            if -math.inf < dg < 0.0:
                y = y0 - g0 / dg
            if lo <= y <= hi:
                y_in = lo + (tol * lo if lo > 1.0 else tol)
                y = y if y > y_in else y_in
                y = y if y < hi - tol_hi else hi - tol_hi
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
        w1, w2 = hi - lo, w1
        cy = conj(y)
        gy = const + lin_coeff * y - cy - target
        if gy <= 0.0:
            hi, ghi, c_hi = y, gy, cy
        else:
            lo, glo = y, gy
    return hi, c_hi


def _greedy_construct(spec: DesignSpec, beta: float, psis: list):
    """Forward minimal-derivative construction for a candidate beta.

    Chooses at each knot the smallest feasible derivative sample, which
    keeps the accumulated integral (the only coupling across knots) as
    small as possible.  ``psis`` lists the base at the knots.  Returns the
    grid, its last sample unclamped, or None when a knot has no feasible
    sample, and the last knot's margin: the beta it needs at y = lo, less
    beta (None if the construction stops earlier).  ``_design`` applies the
    plateau check to the last sample.
    """
    base, d, c = spec.base, spec.d, spec.c
    h = spec.u_end / d
    half_h = 0.5 * h
    s0 = base.slope0()
    inf_slope = not math.isfinite(s0)
    # Convexity in y makes g minimal at a supergradient of the base taken
    # at the linear coefficient; hoisted, since it is shared by all knots.
    lin = half_h - c
    y_argmin = float(base.supergrad(lin).hi) if lin > 0 else SLOPE_CAP
    lin1 = h - c
    y_argmin1 = float(base.supergrad(lin1).hi) if lin1 > 0 else SLOPE_CAP
    lag = c * s0 if c else 0.0     # const is never -0.0, so a zero lag adds exactly
    conj, slope = base.conj1, base.conj1_slope
    lo = max(0.0, base.conj_dom_lo())
    c_lo = conj(lo)
    warm = c_lo == -math.inf     # g(lo) is infinite: the knot solve reads a guess first
    # every sample stays in [lo, y[0]], so y[t-1] bounds the next knot
    y = [SLOPE_CAP if inf_slope else s0] * (d + 1)
    cum = c_prev = 0.0
    guess = margin = None
    for t in range(1, d + 1):
        first_free = t == 1 and inf_slope
        if first_free:
            lc, am, const = lin1, y_argmin1, lag
        else:
            lc, am, const = lin, y_argmin, cum + half_h * y[t - 1] + lag
        # the knot that accepted y[t-1] has its conjugate; y[0] has none
        hi = y[t - 1] if y[t - 1] < am else am
        c_hi = c_prev if hi == y[t - 1] and t > 1 else conj(hi)
        if warm and t > 2:      # the cubic through the last four knots, the line while t <= 4
            guess = (4.0 * (y[t - 1] + y[t - 3]) - 6.0 * y[t - 2] - y[t - 4] if t > 4
                     else 2.0 * y[t - 1] - y[t - 2])
        if t == d:
            margin = (const + lc * lo - c_lo) / psis[d] - beta
        knot = _min_feasible_y(conj, slope, lc, const, beta * psis[t], lo, c_lo, hi, c_hi,
                               guess=guess)
        if knot is None:
            return None, margin
        y[t], c_prev = knot
        if first_free:
            y[0] = y[1]
            cum = h * y[1]
        else:
            cum += half_h * (y[t - 1] + y[t])
    return np.array(y), margin


def _design(spec: DesignSpec) -> DesignResult:
    """Smallest beta, to ``beta_tol``, at which the greedy construction succeeds.

    The search follows the bisection of beta over [1, beta_hi], its
    midpoints and its stopping rule, but constructs only the midpoints that
    nothing known decides, taking feasibility to be monotone in beta.  Every
    plateau construction that reaches the last knot, feasible or not,
    leaves that knot's margin (_greedy_construct): negative when feasible,
    positive on a miss and smooth through beta*.  Once two are known, the
    secant root through the two of least |margin| decides the remaining
    midpoints, and the final bracket's ends are constructed to confirm it.
    Horizon designs fail at interior knots and construct every midpoint.  A
    failed confirmation replays the path from the start, taking plain
    midpoints until those it decides without a construction cover the
    constructions off its path; only then does it predict again.  So the
    search constructs at most two betas more than the bisection, and its
    result is the bisection's wherever feasibility is monotone in beta.
    ``verify_beta`` certifies the returned grid either way; ``probes`` on
    the result records every construction.
    """
    if not spec.base.monotone or float(spec.base.value(spec.u_end)) <= 0:
        raise ValueError("design: base must be monotone with positive values on (0, u_end]")
    # A guaranteed-feasible upper bracket: the base's own derivative
    # satisfies the constraint with beta = 1 - alpha_bar (plus the
    # dual-lag term in the sequential variant).
    beta_hi = max(1.0, 1.0 - alpha_bar(spec.base, spec.u_end)) + 0.05
    if spec.c > 0:
        beta_hi += spec.c * spec.base.slope0() / max(spec.base.value(spec.u_end), 1e-12) + spec.c
    h = spec.u_end / spec.d
    psis = np.asarray(spec.base.value(h * np.arange(spec.d + 1)), dtype=float)
    if np.any(psis[1:] <= 0):
        raise ValueError("design: base must be positive on the grid interior")
    psis = psis.tolist()
    probes = []         # (beta, feasible, miss) of every construction, in order
    margins = []        # (beta, margin) of the plateau constructions that reached the last knot
    f_min, i_max, y_best = math.inf, 1.0, None    # the bisection's lo is 1.0
    tried = set()

    def construct(beta):
        nonlocal f_min, i_max, y_best
        y, margin = _greedy_construct(spec, beta, psis)
        miss = float(y[-1]) if y is not None and spec.plateau else None
        if spec.plateau and margin is not None:
            margins.append((beta, margin))
        ok = y is not None and (miss is None or miss <= FEAS_TOL)
        probes.append((beta, ok, miss))
        tried.add(beta)
        if ok:
            if spec.plateau:
                y[-1] = 0.0
            if beta < f_min:
                f_min, y_best = beta, y
        else:
            i_max = max(i_max, beta)
        return ok

    tries = 0
    while not construct(beta_hi):
        beta_hi *= 1.5
        tries += 1
        if tries > 60:
            raise RuntimeError("design: could not bracket a feasible beta")
    n_bracket = len(probes)
    while True:
        lo, hi, est = 1.0, beta_hi, None
        on_path = free = 0      # midpoints so far that were constructed, that never were
        # past the float spacing near beta the midpoint is lo or hi: stop there
        while hi - lo > spec.beta_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
            if mid >= f_min or mid <= i_max:
                feasible = mid >= f_min
                if mid in tried:
                    on_path += 1
                else:
                    free += 1
            else:
                # predict once the midpoints skipped so far cover the
                # constructions off this path (failed confirmations): a wrong
                # prediction costs at most two more; the secant runs through
                # the two margins nearest zero, if they fall in beta
                if est is None and len(probes) - n_bracket - on_path <= free and len(margins) > 1:
                    (b1, m1), (b2, m2) = sorted(margins, key=lambda p: abs(p[1]))[:2]
                    if (m2 - m1) * (b2 - b1) < 0:
                        est = b1 - m1 * (b2 - b1) / (m2 - m1)
                if est is None:
                    feasible = construct(mid)
                    on_path += 1
                else:
                    feasible = mid >= est
            if feasible:
                hi = mid
            else:
                lo = mid
        if est is None or ((hi >= f_min or construct(hi)) and (lo <= i_max or not construct(lo))):
            break
    sm = SmoothedScalar(spec.u_end / spec.d, make_monotone(y_best))
    sup_beta, _, residuals = verify_beta(sm, spec.base, c=spec.c, refine=4)
    return DesignResult(smoothed=sm, beta=max(1.0, sup_beta),
                        max_residual=float(np.max(residuals)), certified=True, spec=spec,
                        probes=probes)


def design_optimal(spec: DesignSpec) -> DesignResult:
    """Best smoothing for the simultaneous engine on the given grid."""
    if spec.c != 0.0:
        raise ValueError("design_optimal: use design_sequential for c > 0")
    return _design(spec)


def design_sequential(spec: DesignSpec) -> DesignResult:
    """Best smoothing for the sequential engine; beta prices the dual lag."""
    if spec.c <= 0.0:
        raise ValueError("design_sequential: needs c > 0")
    return _design(spec)
