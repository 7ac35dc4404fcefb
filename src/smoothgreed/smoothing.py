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
from dataclasses import dataclass

import numpy as np

from smoothgreed.scalar import SLOPE_CAP, ScalarConcave, SupergradInterval, check_positive

_E = math.e


def make_monotone(y):
    """Running minimum of a derivative grid; idempotent, pointwise <= input."""
    return np.minimum.accumulate(np.asarray(y, dtype=float))


class SmoothedScalar:
    """Concave function defined by derivative samples on a uniform grid.

    Parameters
    ----------
    h : grid step in u-units.
    y : array of d+1 derivative samples, non-increasing.
    tail_mode : "zero" keeps the function constant past the grid (plateau
        designs force y[-1] == 0); "hold_last" extends the last slope.
    exact_y, exact_cumint, exact_y_inv : optional closed forms that override
        grid interpolation, used by the analytic smoothings.
    """

    monotone = True

    def __init__(self, h, y, tail_mode="zero", exact_y=None, exact_cumint=None,
                 exact_y_inv=None, require_nonneg=True, label=""):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or len(y) < 2:
            raise ValueError("SmoothedScalar: need at least two derivative samples")
        if np.any(np.diff(y) > 1e-12):
            raise ValueError("SmoothedScalar: derivative grid must be non-increasing")
        if require_nonneg and y[-1] < -1e-12:
            raise ValueError("SmoothedScalar: negative derivative in a monotone smoothing")
        if tail_mode not in ("zero", "hold_last"):
            raise ValueError(f"SmoothedScalar: bad tail_mode {tail_mode!r}")
        if tail_mode == "zero" and abs(y[-1]) > 1e-9:
            raise ValueError("SmoothedScalar: zero tail requires y[-1] == 0")
        self.h = float(h)
        self.y = y
        self.d = len(y) - 1
        self.u_end = self.h * self.d
        self.tail_mode = tail_mode
        self.cumint = np.concatenate(([0.0], np.cumsum(0.5 * self.h * (y[1:] + y[:-1]))))
        self.exact_y = exact_y
        self.exact_cumint = exact_cumint
        self.exact_y_inv = exact_y_inv
        self.exact_dy = None    # closed-form second derivative, set by the penalty smoothings
        self.monotone = bool(y[-1] >= -1e-12)
        self.label = label

    # -- evaluation ------------------------------------------------------

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        if self.exact_y is not None:
            out = self.exact_y(u)
        else:
            tail = 0.0 if self.tail_mode == "zero" else self.y[-1]
            out = np.interp(u, self._ugrid(), self.y, left=self.y[0], right=tail)
        return out if out.ndim else float(out)

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.exact_cumint is not None:
            out = self.exact_cumint(u)
            return out if np.ndim(out) else float(out)
        uc = np.minimum(u, self.u_end)
        idx = np.clip((uc / self.h).astype(int), 0, self.d - 1)
        u0 = idx * self.h
        du = uc - u0
        slope = (self.y[idx + 1] - self.y[idx]) / self.h
        out = self.cumint[idx] + self.y[idx] * du + 0.5 * slope * du * du
        if self.tail_mode == "hold_last":
            out = out + self.y[-1] * np.maximum(u - self.u_end, 0.0)
        return out if out.ndim else float(out)

    # scalar-concave protocol compatibility
    deriv_right = deriv
    deriv_left = deriv

    def deriv2(self, u):
        """Right second derivative: the slope of the interpolated derivative,
        or its closed form when the smoothing carries one (``exact_dy``)."""
        u = np.asarray(u, dtype=float)
        if self.exact_dy is not None:
            out = self.exact_dy(u)
        else:
            idx = np.clip((u / self.h).astype(int), 0, self.d - 1)
            out = np.where(u < self.u_end, (self.y[idx + 1] - self.y[idx]) / self.h, 0.0)
        return out if out.ndim else float(out)

    def supergrad(self, u):
        g = float(self.deriv(float(u)))
        return SupergradInterval(g, g if u > 0 else SLOPE_CAP)

    def slope0(self):
        return float(self.y[0])

    def conj_dom_lo(self):
        return 0.0 if self.tail_mode == "zero" else float(self.y[-1])

    def plateau_u(self):
        if self.tail_mode == "zero":
            nz = np.nonzero(self.y > 0)[0]
            return float((nz[-1] + 1) * self.h) if len(nz) else 0.0
        return None

    def conjugate(self, z):
        """inf_u z*u - value(u), exact for the piecewise-linear derivative."""
        z = np.asarray(z, dtype=float)
        uz = self.deriv_inv_hi(z)
        tail_slope = 0.0 if self.tail_mode == "zero" else self.y[-1]
        # At the tail slope the infimum is attained along the whole tail;
        # clamp the attaining point onto the grid where value() is exact.
        uz = np.minimum(uz, self.u_end)
        out = z * uz - self.value(uz)
        out = np.where(z < tail_slope - 1e-15, -np.inf, out)
        return out if out.ndim else float(out)

    # -- derivative inverses (water-filling and designer support) ---------

    def _ugrid(self):
        return self.h * np.arange(self.d + 1)

    def deriv_inv_hi(self, v):
        """Rightmost u with deriv(u) >= v (sup over an empty set is 0)."""
        v = np.asarray(v, dtype=float)
        if self.exact_y_inv is not None:
            out = np.asarray(self.exact_y_inv(v, "hi"), dtype=float)
            return out if out.ndim else float(out)
        j = np.searchsorted(-self.y, -v, side="right")   # first sample below v
        jj = np.clip(j, 1, self.d)
        y0, y1 = self.y[jj - 1], self.y[jj]
        denom = np.where(y0 > y1, y0 - y1, 1.0)
        frac = np.where(y0 > y1, np.clip((y0 - v) / denom, 0.0, 1.0), 0.0)
        out = (jj - 1 + frac) * self.h
        out = np.where(j == 0, 0.0, out)
        tail_hi = np.inf if self.tail_mode == "hold_last" else np.where(v <= 0, np.inf, self.u_end)
        out = np.where(j > self.d, tail_hi, out)
        return out if out.ndim else float(out)

    def deriv_inv_lo(self, v):
        """Rightmost u with deriv(u) > v (the strict-gain horizon)."""
        v = np.asarray(v, dtype=float)
        if self.exact_y_inv is not None:
            out = np.asarray(self.exact_y_inv(v, "lo"), dtype=float)
            return out if out.ndim else float(out)
        j = np.searchsorted(-self.y, -v, side="left")    # first sample <= v
        jj = np.clip(j, 1, self.d)
        y0, y1 = self.y[jj - 1], self.y[jj]
        denom = np.where(y0 > y1, y0 - y1, 1.0)
        frac = np.where(y0 > y1, np.clip((y0 - v) / denom, 0.0, 1.0), 1.0)
        out = (jj - 1 + frac) * self.h
        out = np.where(j == 0, 0.0, out)
        tail_lo = np.inf if self.tail_mode == "hold_last" else np.where(v < 0, np.inf, self.u_end)
        out = np.where(j > self.d, tail_lo, out)
        return out if out.ndim else float(out)

    def to_descriptor(self):
        return {
            "kind": "smoothed_grid",
            "params": {"h": self.h, "y": self.y.tolist(), "tail_mode": self.tail_mode},
        }

    def __repr__(self):
        return (f"SmoothedScalar(d={self.d}, h={self.h:.4g}, "
                f"tail={self.tail_mode}, y0={self.y[0]:.4g}{', ' + self.label if self.label else ''})")


def smoothed_from_descriptor(desc: dict) -> SmoothedScalar:
    p = desc["params"]
    return SmoothedScalar(p["h"], np.asarray(p["y"], dtype=float),
                          tail_mode=p.get("tail_mode", "zero"),
                          require_nonneg=False)


def from_base(base: ScalarConcave, u_end: float, d: int, tail_mode="hold_last"):
    """Sample a catalog function's own derivative; the trivial smoothing."""
    us = u_end / d * np.arange(d + 1)
    y = np.asarray(base.deriv_right(us), dtype=float)
    y = np.minimum(y, SLOPE_CAP)
    if tail_mode == "zero":
        y[-1] = 0.0
    return SmoothedScalar(u_end / d, make_monotone(y), tail_mode=tail_mode)


# ----------------------------------------------------------------------
# Closed-form entropy smoothings of budget penalties
# ----------------------------------------------------------------------

def _clipped_exp_smoothing(l, theta, gamma, b, u_clip, d, label):
    """Entropy smoothing of u -> -l*(u - b)_+ shared by the penalty forms.

    The derivative is y(u) = (theta/(e-1)) * (1 - exp(gamma*u/b)) clipped
    to [-l, 0]; it reaches -l at ``u_clip``, where the grid ends and the
    last slope is held.
    """
    scale = theta / (_E - 1.0)

    def y_of(u):
        u = np.asarray(u, dtype=float)
        return np.clip(scale * (1.0 - np.exp(gamma * u / b)), -l, 0.0)

    def cumint_of(u):
        u = np.asarray(u, dtype=float)
        uc = np.minimum(u, u_clip)
        inner = scale * (uc - np.expm1(gamma * uc / b) * b / gamma)
        return inner - l * np.maximum(u - u_clip, 0.0)

    def dy_of(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < u_clip, -scale * gamma / b * np.exp(gamma * np.minimum(u, u_clip) / b), 0.0)

    def y_inv(v, side):
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = b / gamma * np.log(np.maximum(1.0 - v / scale, 1.0))
        if side == "hi":
            return np.where(v > 0, 0.0, np.where(v <= -l, np.inf, core))
        return np.where(v >= 0, 0.0, np.where(v < -l, np.inf, np.minimum(core, u_clip)))

    h = u_clip / d
    sm = SmoothedScalar(h, y_of(h * np.arange(d + 1)), tail_mode="hold_last",
                        exact_y=y_of, exact_cumint=cumint_of, exact_y_inv=y_inv,
                        require_nonneg=False, label=label)
    sm.exact_dy = dy_of
    sm.gamma = gamma
    return sm


def nesterov_penalty_smoothing(l: float, theta: float, budget: float = 1.0,
                               d: int = 2048) -> SmoothedScalar:
    """Smooth the penalty u -> -l*(u - budget)_+ with the entropy smoother.

    The smoothed derivative follows the first-order inversion
    y(u) = (theta/(e-1)) * (1 - exp(gamma*u/budget)) clipped to [-l, 0],
    with gamma = log(1 + l*(e-1)/theta); it reaches -l exactly at
    u = budget, after which the grid holds the last slope.
    """
    check_positive("nesterov_penalty_smoothing", l=l, theta=theta, budget=budget)
    gamma = math.log1p(l * (_E - 1.0) / theta)
    return _clipped_exp_smoothing(l, theta, gamma, budget, budget, d,
                                  f"nesterov_penalty(l={l:.3g})")


def nesterov_logdet_smoothing(n: int, l: float, b: float, d: int = 2048) -> SmoothedScalar:
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
    sm = _clipped_exp_smoothing(l, theta, gamma, b, u_clip, d, f"nesterov_logdet(n={n})")
    sm.theta = theta
    sm.ratio_bound = 1.0 / (1.0 + (1.0 + 1.0 / (_E - 1.0)) * gamma)
    return sm


def adwords_closed_form_smoothing(d: int = 4096) -> SmoothedScalar:
    """The optimal smoothing of min(u, 1): derivative ((e - e^u)/(e-1))_+.

    Carries exact closed forms so certificates do not inherit grid error;
    the associated beta is exactly e/(e-1).
    """
    c = _E - 1.0

    def y_of(u):
        u = np.asarray(u, dtype=float)
        return np.maximum((_E - np.exp(np.minimum(u, 1.0))) / c, 0.0)

    def cumint_of(u):
        u = np.asarray(u, dtype=float)
        uc = np.minimum(u, 1.0)
        return (_E * uc - np.exp(uc) + 1.0) / c

    def y_inv(v, side):
        v = np.asarray(v, dtype=float)
        with np.errstate(invalid="ignore"):
            core = np.log(np.maximum(_E - c * v, 1.0))
        if side == "hi":
            return np.where(v > 1.0, 0.0, np.where(v <= 0.0, np.inf, core))
        return np.where(v >= 1.0, 0.0, np.where(v < 0.0, np.inf, core))

    h = 1.0 / d
    grid = y_of(h * np.arange(d + 1))
    grid[-1] = 0.0
    sm = SmoothedScalar(h, grid, tail_mode="zero", exact_y=y_of,
                        exact_cumint=cumint_of, exact_y_inv=y_inv,
                        label="adwords_closed_form")
    sm.beta_exact = _E / c
    return sm


def nesterov_pl_smoothing(base, theta: float, d: int = 2000) -> SmoothedScalar:
    """Entropy smoothing of a monotone piecewise-linear catalog function.

    Decomposes the function into its leading linear part and one budget
    penalty per slope drop, smooths each penalty with the shared parameter
    theta, and sums the derivatives.  For the single-kink cap this recovers
    the classical optimal smoothing at theta equal to the drop size.
    """
    from smoothgreed.scalar import PiecewiseLinear

    # linear functions have no drop and the budget penalty is not monotone
    if not (isinstance(base, PiecewiseLinear) and len(base.b) and base.monotone):
        raise TypeError("nesterov_pl_smoothing: base must be cap or piecewise_linear")
    drops = [(float(b), float(base.s[j] - base.s[j + 1]))
             for j, b in enumerate(base.b)]
    s0 = float(base.s[0])
    u_end = float(base.b[-1])

    parts = [(bj, dj, math.log1p(dj * (_E - 1.0) / theta)) for bj, dj in drops]
    scale = theta / (_E - 1.0)

    def y_of(u):
        u = np.asarray(u, dtype=float)
        total = np.full(u.shape, s0)
        for bj, dj, gj in parts:
            total = total + np.clip(scale * (1.0 - np.exp(gj * u / bj)), -dj, 0.0)
        return np.maximum(total, 0.0)

    h = u_end / d
    grid = make_monotone(y_of(h * np.arange(d + 1)))
    tail = "zero" if grid[-1] <= 1e-12 else "hold_last"
    if tail == "zero":
        grid[-1] = 0.0
    return SmoothedScalar(h, grid, tail_mode=tail, label=f"nesterov_pl(theta={theta:.3g})")


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
    residuals = lhs - sup_beta * psi
    return sup_beta, arg_u, residuals


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
    feas_tol: float = 1e-6

    def __post_init__(self):
        for name in ("u_end", "c", "beta_tol", "feas_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"DesignSpec: {name} must be finite, got {getattr(self, name)!r}")
        if not isinstance(self.d, (int, np.integer)) or self.d < 10:
            raise ValueError(f"DesignSpec: d must be an integer >= 10, got {self.d!r}")
        if self.beta_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("DesignSpec: tolerances must be positive")
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
    argmax_u: float = 0.0
    spec: DesignSpec | None = None

    @property
    def ratio(self) -> float:
        return 1.0 / self.beta

    def summary(self) -> dict:
        return {
            "version": "v1",
            "beta": self.beta,
            "ratio": self.ratio,
            "d": self.smoothed.d,
            "variant": "sequential" if (self.spec and self.spec.c > 0) else "simultaneous",
            "c": self.spec.c if self.spec else 0.0,
            "h": self.smoothed.h,
            "tail_mode": self.smoothed.tail_mode,
            "max_residual": self.max_residual,
            "certified": self.certified,
            "y": self.smoothed.y.tolist(),
        }

    def write(self, prefix: str, provenance: str = ""):
        """Write prefix.csv (u, y, psi, psiS, beta_u) and prefix.json."""
        sm, base = self.smoothed, self.spec.base if self.spec else None
        us = sm.h * np.arange(sm.d + 1)
        psiS = np.asarray(sm.value(us), dtype=float)
        psi = np.asarray(base.value(us), dtype=float) if base else np.full_like(us, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            conj = base.conjugate(sm.y) if base else np.full_like(us, np.nan)
            lag = self.spec.c * (base.slope0() - sm.y) if (base and self.spec.c) else 0.0
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


def _min_feasible_y(base, lin_coeff, const, target, y_hi, y_argmin, tol=1e-12):
    """Smallest y in [0, y_hi] with g(y) = const + lin_coeff*y - conj(y) - target <= 0.

    g is convex in y and minimized at ``y_argmin`` (a supergradient of the
    base at u = lin_coeff, precomputed by the caller); its right derivative
    is lin_coeff - conj'(y+), with conj'(y+) the base's ``conj1_slope``.
    Safeguarded Newton on the bracket [lo, hi], g(lo) > 0 >= g(hi): on a
    convex g a Newton step never passes the root, so steps are taken from
    lo (from hi while g(lo) is infinite), kept one tolerance inside the
    bracket, and replaced by the midpoint when they leave it or the slope
    is not finite and negative.  A midpoint is also taken whenever the last
    two steps did not halve the bracket: Newton stalls where g is flat at
    zero (from hi it then moves one tolerance per step) and crawls at
    multiple roots, and this bounds the solve at three steps per halving.
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


def _greedy_construct(spec: DesignSpec, beta: float, psis: list):
    """Forward minimal-derivative construction for a candidate beta.

    Chooses at each knot the smallest feasible derivative sample, which
    keeps the accumulated integral (the only coupling across knots) as
    small as possible.  ``psis`` lists the base at the knots.  Returns the
    grid or None when construction fails.
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
    cum = 0.0
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
        yt = _min_feasible_y(base, lc, const, target, min(y[t - 1], ycap), am)
        if yt is None:
            return None
        y[t] = yt
        if first_free:
            y[0] = yt
            cum = h * yt
        else:
            cum += 0.5 * h * (y[t - 1] + yt)
    if spec.plateau and y[d] > spec.feas_tol:
        return None
    if spec.plateau:
        y[d] = 0.0
    return np.array(y)


def _design(spec: DesignSpec) -> DesignResult:
    from smoothgreed.scalar import alpha_bar

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
    tries = 0
    while (y_best := _greedy_construct(spec, beta_hi, psis)) is None:
        beta_hi *= 1.5
        tries += 1
        if tries > 60:
            raise RuntimeError("design: could not bracket a feasible beta")
    lo, hi = 1.0, beta_hi
    while hi - lo > spec.beta_tol:
        mid = 0.5 * (lo + hi)
        y_mid = _greedy_construct(spec, mid, psis)
        if y_mid is None:
            lo = mid
        else:
            hi, y_best = mid, y_mid
    tail = "zero" if spec.plateau else "hold_last"
    sm = SmoothedScalar(spec.u_end / spec.d, make_monotone(y_best), tail_mode=tail)
    sup_beta, arg_u, residuals = verify_beta(sm, spec.base, c=spec.c, refine=4)
    beta_cert = max(1.0, sup_beta)
    return DesignResult(smoothed=sm, beta=beta_cert,
                        max_residual=float(np.max(residuals)),
                        certified=True, argmax_u=arg_u, spec=spec)


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


# ----------------------------------------------------------------------
# Regression anchor: the classical budgeted-allocation optimality system
# ----------------------------------------------------------------------

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

    c = _E - 1.0
    f = lambda u: math.exp(1.0 - u) / c
    y = lambda u: max((_E - math.exp(u)) / c, 0.0)
    cumint = lambda u: (_E * min(u, 1.0) - math.exp(min(u, 1.0)) + 1.0) / c
    psi = lambda u: min(u, 1.0)
    conj = lambda z: min(z, 1.0) - 1.0
    beta = _E / c

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
