"""Exact calculus for one-dimensional concave functions on the half line.

Every catalog member is upper semi-continuous, concave on [0, inf),
normalized so that value(0) == 0, and ships closed-form value, concave
conjugate, and supergradient intervals.  The conjugate convention is

    conj(y) = inf_{u >= 0}  y*u - value(u),

so conj is concave and non-decreasing in y, with -inf outside its domain.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Supergradient sets at the domain boundary u = 0 are unbounded above;
# they are reported capped at this slope.
SLOPE_CAP = 1e12


@dataclass(frozen=True)
class SupergradInterval:
    """Closed interval [lo, hi] of supergradients at a point."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty supergradient interval: {self.lo} > {self.hi}")


def check_positive(owner, **fields):
    """Reject a parameter that is not a finite positive number, naming it (a JSON true is not 1)."""
    for name, v in fields.items():
        if not (isinstance(v, numbers.Real) and not isinstance(v, bool)
                and math.isfinite(v) and v > 0):
            raise ValueError(f"{owner}: {name} must be finite and positive, got {v!r}")


def _as_array(u):
    return np.asarray(u, dtype=float)


def _nonneg(u):
    a = np.asarray(u, dtype=float)
    if np.any(a < -1e-12):
        raise ValueError("evaluation point must be nonnegative")
    return np.maximum(a, 0.0)


def _maybe_scalar(x, arr):
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


class ScalarConcave:
    """Base class for the closed catalog of scalar concave functions."""

    kind = "abstract"
    monotone = True

    # --- core calculus; all accept scalars or numpy arrays -------------

    def value(self, u):
        raise NotImplementedError

    def conjugate(self, y):
        raise NotImplementedError

    def conj1(self, y: float) -> float:
        """Scalar conjugate on the fast path (root finds hit this a lot)."""
        return float(self.conjugate(y))

    def conj1_slope(self, y: float) -> float:
        """Right derivative of the conjugate at y, deriv_inv_lo(y), as a float."""
        return float(self.deriv_inv_lo(y))

    def deriv_right(self, u):
        """Right derivative (lower end of the supergradient interval)."""
        raise NotImplementedError

    def deriv_left(self, u):
        """Left derivative for u > 0 (upper end of the interval)."""
        raise NotImplementedError

    def supergrad(self, u: float) -> SupergradInterval:
        u = float(u)
        if u < 0:
            raise ValueError("supergrad: u must be nonnegative")
        if u == 0.0:
            return SupergradInterval(min(self.slope0(), SLOPE_CAP), SLOPE_CAP)
        return SupergradInterval(float(self.deriv_right(u)), float(self.deriv_left(u)))

    # --- structure queries used by the engines and the designer --------

    def slope0(self) -> float:
        """Derivative at 0+ (may be +inf for sqrt/power kinds)."""
        raise NotImplementedError

    def conj_dom_lo(self) -> float:
        """Infimum of the conjugate domain (the slope at infinity)."""
        raise NotImplementedError

    def plateau_u(self):
        """Start of a flat tail, or None if the function keeps growing."""
        return None

    def deriv_inv_hi(self, v):
        """sup{u >= 0 : deriv_right(u) >= v}; +inf when never dropping below v."""
        raise NotImplementedError

    def deriv_inv_lo(self, v):
        """sup{u >= 0 : deriv_left(u) > v}; the strict-gain horizon."""
        raise NotImplementedError

    def alpha_exact(self):
        """Closed-form infimum of alpha over the cone, or None."""
        return None

    # --- serialization --------------------------------------------------

    def params(self) -> dict:
        return {}

    def to_descriptor(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


class PiecewiseLinear(ScalarConcave):
    """Concave piecewise-linear function from breakpoints and slopes.

    ``slopes`` has one entry per piece (non-increasing, nonnegative);
    ``breakpoints`` are the interior knots, so len(slopes) ==
    len(breakpoints) + 1.  The final piece extends to infinity.  ``Cap``,
    ``Linear`` and ``NegPlusPenalty`` are parameterizations; the penalty's
    last slope is negative, so it builds its pieces past the sign check.
    """

    kind = "piecewise_linear"

    def __init__(self, breakpoints, slopes):
        for name, v in (("breakpoints", breakpoints), ("slopes", slopes)):
            if not all(isinstance(e, numbers.Real) and not isinstance(e, bool) and math.isfinite(e)
                       for e in np.asarray(v, dtype=object).ravel()):
                raise ValueError(f"piecewise_linear: {name} must be finite numbers, got {v!r}")
        if np.any(np.asarray(slopes, dtype=float) < 0):
            raise ValueError("piecewise_linear: slopes must be nonnegative")
        self._set_pieces(breakpoints, slopes)

    def _set_pieces(self, breakpoints, slopes):
        b = np.asarray(breakpoints, dtype=float)
        s = np.asarray(slopes, dtype=float)
        if s.ndim != 1 or b.ndim != 1 or len(s) != len(b) + 1:
            raise ValueError("piecewise_linear: need len(slopes) == len(breakpoints) + 1")
        if len(b) and (np.any(np.diff(b) <= 0) or b[0] <= 0):
            raise ValueError("piecewise_linear: breakpoints must be increasing and > 0")
        if np.any(np.diff(s) > 1e-15):
            raise ValueError("piecewise_linear: slopes must be non-increasing (concavity)")
        # Merge consecutive equal slopes so the conjugate swap is clean.
        keep = np.concatenate(([True], np.diff(s) < -1e-15))
        self.s = s[keep]
        self.b = b[keep[1:]]
        self.monotone = bool(self.s[-1] >= 0)
        self._knots = np.concatenate(([0.0], self.b))          # piece start points
        self._vals = np.concatenate(([0.0], np.cumsum(self.s[:-1] * np.diff(self._knots))))
        self._ends = np.concatenate((self._knots, [np.inf]))   # [k]: end of the first k pieces
        # (slope, start, value at start) as Python floats for conj1
        self._pieces = list(zip(self.s.tolist(), self._knots.tolist(), self._vals.tolist()))

    def value(self, u):
        a = _nonneg(u)
        idx = np.searchsorted(self.b, a, side="right")
        out = self._vals[idx] + self.s[idx] * (a - self._knots[idx])
        return _maybe_scalar(u, out)

    def conjugate(self, y):
        a = _as_array(y)
        # j counts pieces with slope strictly above y; the infimum is
        # attained at the knot where the slope crosses y.
        j = np.minimum(np.searchsorted(-self.s, -a, side="left"), len(self.b))
        out = a * self._knots[j] - self._vals[j]
        out = np.where(a < self.s[-1], -np.inf, out)
        return _maybe_scalar(y, out)

    def conj1(self, y):
        if y < self._pieces[-1][0]:
            return -math.inf
        for s, knot, val in self._pieces:
            if s <= y:
                break
        return y * knot - val

    def conj1_slope(self, y):
        for s, knot, _ in self._pieces:
            if s <= y:
                return knot
        return math.inf

    def deriv_right(self, u):
        a = _as_array(u)
        return _maybe_scalar(u, self.s[np.searchsorted(self.b, a, side="right")])

    def deriv_left(self, u):
        a = _as_array(u)
        return _maybe_scalar(u, self.s[np.searchsorted(self.b, a, side="left")])

    def slope0(self):
        return float(self.s[0])

    def conj_dom_lo(self):
        return float(self.s[-1])

    def plateau_u(self):
        return float(self._knots[-1]) if self.s[-1] == 0.0 else None

    def deriv_inv_hi(self, v):
        a = _as_array(v)
        cnt = np.searchsorted(-self.s, -a, side="right")   # pieces with slope >= v
        return _maybe_scalar(v, self._ends[cnt])

    def deriv_inv_lo(self, v):
        a = _as_array(v)
        cnt = np.searchsorted(-self.s, -a, side="left")    # pieces with slope > v
        return _maybe_scalar(v, self._ends[cnt])

    def alpha_exact(self):
        if not len(self.b):
            return 0.0
        return -1.0 if self.s[-1] == 0.0 else None

    def params(self):
        return {"breakpoints": self.b.tolist(), "slopes": self.s.tolist()}


class Cap(PiecewiseLinear):
    """u -> scale * min(u, 1), the budgeted linear reward."""

    kind = "cap"

    def __init__(self, scale: float = 1.0):
        check_positive(self.kind, scale=scale)
        self.scale = float(scale)
        super().__init__([1.0], [self.scale, 0.0])

    def params(self):
        return {"scale": self.scale}


class Linear(PiecewiseLinear):
    """u -> slope * u; the neutral element of the ratio calculus."""

    kind = "linear"

    def __init__(self, slope: float = 1.0):
        check_positive(self.kind, slope=slope)
        self.slope = float(slope)
        super().__init__([], [self.slope])

    def params(self):
        return {"slope": self.slope}


class NegPlusPenalty(PiecewiseLinear):
    """u -> -l * (u - b)_+, the exact budget penalty (non-monotone).

    The budget is the single breakpoint, ``self.b[0]``.
    """

    kind = "neg_plus_penalty"

    def __init__(self, l: float, b: float = 1.0):
        check_positive("neg_plus_penalty", l=l, b=b)
        self.l = float(l)
        self._set_pieces([b], [0.0, -self.l])

    def params(self):
        return {"l": self.l, "b": float(self.b[0])}


class Log1p(ScalarConcave):
    """u -> log(1 + u)."""

    kind = "log1p"

    def value(self, u):
        return _maybe_scalar(u, np.log1p(_nonneg(u)))

    def conjugate(self, y):
        a = _as_array(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = 1.0 - a + np.log(a)
        out = np.where(a >= 1.0, 0.0, np.where(a > 0, mid, -np.inf))
        return _maybe_scalar(y, out)

    def conj1(self, y):
        if y >= 1.0:
            return 0.0
        if y <= 0.0:
            return -math.inf
        return 1.0 - y + math.log(y)

    def conj1_slope(self, y):
        return max(1.0 / max(y, 1e-300) - 1.0, 0.0) if y > 0 else math.inf

    def deriv_right(self, u):
        return _maybe_scalar(u, 1.0 / (1.0 + _as_array(u)))

    deriv_left = deriv_right

    def slope0(self):
        return 1.0

    def conj_dom_lo(self):
        return 0.0  # open endpoint: conjugate(0) is -inf

    def deriv_inv_hi(self, v):
        a = _as_array(v)
        with np.errstate(divide="ignore"):
            out = np.where(a <= 0, np.inf, np.maximum(1.0 / np.maximum(a, 1e-300) - 1.0, 0.0))
        return _maybe_scalar(v, out)

    deriv_inv_lo = deriv_inv_hi


class Power(ScalarConcave):
    """u -> u**p with p in (0, 1)."""

    kind = "power"

    def __init__(self, p: float):
        check_positive(self.kind, p=p)
        if not 0.0 < p < 1.0:
            raise ValueError("power: p must lie in (0, 1)")
        self.p = float(p)

    def value(self, u):
        return _maybe_scalar(u, _nonneg(u) ** self.p)

    def conjugate(self, y):
        a = _as_array(y)
        p = self.p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ustar = (p / np.maximum(a, 1e-300)) ** (1.0 / (1.0 - p))
            out = np.where(a > 0, a * ustar - ustar ** p, -np.inf)
        return _maybe_scalar(y, out)

    def conj1(self, y):
        if y <= 0:
            return -math.inf
        ustar = (self.p / y) ** (1.0 / (1.0 - self.p))
        return y * ustar - ustar ** self.p

    def conj1_slope(self, y):
        if y <= 0:
            return math.inf
        try:
            return (self.p / max(y, 1e-300)) ** (1.0 / (1.0 - self.p))
        except OverflowError:
            return math.inf

    def deriv_right(self, u):
        a = _as_array(u)
        with np.errstate(divide="ignore"):
            out = np.where(a > 0, self.p * np.maximum(a, 1e-300) ** (self.p - 1.0), np.inf)
        return _maybe_scalar(u, np.minimum(out, SLOPE_CAP))

    deriv_left = deriv_right

    def slope0(self):
        return math.inf

    def conj_dom_lo(self):
        return 0.0

    def deriv_inv_hi(self, v):
        a = _as_array(v)
        with np.errstate(over="ignore"):
            out = np.where(a <= 0, np.inf, (self.p / np.maximum(a, 1e-300)) ** (1.0 / (1.0 - self.p)))
        return _maybe_scalar(v, out)

    deriv_inv_lo = deriv_inv_hi

    def alpha_exact(self):
        return self.p - 1.0

    def params(self):
        return {"p": self.p}


class Sqrt(Power):
    """u -> sqrt(u), the parameterization Power(0.5)."""

    kind = "sqrt"

    def __init__(self):
        super().__init__(0.5)

    def params(self):
        return {}


_KINDS = {
    cls.kind: cls
    for cls in (Cap, PiecewiseLinear, Log1p, Sqrt, Power, Linear, NegPlusPenalty)
}


def from_descriptor(desc: dict) -> ScalarConcave:
    """Build a catalog member from a JSON descriptor {"kind", "params"}; ``params``
    holds the constructor's required keys and no others, whose values it checks."""
    if not (isinstance(desc, dict) and isinstance(params := desc.get("params", {}), dict)):
        raise ValueError("a scalar descriptor and its params must be JSON objects")
    if not (isinstance(kind := desc.get("kind"), str) and kind in _KINDS):
        raise ValueError(f"unknown scalar kind: {kind!r}")
    sig = inspect.signature(_KINDS[kind]).parameters
    for name in sorted(sig.keys() | params.keys()):
        if name not in sig or name not in params and sig[name].default is sig[name].empty:
            raise ValueError(f"{kind}: {name} is {'missing' if name in sig else 'not a parameter'}")
    return _KINDS[kind](**params)


def alpha_at(f: ScalarConcave, u: float) -> float:
    """conj(y)/value(u) minimized over supergradients y at u; needs value(u) > 0."""
    val = float(f.value(u))
    if val <= 0:
        raise ValueError(f"alpha_at: value({u}) = {val} <= 0, ratio undefined")
    # conj is non-decreasing, so the infimum over the supergradient
    # interval sits at its lower endpoint.
    return float(f.conjugate(f.supergrad(u).lo)) / val


def alpha_bar(f: ScalarConcave, u_max: float) -> float:
    """Infimum of alpha_at over (0, u_max]: analytic when the kind has one, else on a grid."""
    exact = f.alpha_exact()
    if exact is not None:
        return exact
    us = np.logspace(math.log10(u_max) - 8.0, math.log10(u_max), 10_000)
    if isinstance(f, PiecewiseLinear):
        us = np.unique(np.concatenate((us, f.b[f.b <= u_max])))
    vals = f.value(us)
    alphas = f.conjugate(f.deriv_right(us)) / vals
    return float(np.min(alphas[vals > 0]))
