"""Objectives over the nonnegative orthant and the PSD cone.

Holds the step data model (linear maps into the cone plus compact feasible
sets), support functions, dual-objective evaluation, the lp-ball distance
penalty with its subgradients, and the rank-one determinant state used by
the online engines.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from smoothgreed.scalar import NegPlusPenalty, check_positive

# ----------------------------------------------------------------------
# Feasible sets and step maps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleSet:
    """Compact convex set containing 0: simplex or unit interval."""

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("simplex", "unit_interval"):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")
        if self.kind == "unit_interval" and self.k != 1:
            raise ValueError("unit_interval is one-dimensional")

    def support(self, z):
        """max over the set of <x, z>, with a maximizing point.

        Ties toward the origin, then toward the lowest vertex index, so
        runs are reproducible.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if len(z) != self.k:
            raise ValueError(f"support: dim mismatch ({len(z)} != {self.k})")
        x = np.zeros(self.k)
        if self.kind == "simplex":
            j = int(np.argmax(z))
            if z[j] > 0.0:
                x[j] = 1.0
                return float(z[j]), x
            return 0.0, x
        if z[0] > 0.0:
            return float(z[0]), np.ones(1)
        return 0.0, x

    def to_descriptor(self):
        return {"kind": self.kind, "k": self.k}


@dataclass(frozen=True)
class DiagMap:
    """x -> diag(a) x; the budgeted-allocation step shape."""

    a: np.ndarray

    def apply(self, x):
        return self.a * x

    def adjoint(self, y):
        return self.a * y

    def to_descriptor(self):
        return {"kind": "diag", "a": np.asarray(self.a).tolist()}


@dataclass(frozen=True)
class StackedMap:
    """x -> (c^T x, B x); reward plus consumption for packing steps."""

    c: np.ndarray
    B: np.ndarray

    def apply(self, x):
        return np.concatenate(([float(self.c @ x)], self.B @ x))

    def adjoint(self, y):
        return self.c * y[0] + self.B.T @ y[1:]

    def to_descriptor(self):
        return {"kind": "stacked", "c": np.asarray(self.c).tolist(),
                "B": np.asarray(self.B).tolist()}


@dataclass(frozen=True)
class RankOneMap:
    """x -> (x * a a^T, x); the determinant-maximization step shape."""

    a: np.ndarray

    def apply(self, x):
        return float(x)

    def to_descriptor(self):
        return {"kind": "rank_one", "a": np.asarray(self.a).tolist()}


@dataclass(frozen=True)
class Step:
    A: object
    F: FeasibleSet

    def to_descriptor(self):
        return {"A": self.A.to_descriptor(), "F": self.F.to_descriptor()}


def step_from_descriptor(d: dict) -> Step:
    a = d["A"]
    if a["kind"] == "diag":
        A = DiagMap(np.asarray(a["a"], dtype=float))
    elif a["kind"] == "stacked":
        A = StackedMap(np.asarray(a["c"], dtype=float), np.asarray(a["B"], dtype=float))
    elif a["kind"] == "rank_one":
        A = RankOneMap(np.asarray(a["a"], dtype=float))
    else:
        raise ValueError(f"unknown step map kind {a['kind']!r}")
    f = d["F"]
    return Step(A, FeasibleSet(f["kind"], f.get("k", 1)))


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------


class SeparableObjective:
    """Coordinatewise sum of scalar concave functions on the orthant.

    ``smoothed`` optionally supplies surrogate coordinates.  ``engine`` is
    the objective the engines decide on: the same class over the surrogate,
    or ``self`` when nothing is smoothed.  The object itself defines primal
    values and dual certificates.
    """

    cone = "orthant"

    def __init__(self, coords, smoothed=None, certified_beta=None):
        self.coords = list(coords)
        self.n = len(self.coords)
        self.certified_beta = certified_beta
        self._uniform = all(c is self.coords[0] for c in self.coords)
        if smoothed is not None and not isinstance(smoothed, (list, tuple)):
            smoothed = [smoothed] * self.n
        self.engine = self if smoothed is None else SeparableObjective(smoothed)

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self._uniform:
            return float(np.sum(self.coords[0].value(u)))
        return float(sum(c.value(ui) for c, ui in zip(self.coords, u)))

    def grad_lo(self, u):
        """Minimal supergradient, coordinatewise."""
        u = np.asarray(u, dtype=float)
        if self._uniform:
            return np.asarray(self.coords[0].deriv_right(u), dtype=float)
        return np.array([float(c.deriv_right(ui)) for c, ui in zip(self.coords, u)])

    def conj(self, y):
        y = np.asarray(y, dtype=float)
        if self._uniform:
            return float(np.sum(self.coords[0].conjugate(y)))
        return float(sum(c.conjugate(float(yi)) for c, yi in zip(self.coords, y)))

    def alpha_bar(self, u_max: float = 1e4) -> float:
        from smoothgreed.scalar import alpha_bar as ab
        return min(ab(c, u_max) for c in self.coords)

    def ratio_bound(self) -> float:
        """Certified competitive-ratio lower bound for the simultaneous engine."""
        if self.engine is not self:
            if self.certified_beta is None:
                raise ValueError("smoothed objective without a certified beta")
            return 1.0 / self.certified_beta
        return 1.0 / (1.0 - self.alpha_bar())


def _twin(obj, pen):
    """Shallow copy of ``obj`` with the penalty ``pen``, its own engine."""
    twin = copy.copy(obj)
    twin.pen = pen
    twin.engine = twin
    return twin


class PenaltyLPObjective:
    """Linear reward plus an exact budget penalty on the orthant.

    State vectors are laid out as (v, u_1..u_n): the accumulated reward
    followed by the consumption coordinates.  ``penalty_kind`` is either
    "separable_cap" (one hinge per coordinate) or "lp_ball" (the l1
    distance from the p-norm ball).  ``pen`` is the hinge; ``engine`` swaps
    in ``smoothed_penalty`` when one is given.
    """

    cone = "orthant"

    def __init__(self, n, l, theta, penalty_kind="separable_cap", p=None,
                 smoothed_penalty=None):
        check_positive("PenaltyLPObjective", l=l, theta=theta)
        self.n = int(n)
        self.l = float(l)
        self.theta = float(theta)
        self.penalty_kind = penalty_kind
        if penalty_kind == "lp_ball":
            if p is None or p < 1:
                raise ValueError("lp_ball penalty needs p >= 1")
            if smoothed_penalty is not None:
                raise ValueError("smoothing is only wired for the separable penalty")
        elif penalty_kind != "separable_cap":
            raise ValueError(f"unknown penalty kind {penalty_kind!r}")
        self.p = p
        self.pen = NegPlusPenalty(self.l, 1.0)
        self.smoothed_penalty = smoothed_penalty
        self.engine = self if smoothed_penalty is None else _twin(self, smoothed_penalty)

    def penalty_value(self, u):
        u = np.asarray(u, dtype=float)
        if self.penalty_kind == "separable_cap":
            return float(np.sum(self.pen.value(u)))
        return -self.l * lp_ball_distance(u, self.p)[0]

    def value(self, state):
        return float(state[0]) + self.penalty_value(state[1:])

    def grad_lo(self, state):
        """Minimal supergradient (1, dG)."""
        u = np.asarray(state[1:], dtype=float)
        if self.penalty_kind == "separable_cap":
            g = np.asarray(self.pen.deriv_right(u), dtype=float)
        else:
            g = -self.l * lp_ball_distance(u, self.p)[2]
        return np.concatenate(([1.0], g))

    def conj(self, y):
        y = np.asarray(y, dtype=float)
        if y[0] < 1.0 - 1e-12:
            return -math.inf
        pen = y[1:]
        if self.penalty_kind == "separable_cap":
            return float(np.sum(self.pen.conjugate(pen)))
        if np.min(pen) < -self.l - 1e-12:
            return -math.inf
        q = math.inf if self.p == 1 else (self.p / (self.p - 1.0) if self.p != math.inf else 1.0)
        neg = np.maximum(-pen, 0.0)
        nrm = float(np.max(neg)) if q == math.inf else float(np.sum(neg ** q) ** (1.0 / q))
        return -nrm

    def alpha_at_realized(self, state) -> float:
        """Ratio parameter at the realized point; lower-bounded by -l/theta."""
        val = self.value(state)
        if val <= 0:
            raise ValueError("alpha_at_realized: nonpositive objective value")
        return self.conj(self.grad_lo(state)) / val

    def ratio_bound(self) -> float:
        """Certified competitive-ratio lower bound for the simultaneous engine."""
        return 1.0 / (1.0 + self.l / self.theta)


class LogDetObjective:
    """Shifted determinant objective with a budget penalty on the PSD cone.

    The reward part is logdet(A0 + U) - logdet(A0); the budget consumption
    is scalar and carries the penalty ``pen`` = -l*(u - b)_+; ``engine``
    swaps in ``smoothed_budget`` when one is given.
    The penalty slope must dominate the dual variable, which holds when
    l > 2 / lambda_min(A0).
    """

    cone = "psd"

    def __init__(self, A0, b, l=None, smoothed_budget=None):
        A0 = np.asarray(A0, dtype=float)
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise ValueError("LogDetObjective: A0 must be square")
        if not np.isfinite(A0).all():
            raise ValueError("LogDetObjective: A0 entries must be finite")
        check_positive("LogDetObjective", b=b)
        if l is not None:
            check_positive("LogDetObjective", l=l)
        if not np.allclose(A0, A0.T, atol=1e-10):
            raise ValueError("LogDetObjective: A0 must be symmetric")
        lam_min = float(np.linalg.eigvalsh(A0)[0])
        if lam_min <= 0:
            raise ValueError("LogDetObjective: A0 must be positive definite")
        self.A0 = A0
        self.n = A0.shape[0]
        self.b = float(b)
        self.l_floor = 2.0 / lam_min
        self.l = float(l) if l is not None else self.l_floor * (1.0 + 1e-6)
        if self.l <= self.l_floor:
            raise ValueError(f"LogDetObjective: need l > {self.l_floor:.6g}")
        self.pen = NegPlusPenalty(self.l, self.b)
        self.theta = math.log1p(1.0 / self.n)
        sign, self._logdet_A0 = np.linalg.slogdet(A0)
        if sign <= 0:
            raise ValueError("LogDetObjective: A0 has nonpositive determinant")
        self.engine = self if smoothed_budget is None else _twin(self, smoothed_budget)

    def reward(self, U):
        sign, ld = np.linalg.slogdet(self.A0 + U)
        if sign <= 0:
            raise ValueError("LogDetObjective: state left the PSD cone")
        return float(ld - self._logdet_A0)

    def value(self, U, used):
        return self.reward(U) + float(self.pen.value(used))

    def hstar(self, Y):
        """Conjugate of the shifted reward at a dual matrix 0 < Y <= A0^-1."""
        sign, ld = np.linalg.slogdet(Y)
        if sign <= 0:
            return -math.inf
        return float(self.n - np.trace(Y @ self.A0) + ld + self._logdet_A0)

    def conj(self, dual):
        Y, yb = dual
        return self.hstar(Y) + float(self.pen.conjugate(float(yb)))

    def ratio_bound(self) -> float:
        # unsmoothed, 0.5: the determinant reward has ratio parameter -1
        return getattr(self.engine.pen, "ratio_bound", 0.5)


# ----------------------------------------------------------------------
# Support machinery
# ----------------------------------------------------------------------


def dual_objective(obj, steps, y) -> float:
    """sum_t support(F_t, A_t^T y) - conj(y); upper-bounds the offline optimum."""
    conj = obj.conj(y)
    if conj == -math.inf:
        return math.inf
    total = 0.0
    for st in steps:
        if isinstance(st.A, RankOneMap):
            Y, yb = y
            z = float(st.A.a @ Y @ st.A.a) + float(yb)
            total += st.F.support([z])[0]
        else:
            total += st.F.support(st.A.adjoint(np.asarray(y, dtype=float)))[0]
    return total - conj


def lp_ball_distance(u, p):
    """l1 distance from the p-norm ball over the orthant, with subgradients.

    Returns (value, sub_lo, sub_hi); the closest ball point clips every
    coordinate at a common level r chosen so the clipped vector has unit
    p-norm.  The subgradient is an interval only when the level equals the
    largest coordinate, which happens exactly on the ball boundary.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-12):
        raise ValueError("lp_ball_distance: u must be nonnegative")
    u = np.maximum(u, 0.0)
    zeros = np.zeros_like(u)
    if p == math.inf:
        val = float(np.sum(np.maximum(u - 1.0, 0.0)))
        if val == 0.0 and not np.any(u >= 1.0):
            return 0.0, zeros, zeros
        return val, (u > 1.0).astype(float), (u >= 1.0).astype(float)
    if p < 1:
        raise ValueError("lp_ball_distance: p must be >= 1")
    norm = float(np.sum(u ** p) ** (1.0 / p))
    if norm <= 1.0:
        return 0.0, zeros, zeros
    hi = float(np.max(u))
    lo = 0.0
    for _ in range(200):
        r = 0.5 * (lo + hi)
        if float(np.sum(np.minimum(u, r) ** p)) >= 1.0:
            hi = r
        else:
            lo = r
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    r = hi
    clipped = np.minimum(u, r)
    val = float(np.sum(u - clipped))
    g = (clipped / r) ** (p - 1.0)
    if r >= float(np.max(u)) * (1.0 - 1e-10):
        return val, zeros, g
    return val, g, g


def theta_of_instance(steps) -> float:
    """Worst-case reward per unit of total consumption over step vertices."""
    best = math.inf
    for st in steps:
        if isinstance(st.A, StackedMap):
            c, B = st.A.c, st.A.B
            den = B.sum(axis=0)
            for j in range(len(c)):
                if den[j] > 0:
                    best = min(best, float(c[j] / den[j]))
        elif isinstance(st.A, DiagMap):
            if np.any(st.A.a > 0):
                best = min(best, 1.0)
        else:
            raise ValueError("theta_of_instance: expects orthant steps")
    if best is math.inf:
        raise ValueError("theta_of_instance: no step consumes anything")
    return best


def l_bound_lp(steps, eps: float = 1e-6) -> float:
    """Penalty slope strictly dominating every optimal dual variable."""
    worst = 0.0
    for st in steps:
        if isinstance(st.A, StackedMap):
            c, B = st.A.c, st.A.B
            mask = B > 0
            if mask.any():
                ratios = np.broadcast_to(c, B.shape)[mask] / B[mask]
                worst = max(worst, float(np.max(ratios)))
        elif isinstance(st.A, DiagMap):
            if np.any(st.A.a > 0):
                worst = max(worst, 1.0)
    if worst == 0.0:
        raise ValueError("l_bound_lp: instance never consumes budget")
    return worst * (1.0 + eps)


# ----------------------------------------------------------------------
# Rank-one determinant state
# ----------------------------------------------------------------------


REFACTOR_EVERY = 128   # accepted updates between refactorizations
DRIFT_TOL = 1e-6       # max |Y @ Asum - I| entry before an early refactorization


class LogDetState:
    """Maintains (A0 + sum_t x_t a_t a_t^T)^{-1} through rank-one updates.

    Refactorizes every ``REFACTOR_EVERY`` accepted updates or when the
    inverse drifts past ``DRIFT_TOL``; keeps the dense accumulator for
    drift checks.
    """

    def __init__(self, A0):
        self.A0 = np.asarray(A0, dtype=float)
        self.Asum = self.A0.copy()
        self.Y = np.linalg.inv(self.A0)
        self.updates_since_refactor = 0

    def quad(self, a) -> float:
        return float(a @ self.Y @ a)

    def drift(self) -> float:
        return float(np.max(np.abs(self.Y @ self.Asum - np.eye(len(self.A0)))))

    def apply(self, a, x: float, q: float | None = None):
        """Add x * a a^T; ``q`` is the step's a^T Y a when the caller has it."""
        if x == 0.0:
            return
        if q is None:
            q = self.quad(a)
        if 1.0 + x * q <= 0:
            raise FloatingPointError("LogDetState: update would leave the PSD cone")
        Ya = self.Y @ a
        self.Y -= np.outer(Ya, Ya) * (x / (1.0 + x * q))
        self.Asum += x * np.outer(a, a)
        self.updates_since_refactor += 1
        if self.updates_since_refactor >= REFACTOR_EVERY or self.drift() > DRIFT_TOL:
            self.Y = np.linalg.inv(self.Asum)
            self.updates_since_refactor = 0

    @property
    def U(self):
        return self.Asum - self.A0


def logdet_step_gain(state: LogDetState, a, x: float, q: float | None = None) -> float:
    """log-determinant gain of adding x * a a^T, via the rank-one identity.

    ``q`` is the step's a^T Y a when the caller has it.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("logdet_step_gain: x must lie in [0, 1]")
    return math.log1p((state.quad(a) if q is None else q) * x)
