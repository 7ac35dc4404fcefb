"""Objectives over the nonnegative orthant and the PSD cone.

Holds the step data model (linear maps into the cone plus compact feasible
sets), support functions, dual-objective evaluation, and the rank-one
determinant state used by the online engines.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from smoothgreed.scalar import NegPlusPenalty, alpha_bar, check_positive

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


def coordwise(coords, uniform, method, u):
    """Apply one scalar method coordinatewise; a single call when shared."""
    if uniform:
        return np.asarray(getattr(coords[0], method)(u), dtype=float)
    return np.array([float(getattr(f, method)(ui)) for f, ui in zip(coords, u)])


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
        return float(np.sum(coordwise(self.coords, self._uniform, "value", u)))

    def row_values(self, U):
        """``value`` of each row of the states U, bit for bit: one pass on shared
        coordinates; mixed ones go by scalars, as numpy's scalar pow can round
        apart from its vectorized one."""
        if self._uniform:
            return np.sum(np.asarray(self.coords[0].value(U), dtype=float), axis=1)
        return np.array([np.sum(coordwise(self.coords, False, "value", u)) for u in U])

    def grad_lo(self, u):
        """Minimal supergradient, coordinatewise."""
        u = np.asarray(u, dtype=float)
        return coordwise(self.coords, self._uniform, "deriv_right", u)

    def conj(self, y):
        y = np.asarray(y, dtype=float)
        return float(np.sum(coordwise(self.coords, self._uniform, "conjugate", y)))

    def ratio_bound(self) -> float:
        """Certified ratio floor of the simultaneous engine: 1/beta, or 1/(1 - alpha_bar)."""
        if self.engine is not self:
            if self.certified_beta is None:
                raise ValueError("smoothed objective without a certified beta")
            return 1.0 / self.certified_beta
        return 1.0 / (1.0 - min(alpha_bar(c, 1e4) for c in self.coords))


def _twin(obj, pen):
    """Shallow copy of ``obj`` with the penalty ``pen``, its own engine."""
    twin = copy.copy(obj)
    twin.pen = pen
    twin.engine = twin
    return twin


class PenaltyLPObjective:
    """Linear reward plus the exact hinge budget penalty on the orthant.

    State vectors are laid out as (v, u_1..u_n): the accumulated reward
    followed by the consumption coordinates.  ``pen`` is the hinge
    -l*(u_i - 1)_+ on each coordinate; ``engine`` swaps in
    ``smoothed_penalty`` when one is given.
    """

    cone = "orthant"

    def __init__(self, n, l, theta, smoothed_penalty=None):
        check_positive("PenaltyLPObjective", l=l, theta=theta)
        self.n = int(n)
        self.l = float(l)
        self.theta = float(theta)
        self.pen = NegPlusPenalty(self.l, 1.0)
        self.smoothed_penalty = smoothed_penalty
        self.engine = self if smoothed_penalty is None else _twin(self, smoothed_penalty)

    def value(self, state):
        u = np.asarray(state[1:], dtype=float)
        return float(state[0]) + float(np.sum(self.pen.value(u)))

    def row_values(self, U):
        """``value`` of each row of the states U, bit for bit, in one pass."""
        return U[:, 0] + np.sum(self.pen.value(U[:, 1:]), axis=1)

    def grad_lo(self, state):
        """Minimal supergradient (1, dG)."""
        u = np.asarray(state[1:], dtype=float)
        g = np.asarray(self.pen.deriv_right(u), dtype=float)
        return np.concatenate(([1.0], g))

    def conj(self, y):
        y = np.asarray(y, dtype=float)
        if y[0] < 1.0 - 1e-12:
            return -math.inf
        return float(np.sum(self.pen.conjugate(y[1:])))

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
        self.lam_min = lam_min
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
        # 0.5 unless the budget smoothing certifies one (the reward's alpha is -1)
        return getattr(self.engine.pen, "ratio_bound", None) or 0.5


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


L_MARGIN = 1e-6    # relative margin of l_bound_lp over the largest dual variable


def l_bound_lp(steps) -> float:
    """Penalty slope strictly dominating every optimal dual variable, by L_MARGIN."""
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
    return worst * (1.0 + L_MARGIN)


# ----------------------------------------------------------------------
# Rank-one determinant state
# ----------------------------------------------------------------------


PROBE_TOL = 1e-9   # certified relative error of every a^T Asum^{-1} a read off Y


class LogDetState:
    """Maintains Y ~ Asum^{-1}, Asum = A0 + sum_t x_t a_t a_t^T, by rank-one
    (Sherman-Morrison) updates, and certifies every q = a^T Asum^{-1} a read.

    ``quad(a)`` takes q^ = a^T Y a with the O(n^2) residual r = Asum Y a - a.
    Since Asum^{-1} a = Y a - Asum^{-1} r and Asum >= A0 (every x_t >= 0),
    |q^ - q| = |a^T Asum^{-1} r| <= sqrt(q) ||r|| / sqrt(lambda_min(A0)).
    q^ is accepted only when ||r||^2 <= PROBE_TOL^2 q^ lam_lo, with
    lam_lo <= lambda_min(A0), so |q^ - q| <= PROBE_TOL sqrt(q q^): a
    relative error of at most PROBE_TOL (1 + PROBE_TOL), up to the rounding
    of the residual product itself (order n eps ||Asum|| ||Y a||).  A failed
    probe refactorizes Y = inv(Asum) once; a fresh inverse that still
    fails raises FloatingPointError, so an uncertified q is never returned.

    ``lam_min`` is the computed lambda_min(A0) (from ``eigvalsh`` when
    omitted); ``eigvalsh`` is backward stable, so deflating it by
    4 n eps ||A0||_F gives ``lam_lo``, a lower bound on the exact one.

    ``quad`` keeps its last a, Y a and q, and ``apply`` reuses that Y a when
    handed the same array before Y has changed (Y changes only through
    ``apply`` and a refactorization in ``quad``), unless a^T (Y a) no longer
    reproduces q: the array was changed in place.
    """

    def __init__(self, A0, lam_min: float | None = None):
        self.A0 = np.asarray(A0, dtype=float)
        if lam_min is None:
            lam_min = float(np.linalg.eigvalsh(self.A0)[0])
        n = len(self.A0)
        self.lam_lo = lam_min - 4.0 * n * np.finfo(float).eps * float(np.linalg.norm(self.A0))
        if not self.lam_lo > 0.0:
            raise ValueError("LogDetState: A0 must be positive definite")
        self.Asum = self.A0.copy()
        self.Y = np.linalg.inv(self.A0)
        self._buf = np.empty_like(self.Y)   # rank-one update scratch
        self._last = None                   # (a, Y a, q) of the last quad under this Y
        self.refactors = 0

    def quad(self, a) -> float:
        """a^T Asum^{-1} a, within PROBE_TOL relative (see the class docstring)."""
        for fresh in (False, True):
            Ya = self.Y @ a
            q = float(a @ Ya)
            r = self.Asum @ Ya - a
            if float(r @ r) <= PROBE_TOL * PROBE_TOL * q * self.lam_lo:
                self._last = (a, Ya, q)
                return q
            if fresh:
                raise FloatingPointError(
                    "LogDetState: a fresh inverse fails the residual probe (Asum too "
                    f"ill-conditioned, condition number {np.linalg.cond(self.Asum):.3g})")
            self.Y = np.linalg.inv(self.Asum)
            self.refactors += 1

    def apply(self, a, x: float, q: float | None = None):
        """Add x * a a^T; ``q`` is the step's a^T Y a when the caller has it."""
        if x < 0.0:
            raise ValueError("LogDetState: x must be nonnegative (the probe needs Asum >= A0)")
        if x == 0.0:
            return
        if q is None:
            q = self.quad(a)
        if 1.0 + x * q <= 0:
            raise FloatingPointError("LogDetState: update would leave the PSD cone")
        buf = self._buf
        last = self._last
        if last is not None and last[0] is a and float(a @ last[1]) == last[2]:
            Ya = last[1]
        else:
            Ya = self.Y @ a
        np.outer(Ya, Ya, out=buf)
        buf *= x / (1.0 + x * q)
        self.Y -= buf
        self._last = None
        np.outer(a, a, out=buf)
        buf *= x
        self.Asum += buf

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
