"""Deterministic generators and persistence for the three problem families.

All randomness flows through counter-based Philox streams keyed by the
instance seed, so identical parameters give bit-identical instances on any
platform.  Instances round-trip through JSON exactly: step arrays are
written as base64 binary64 blobs (``objectives.encode_array``), the
extras' floats with shortest round-trip repr.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from smoothgreed.objectives import (
    DiagMap,
    FeasibleSet,
    RankOneMap,
    StackedMap,
    Step,
    l_bound_lp,
    step_from_descriptor,
    theta_of_instance,
)
from smoothgreed.scalar import check_positive

SCHEMA_VERSION = "v3"
_READABLE = ("v1", "v2", SCHEMA_VERSION)
_ENCODE = json.JSONEncoder(allow_nan=False).encode   # json.dumps would build one per step


@dataclass
class Instance:
    """A problem family's parameters, step stream and attached extras.

    A run of one ``Step`` object is written once, with ``"repeat": r``
    (omitted when r = 1).  Runs go by identity, not equality, so equal
    steps held as distinct objects stay distinct entries; the loader shares
    one object across a run's r steps.  Schema v3 writes each step array
    as ``{"shape": [...], "f64": base64}``; a plain list of numbers still
    loads, so files of schema v2 (decimal lists) and v1 (decimal lists, no
    ``repeat``) load as before.
    """

    family: str
    params: dict
    steps: list
    extras: dict

    def _step_descriptors(self):
        """One descriptor per run of the same Step object."""
        for _, run in itertools.groupby(self.steps, key=id):
            run = list(run)
            d = run[0].to_descriptor()
            if len(run) > 1:
                d["repeat"] = len(run)
            yield d

    def to_jsonable(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "family": self.family,
            "params": self.params,
            "steps": list(self._step_descriptors()),
            "extras": self.extras,
        }

    def save(self, path: str):
        """Write the strict JSON of self.to_jsonable() in pieces, one per step.

        json.dump would run the pure-Python streaming encoder; _ENCODE runs
        the C one, and piecewise it never holds the whole document.  An
        error part way leaves no file (see replace_on_success).
        """
        enc = _ENCODE
        with replace_on_success(path) as (fh,):
            fh.write(f'{{"version": {enc(SCHEMA_VERSION)}, "family": {enc(self.family)}, '
                     f'"params": {enc(self.params)}, "steps": [')
            for i, d in enumerate(self._step_descriptors()):
                fh.write(", " + enc(d) if i else enc(d))
            fh.write(f'], "extras": {enc(self.extras)}}}')

    @staticmethod
    def from_jsonable(d: dict) -> "Instance":
        if not isinstance(d, dict):
            raise ValueError(f"an instance must be a JSON object, got {type(d).__name__}")
        for key, kind in (("steps", list), ("params", dict), ("extras", dict)):
            if key in d and not isinstance(d[key], kind):
                raise ValueError(f"{key} must be a {kind.__name__}, got {type(d[key]).__name__}")
        if d.get("version") not in _READABLE:
            raise ValueError(f"unsupported instance version {d.get('version')!r}")
        steps = []
        for t, desc in enumerate(d["steps"]):
            try:
                step = step_from_descriptor(desc)
            except KeyError as exc:
                raise ValueError(f"steps[{t}]: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"steps[{t}]: {exc}") from exc
            r = desc.get("repeat", 1)
            if type(r) is not int or r < 1:
                raise ValueError(f"steps[{t}]: repeat must be an integer >= 1, got {r!r}")
            steps.extend([step] * r)
        return Instance(d["family"], d["params"], steps, d.get("extras", {}))

    @staticmethod
    def load(path: str) -> "Instance":
        with open(path) as fh:
            return Instance.from_jsonable(json.load(fh))


@contextlib.contextmanager
def replace_on_success(*paths):
    """Yield text files that replace ``paths`` only once the block succeeds.

    Each is written under a temporary name beside its path and moved into
    place by os.replace after all are closed, so a reader never meets a
    partial file; on an error in the block the temporaries are removed and
    no path is touched.
    """
    tmps = [f"{p}.{os.getpid()}.tmp" for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w")) for tmp in tmps]
        for tmp, p in zip(tmps, paths):
            os.replace(tmp, p)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def gen_adwords_triangular(n: int, phase_len: int) -> Instance:
    """Worst-case budgeted-allocation family with a known offline optimum.

    n unit budgets; n phases of phase_len arrivals.  Arrivals in phase i
    bid 1/phase_len on every advertiser still present; the set of bidders
    shrinks from the back, so a greedy that breaks ties toward low indices
    exhausts exactly the budgets about to leave the market.  Assigning
    phase i to the advertiser that disappears after it saturates all n
    budgets, so the offline optimum is exactly n.
    """
    check_positive("gen_adwords_triangular", n=n, phase_len=phase_len)
    bid = 1.0 / phase_len
    steps = []
    for phase in range(n):
        a = np.zeros(n)
        a[: n - phase] = bid
        step = Step(DiagMap(a), FeasibleSet("simplex", n))
        steps.extend([step] * phase_len)
    return Instance(
        "adwords_triangular",
        {"n": n, "phase_len": phase_len},
        steps,
        {"offline_opt": float(n), "theta": 1.0, "l": 1.0, "bid": bid},
    )


def gen_lp_random(n: int, m: int, k: int, density: float, seed: int) -> Instance:
    """Random online packing stream with attached penalty parameters."""
    check_positive("gen_lp_random", n=n, m=m, k=k)
    if not 0.0 < density <= 1.0:
        raise ValueError("gen_lp_random: density must lie in (0, 1]")
    rng = _rng(seed)
    # Scale consumption so budgets bind around the stream's midpoint.
    scale = 2.0 / max(1, m)
    steps = []
    for _ in range(m):
        c = rng.uniform(0.3, 1.0, size=k)
        for _ in range(64):
            mask = rng.random(size=(n, k)) < density
            if mask.any(axis=0).all():
                break
        B = np.where(mask, rng.uniform(0.2, 1.0, size=(n, k)) * scale, 0.0)
        steps.append(Step(StackedMap(c, B), FeasibleSet("simplex", k)))
    theta = theta_of_instance(steps)
    l = l_bound_lp(steps)
    return Instance(
        "lp_random",
        {"n": n, "m": m, "k": k, "density": density, "seed": int(seed)},
        steps,
        {"theta": theta, "l": l},
    )


def gen_logdet_stream(n: int, m: int, b: float, source: str = "random_vectors",
                      seed: int = 0, edges=None) -> Instance:
    """Rank-one determinant stream: random directions or graph incidence.

    The graph source builds the base matrix from the Laplacian plus the
    all-ones rank-one term; the graph must be connected so the base is
    positive definite.  The penalty slope is set just above twice the
    reciprocal smallest eigenvalue of the base matrix.
    """
    check_positive("gen_logdet_stream", n=n, b=b)
    rng = _rng(seed)
    if source == "random_vectors":
        check_positive("gen_logdet_stream", m=m)
        A0 = np.eye(n)
        vecs = rng.normal(size=(m, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    elif source == "graph_incidence":
        if edges is None:
            raise ValueError("graph_incidence source needs an edge list")
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        L0 = np.zeros((n, n))
        base_edges = edges["base"]
        for i, j in base_edges:
            L0[i, i] += 1.0
            L0[j, j] += 1.0
            L0[i, j] -= 1.0
            L0[j, i] -= 1.0
            parent[find(i)] = find(j)
        if len({find(i) for i in range(n)}) != 1:
            raise ValueError("gen_logdet_stream: base graph must be connected")
        A0 = L0 + np.ones((n, n))
        stream = edges["stream"]
        vecs = np.zeros((len(stream), n))
        for t, (i, j) in enumerate(stream):
            vecs[t, i] = 1.0
            vecs[t, j] = -1.0
        m = len(stream)
    else:
        raise ValueError(f"unknown source {source!r}")
    lam_min = float(np.linalg.eigvalsh(A0)[0])
    l = 2.0 / lam_min * (1.0 + 1e-6)
    steps = [Step(RankOneMap(vecs[t]), FeasibleSet("unit_interval")) for t in range(m)]
    return Instance(
        "logdet_stream",
        {"n": n, "m": m, "b": float(b), "source": source, "seed": int(seed)},
        steps,
        {"A0": A0.tolist(), "l": l, "lambda_min": lam_min,
         "theta": math.log1p(1.0 / n)},
    )
