"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the library from the
outside, so the library itself carries no tracing code.  Every wrapped call
is a span with a name, a start, an end and a parent; spans stay in memory
and are written when the run ends.  Counts and busy times come from the same
wrappers.  A span's self time is its duration minus the time its direct
child spans cover.

The scalar calculus calls (``conj1``, ``deriv_inv_*``) run hundreds of
thousands of times per pass and have no children, so they are folded: each
is counted and timed into its parent span but keeps no record of its own.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

FOLDED = frozenset({"scalar.conj1", "scalar.deriv_inv"})


class Tracer:
    def __init__(self):
        self.spans = []          # (name, job, start, end, parent index)
        self.stack = []          # open frames: [name, start, child time, span index]
        self.job = "setup"       # label shared by the spans of one job
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_job = {}         # (name, job) -> (total, self) of recorded spans
        self.reset()

    def reset(self):
        """Start a fresh set of aggregates (one per pass); spans are kept."""
        for agg in (self.count, self.total, self.self_time, self.by_job):
            agg.clear()
        self.arrivals = 0
        self.saddle_residual_max = 0.0

    def enter(self, name):
        self.spans.append(None)
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def exit(self):
        end = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.spans[idx] = (name, self.job, start, end, parent[3] if parent else -1)
        tot, own = self.by_job.get((name, self.job), (0.0, 0.0))
        self.by_job[name, self.job] = (tot + dur, own + dur - child)

    def wrap(self, fn, name, after=None):
        """Return ``fn`` recorded as a span; ``name`` may be a callable of the args."""
        if name in FOLDED:
            return self._folded(fn, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(out)
            return out

        return traced

    def _folded(self, fn, name):
        count, total, own, stack = self.count, self.total, self.self_time, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def folded(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                count[name] += 1
                total[name] += dur
                own[name] += dur
                if stack:
                    stack[-1][2] += dur

        return folded

    def write(self, path):
        with open(path, "w") as fh:
            for name, job, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "job": job, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class Patches:
    """Install wrappers on the library's public entry points; undo on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self.tracer.wrap(raw.__func__, name)))
        else:
            self._set(cls, attr, self.tracer.wrap(raw, name))

    def function(self, modules, owner, attr, name, after=None):
        """Wrap ``owner.attr`` and every name in ``modules`` bound to it."""
        orig = getattr(owner, attr)
        wrapped = self.tracer.wrap(orig, name, after)
        for mod in (owner, *modules):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def __enter__(self):
        import scipy.optimize

        from smoothgreed import cli, instances, objectives, online, scalar, smoothing

        mods = (cli, instances, objectives, online, scalar, smoothing)
        tr = self.tracer
        calculus = [v for v in vars(scalar).values()
                    if isinstance(v, type) and issubclass(v, scalar.ScalarConcave)]
        for cls in calculus + [smoothing.SmoothedScalar]:
            if "conj1" in cls.__dict__:
                self.method(cls, "conj1", "scalar.conj1")
            for attr in ("deriv_inv_hi", "deriv_inv_lo"):
                if attr in cls.__dict__:
                    self.method(cls, attr, "scalar.deriv_inv")
        for attr in ("design_optimal", "design_sequential"):
            self.function(mods, smoothing, attr, "smoothing.design")
        self.function(mods, smoothing, "verify_beta", "smoothing.verify_beta")
        for attr in ("nesterov_penalty_smoothing", "nesterov_logdet_smoothing",
                     "adwords_closed_form_smoothing", "nesterov_pl_smoothing"):
            self.function(mods, smoothing, attr, "smoothing.construct")
        for cls in (objectives.SeparableObjective, objectives.PenaltyLPObjective,
                    objectives.LogDetObjective):
            self.method(cls, "__init__", "objectives.construct")
        self.method(objectives.LogDetState, "apply", "objectives.logdet_apply")

        def after_sim(trace):
            tr.arrivals += trace.m
            tr.saddle_residual_max = max(tr.saddle_residual_max, trace.saddle_residual)

        def after_seq(trace):
            tr.arrivals += trace.m

        self.function(mods, online, "run_simultaneous", "online.sim", after_sim)
        self.function(mods, online, "run_sequential", "online.seq", after_seq)
        for attr in ("certify", "duality_gap_diagnostics"):
            self.function(mods, online, attr, "online.certify")
        self.function(mods, scipy.optimize, "linprog", "online.lp_solve")
        for attr in ("gen_adwords_triangular", "gen_lp_random", "gen_logdet_stream"):
            self.function(mods, instances, attr, "instances.gen")
        self.method(instances.Instance, "save", "instances.json")
        self.method(instances.Instance, "load", "instances.json")
        self.function(mods, cli, "main", lambda args: f"cli.{args[0][0]}")
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False
