"""smoothgreed benchmark: one closed-loop client, one process per run.

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``design``, ``orthant-stream`` and
``psd-stream``.  A run sets the workload up several times (reporting the
median set-up time), runs one warm-up pass that is not timed, then runs
passes over the workload's jobs, each job starting after the previous one
ends, until ``--seconds`` have been measured.  Every job's outputs go
through the correctness gate.

With ``--trace 0`` the result line carries the end-to-end metrics, whose
times are in reference seconds (see ``CAL_REF_S``).  With
``--trace 1`` the run times untraced passes for half the budget and traced
passes for the other half, and the result line carries the per-layer
metrics, including the tracing overhead (traced minus untraced pass time).

Human-readable lines (environment, per-job times, failed checks, every
metric with its unit and direction) come first; the last line of standard
output is one JSON object.  A full record, and the spans of a traced run,
are written under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the runs are single-client and the machine is shared, so
# more threads would add contention noise rather than speed.  Set before
# numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

# The machine's speed drifts by up to a factor of two, in stretches of
# seconds to minutes, and CPU time tracks wall time, so raw times from runs
# minutes apart differ by more than any useful bound.  Each timed job and
# set-up is therefore bracketed by a fixed calibration kernel that does not
# use the library, and the bounded times are in reference seconds:
# wall time x CAL_REF_S / (median kernel time just before and after it).
# CAL_REF_S is the kernel's median time where the benchmark was defined.
CAL_REF_S = 0.018
CAL_REPEATS = 3
_CAL_A = np.eye(120) * 2.0 + np.full((120, 120), 0.01)
_CAL_B = np.ones(120)
_CAL_X = np.linspace(0.0, 1.0, 64)
_CAL_M = np.eye(200) * 2.0 + np.full((200, 200), 0.01)
_CAL_V = np.linspace(0.0, 0.1, 200)

# name -> (unit, better); the end-to-end metrics exist on every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "seq_s": ("s", "lower"),
    "pass_share": ("share", "higher"),
    "ratio_lb_geomean": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# reported in the human-readable lines only, on the workloads they apply to
WORKLOAD_ONLY = {
    "wall_setup_s": ("s", "lower"),
    "wall_pass_s": ("s", "lower"),
    "wall_seq_s": ("s", "lower"),
    "cal_s": ("s", "lower"),
    "fail_share": ("share", "lower"),
    "sim_arrivals_per_s": ("1/s", "higher"),
    "seq_arrivals_per_s": ("1/s", "higher"),
    "adversary_true_ratio": ("ratio", "higher"),
    "beta_excess": ("ratio", "lower"),
    "beta_geomean": ("ratio", "lower"),
}

STREAM_JOBS = ("adv-plain", "adv-closed", "adv-grid", "pack-plain", "pack-k1", "pack-k3",
               "det-plain", "det-smooth", "graph-plain", "graph-smooth")
LAYERS = ("scalar", "smoothing", "objectives", "online", "instances", "cli")


def per_layer_metrics():
    """name -> (unit, better) for every per-layer metric of a traced run."""
    m = {}
    for name in ("scalar.conj1", "scalar.deriv_inv", "smoothing.design",
                 "objectives.logdet_apply"):
        m[f"{name}_calls"] = ("count", "lower")
        m[f"{name}_s"] = ("s", "lower")
    m["online.lp_solves"] = ("count", "lower")
    m["online.lp_solve_s"] = ("s", "lower")
    m["online.arrivals"] = ("count", "higher")
    m["online.saddle_residual_max"] = ("abs", "lower")
    for name in ("smoothing.verify_beta_s", "smoothing.construct_s", "objectives.construct_s",
                 "instances.gen_s", "instances.json_s", "online.certify_s",
                 "cli.certify_self_s", "cli.figures_self_s"):
        m[name] = ("s", "lower")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ("s", "lower")
    for side in ("sim", "seq"):
        m[f"online.{side}_s"] = ("s", "lower")
        m[f"online.{side}_self_s"] = ("s", "lower")
        for job in STREAM_JOBS:
            m[f"online.{side}_s.{job}"] = ("s", "lower")
            m[f"online.{side}_self_s.{job}"] = ("s", "lower")
    m["trace.overhead_s"] = ("s", "lower")
    return m


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
        "client": "closed loop, 1 client",
    }


def timed_import():
    """Wall time of importing the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import smoothgreed.cli"], env=env, check=True)
    return time.perf_counter() - t0


def calibrate():
    """Wall times of CAL_REPEATS runs of the calibration kernel: an interpreter
    loop, small numpy calls, small LAPACK solves and rank-one updates, inverses
    and a log-determinant of a 200 x 200 matrix, the mix the workloads run."""
    samples = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(50000):
            acc += (i * 0.5) % 7.0
        for _ in range(1200):
            acc += float(np.minimum(_CAL_X, 0.5).sum())
        for _ in range(8):
            acc += float(np.linalg.solve(_CAL_A, _CAL_B)[0])
        m = _CAL_M.copy()
        for _ in range(20):
            m += np.outer(_CAL_V, _CAL_V)
        for _ in range(2):
            acc += float(np.linalg.inv(m)[0, 0])
        acc += float(np.linalg.slogdet(m)[1])
        samples.append(time.perf_counter() - t0)
    return samples


def to_ref(seconds, before, after):
    return seconds * CAL_REF_S / statistics.median(before + after)


def run_pass(jobs, tracer=None):
    """Run the jobs once.  Rows of an untraced pass also carry ``ref_s``, the
    job's time in reference seconds, and ``cal``, the kernel times after it."""
    from workloads import Check, Outcome

    rows = []
    cal = calibrate() if tracer is None else None
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception:   # a failing job is counted, never aborts the run
            out = Outcome([], checks=[Check("raised", False, traceback.format_exc(limit=4))])
        row = {"job": job.name, "side": job.side, "s": time.perf_counter() - t0, "out": out}
        if tracer is None:
            after = calibrate()
            row.update(ref_s=to_ref(row["s"], cal, after), cal=after)
            cal = after
        rows.append(row)
    return rows


def run_passes(jobs, seconds, tracer=None):
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.reset()
        rows = run_pass(jobs, tracer)
        passes.append((rows, snapshot(tracer) if tracer is not None else None))
    return passes


def snapshot(tracer):
    return {"count": dict(tracer.count), "total": dict(tracer.total),
            "self": dict(tracer.self_time), "by_job": dict(tracer.by_job),
            "arrivals": tracer.arrivals, "saddle": tracer.saddle_residual_max}


def side_time(rows, side=None, key="s"):
    return sum(r[key] for r in rows if side is None or r["side"] == side)


def end_to_end(setups, passes):
    """``setups`` holds (wall seconds, reference seconds) per set-up."""
    rows = passes[-1][0]
    runs = [r for rs, _ in passes for r in rs]
    ratios = [x for r in rows for x in r["out"].ratios]
    share = sum(r["out"].passed for r in runs) / len(runs)
    m = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "pass_s": statistics.median(side_time(rs, key="ref_s") for rs, _ in passes),
        "seq_s": statistics.median(side_time(rs, "seq", "ref_s") for rs, _ in passes),
        "pass_share": share,
        "ratio_lb_geomean": (math.exp(statistics.fmean(math.log(x) for x in ratios))
                             if ratios and min(ratios) > 0 else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "wall_setup_s": statistics.median(wall for wall, _ in setups),
        "wall_pass_s": statistics.median(side_time(rs) for rs, _ in passes),
        "wall_seq_s": statistics.median(side_time(rs, "seq") for rs, _ in passes),
        "cal_s": statistics.median(c for r in runs for c in r["cal"]),
        "fail_share": 1.0 - share,
    }
    for side in ("sim", "seq"):
        arrivals = sum(r["out"].arrivals for r in rows if r["side"] == side)
        if arrivals:
            extra[f"{side}_arrivals_per_s"] = arrivals / statistics.median(
                side_time(rs, side) for rs, _ in passes)
    for r in rows:
        notes = r["out"].notes
        if r["job"] == "adv-closed" and r["side"] == "sim" and "true_ratio" in notes:
            extra["adversary_true_ratio"] = notes["true_ratio"]
        if "beta_excess" in notes:
            extra["beta_excess"] = max(extra.get("beta_excess", -math.inf), notes["beta_excess"])
    if any("beta" in r["out"].notes for r in rows) and m["ratio_lb_geomean"] > 0:
        extra["beta_geomean"] = 1.0 / m["ratio_lb_geomean"]
    return m, extra


def per_layer(setup_snap, traced, untraced_pass_s):
    def med(key, part="total"):
        return statistics.median(s[part].get(key, 0.0) for _, s in traced)

    snap = traced[0][1]
    m = {}
    for name in ("scalar.conj1", "scalar.deriv_inv", "smoothing.design", "objectives.logdet_apply"):
        m[f"{name}_calls"] = snap["count"].get(name, 0)
        m[f"{name}_s"] = med(name)
    m["online.lp_solves"] = snap["count"].get("online.lp_solve", 0)
    m["online.lp_solve_s"] = med("online.lp_solve")
    m["online.arrivals"] = snap["arrivals"]
    m["online.saddle_residual_max"] = snap["saddle"]
    m["smoothing.verify_beta_s"] = med("smoothing.verify_beta")
    for name in ("smoothing.construct", "objectives.construct", "instances.gen", "instances.json"):
        m[f"{name}_s"] = setup_snap["total"].get(name, 0.0)
    m["online.certify_s"] = med("online.certify")
    m["cli.certify_self_s"] = med("cli.certify", "self")
    m["cli.figures_self_s"] = med("cli.figures", "self")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = statistics.median(
            sum(v for k, v in s["self"].items() if k.startswith(layer + ".")) for _, s in traced)
    for side in ("sim", "seq"):
        m[f"online.{side}_s"] = med(f"online.{side}")
        m[f"online.{side}_self_s"] = med(f"online.{side}", "self")
        for job in STREAM_JOBS:
            for kind, idx in (("s", 0), ("self_s", 1)):
                m[f"online.{side}_{kind}.{job}"] = statistics.median(
                    s["by_job"].get((f"online.{side}", job), (0.0, 0.0))[idx] for _, s in traced)
    m["trace.overhead_s"] = statistics.median(side_time(rs) for rs, _ in traced) - untraced_pass_s
    repeat = all(s["count"] == snap["count"] and s["arrivals"] == snap["arrivals"] for _, s in traced)
    return m, repeat


def describe(rows):
    lines = []
    for r in rows:
        out = r["out"]
        bad = [f"{c.name}{' (verdict)' if c.verdict else ''}: {c.detail}" for c in out.checks if not c.ok]
        status = "ok" if not bad else "FAILED " + "; ".join(bad)
        lines.append(f"job {r['job']:<12} {r['side']}  {r['s']:.4f} s  {status}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "smoothgreed" / "__init__.py").is_file():
        print(f"bench: no smoothgreed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans as tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}",
              file=sys.stderr)
        return 2
    build = workloads.BUILDERS[args.workload]
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setups, cal = [], calibrate()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            imp = timed_import()
            jobs = build(args.seed, workdir)
            wall, after = time.perf_counter() - t0, calibrate()
            setups.append((wall, to_ref(wall, cal, after)))
            cal = after
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            with tracing.Patches(tracer):
                jobs = build(args.seed, workdir)
            setup_snap = snapshot(tracer)
        warm = run_pass(jobs)
        if tracer is None:
            passes = run_passes(jobs, args.seconds)
        else:
            # alternate untraced and traced passes so that drift in the
            # machine's speed does not land on one side of the overhead
            passes, traced = [], []
            t0 = time.perf_counter()
            while not traced or time.perf_counter() - t0 < args.seconds:
                passes += run_passes(jobs, 0)
                with tracing.Patches(tracer):
                    traced += run_passes(jobs, 0, tracer)
            tracer.write(OUT / f"{tag}-spans.jsonl")
        all_rows = warm + [r for rs, _ in passes for r in rs]
        if tracer:
            all_rows += [r for rs, _ in traced for r in rs]

    metrics, extra = end_to_end(setups, passes)
    record = {"env": env, "import_s": imp, "setups_s": setups,
              "passes": [[{k: r[k] for k in ("job", "side", "s", "ref_s")} for r in rs] for rs, _ in passes]}
    table = {k: (metrics[k], *END_TO_END[k]) for k in END_TO_END}
    table.update({k: (v, *WORKLOAD_ONLY[k]) for k, v in extra.items()})
    repeat = True
    if tracer:
        layer, repeat = per_layer(setup_snap, traced, extra["wall_pass_s"])
        units = per_layer_metrics()
        table.update({k: (layer[k], *units[k]) for k in units})
        record["traced_passes"] = [[{k: r[k] for k in ("job", "side", "s")} for r in rs] for rs, _ in traced]
        record["counts_repeat"] = repeat

    for k, v in env.items():
        print(f"env {k}: {v}")
    print(f"passes: {len(passes)} measured after 1 warm-up" + (f", {len(traced)} traced" if tracer else ""))
    for line in describe(passes[-1][0]):
        print(line)
    for k, (v, unit, better) in table.items():
        if v or k.count(".") < 2:   # per-job lines only for this workload's jobs
            print(f"metric {k} = {v:.6g} {unit} ({better} is better)")
    if tracer and not repeat:
        print("traced counts differ between passes")

    sound = [r["out"].sound for r in all_rows]
    measured = [r for rs, _ in (traced if tracer else passes) for r in rs]
    record["metrics"] = {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in table.items()}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    keys = per_layer_metrics() if tracer else END_TO_END
    result = {
        "correct": all(sound) and repeat,
        "attempted": len(measured),
        "failed": sum(not r["out"].sound for r in measured),
        "metrics": {k: {"value": table[k][0], "unit": table[k][1]} for k in keys},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
