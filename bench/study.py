"""Steadiness study: run the benchmark on several seeds and report the spread.

    python3 bench/study.py --workload psd-stream --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``; ``steady`` means the spread is below a third of the
bound.  Runs are made one after another, each in its own process, with the
command and ``run_seconds`` that ``BENCHMARK.json`` names.  The values of
every run are saved to ``.bench_out/study-<workload>-trace<t>.json``.

    python3 bench/study.py --compare BEFORE.json AFTER.json

compares two saved studies of one workload: for every end-to-end metric,
how much worse the second median is than the first, as a share of the
first, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def compare(spec, before, after):
    runs = [json.loads(Path(path).read_text()) for path in (before, after)]
    print(f"{'metric':<20} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
    ok = True
    for m in spec["end_to_end"]:
        name = m["name"]
        med = [statistics.median(r["metrics"][name]["value"] for r in rs) for rs in runs]
        worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
        ok &= worse <= m["bound"]
        verdict = "within bound" if worse <= m["bound"] else "WORSE than bound"
        print(f"{name:<20} {med[0]:>12.6g} {med[1]:>12.6g} {worse:>9.4f} {m['bound']:>6} {verdict}")
    return 0 if ok else 1


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="compare two saved studies instead of running one")
    p.add_argument("--workload")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    if not args.workload:
        p.error("--workload is required unless --compare is given")

    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:8])
        print(f"seed {seed}: correct={result['correct']} {vals}", flush=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"study-{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    if args.trace or len(runs) < 2:
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "steady" if spread < bound / 3 else "NOT steady"
        print(f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
