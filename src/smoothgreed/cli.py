"""Command-line driver: design, run, certify, figures, sweep.

Exit codes: 0 success, 2 certificate breach, 3 infeasible design, 4 bad input.
All outputs are CSV or JSON; every CSV starts with a provenance comment line
carrying the version and the flags that produced it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys

import numpy as np

from smoothgreed import __version__
from smoothgreed import scalar as sc
from smoothgreed import smoothing as sm
from smoothgreed.instances import Instance, gen_adwords_triangular, gen_logdet_stream, gen_lp_random
from smoothgreed.objectives import (LogDetObjective, PenaltyLPObjective, SeparableObjective,
                                    theta_of_instance)
from smoothgreed.online import certify, duality_gap_diagnostics, run_sequential, run_simultaneous

EXIT_OK = 0
EXIT_CERT_BREACH = 2
EXIT_INFEASIBLE = 3
EXIT_BAD_INPUT = 4
_STRICT_JSON = json.JSONEncoder(allow_nan=False)   # json.dumps would build one per record
_X_MEMO = 1024      # distinct encoded x kept at once by _record_lines


def _provenance(args) -> str:
    flags = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "func")
    return f"# smoothgreed {__version__} {flags}\n"


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _workers() -> int:
    return min(8, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------


def cmd_design(args) -> int:
    if args.horizon is None:
        raise ValueError("design needs --horizon (flag or config file)")
    base = sc.from_descriptor(_load_json(args.objective))
    plateau = args.plateau or (base.plateau_u() is not None
                               and abs(base.plateau_u() - args.horizon) < 1e-12)
    spec = sm.DesignSpec(base, args.horizon, d=args.grid, plateau=plateau,
                         c=args.c if args.variant == "seq" else 0.0,
                         beta_tol=args.beta_tol)
    try:
        res = sm.design_sequential(spec) if spec.c > 0 else sm.design_optimal(spec)
    except RuntimeError as exc:
        print(f"design infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    res.write(args.out, provenance=_provenance(args).strip("#\n "))
    print(f"beta={res.beta:.6f} ratio={res.ratio:.6f} -> {args.out}.csv/.json")
    return EXIT_OK


# ----------------------------------------------------------------------
# run / certify
# ----------------------------------------------------------------------


def _objective_for(inst: Instance, smoothing_arg, objective_arg=None):
    """Build the family-default objective, optionally smoothed.

    ``objective_arg`` may name a scalar descriptor file that replaces the
    capped reward of allocation instances coordinatewise.  ``closed_form``
    and ``nesterov`` both name the family's closed-form smoothing.
    """
    if smoothing_arg == "nesterov":
        smoothing_arg = "closed_form"
    fam, n = inst.family, inst.params.get("n")
    if fam in ("adwords_triangular", "lp_random") and not (type(n) is int and n >= 1):
        raise ValueError(f"params.n must be a positive integer, got {n!r}")
    if fam == "adwords_triangular":
        coord = (sc.from_descriptor(_load_json(objective_arg))
                 if objective_arg else sc.Cap(1.0))
        if smoothing_arg is None:
            return SeparableObjective([coord] * n)
        if smoothing_arg == "closed_form":
            # the entropy smoothing and the designed optimum coincide here
            if not isinstance(coord, sc.Cap):
                raise ValueError("closed-form smoothing applies to the capped reward")
            s = sm.adwords_closed_form_smoothing()
            return SeparableObjective([coord] * n, smoothed=s, certified_beta=s.beta_exact)
        smoothed, beta = _design_from_file(smoothing_arg, coord)
        return SeparableObjective([coord] * n, smoothed=smoothed, certified_beta=beta)
    if fam in ("lp_random", "logdet_stream") and smoothing_arg not in (None, "closed_form"):
        raise ValueError(f"{fam} takes --smoothing 'closed_form' or 'nesterov' only, "
                         f"not a design file ({smoothing_arg!r})")
    if fam == "lp_random":
        l, theta = inst.extras["l"], inst.extras["theta"]
        pen = sm.nesterov_penalty_smoothing(l, theta) if smoothing_arg else None
        obj = PenaltyLPObjective(n, l, theta, smoothed_penalty=pen)
        # theta sets the certified floor 1/(1 + l/theta), so it must be the steps' own
        want = theta_of_instance(inst.steps)
        if abs(obj.theta - want) > 1e-12 * want:
            raise ValueError(f"extras.theta = {theta!r} differs from the steps' theta {want!r}")
        return obj
    if fam == "logdet_stream":
        A0 = np.asarray(inst.extras["A0"], dtype=float)
        b, l = inst.params["b"], inst.extras["l"]
        if smoothing_arg is None:
            return LogDetObjective(A0, b, l=l)
        pen = sm.nesterov_logdet_smoothing(A0.shape[0], l, b)
        return LogDetObjective(A0, b, l=l, smoothed_budget=pen)
    raise ValueError(f"unknown family {fam!r}")


def _design_from_file(path, coord):
    """A design file's grid and beta, the beta re-verified against ``coord``."""
    d = _load_json(path)
    sc.check_positive("design file", beta=d["beta"])
    c, y = d["c"], d["y"]
    if not (isinstance(c, (int, float)) and not isinstance(c, bool) and 0 <= c < math.inf):
        raise ValueError(f"design file: c must be finite and nonnegative, got {c!r}")
    if not (isinstance(y, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                        for v in y)):
        raise ValueError("design file: y must be a list of numbers, not true, false or null")
    # the tail follows the last sample: a file's tail_mode is not read
    smoothed = sm.SmoothedScalar(d["h"], y)
    # the file's beta sets the floor 1/beta, so it must be the one this grid earns
    beta = max(float(sm.verify_beta(smoothed, coord, c=c, refine=4)[0]), 1.0)
    if not (math.isfinite(beta) and abs(d["beta"] - beta) <= 1e-9 * beta):
        raise ValueError(f"design file: beta = {d['beta']!r}, but the grid verifies at "
                         f"{beta!r} on this objective")
    return smoothed, d["beta"]


def _do_run(args, check: bool) -> int:
    inst = Instance.load(args.instance)
    obj = _objective_for(inst, args.smoothing, args.objective)
    if "offline_opt" in inst.extras:
        sc.check_positive("extras", offline_opt=inst.extras["offline_opt"])
    run = run_sequential if args.algo == "seq" else run_simultaneous
    trace = run(obj, inst.steps)
    report = certify(trace, obj, inst.steps)
    gap = duality_gap_diagnostics(trace, obj)
    summary = trace.summary()
    summary.update({
        "structural_bound": report.structural_bound,
        "realized_bound": report.realized_bound,
        "certificate_ok": report.passed,
        "gap_ok": gap.passed,
        "alpha_realized": report.alpha_realized,
    })
    if "offline_opt" in inst.extras:
        summary["true_ratio"] = trace.P_orig / inst.extras["offline_opt"]
    # JSON has no inf or NaN (ratio_lb is inf when D = 0)
    summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in summary.items()}
    if args.out:
        with open(args.out + ".jsonl", "w") as fh:
            fh.writelines(_record_lines(trace.records))
        with open(args.out + ".json", "w") as fh:
            json.dump(summary, fh, indent=1, allow_nan=False)
    print(json.dumps({k: v for k, v in summary.items()
                      if k in ("P", "D", "ratio_lb", "structural_bound",
                               "certificate_ok", "gap_ok", "true_ratio")}, allow_nan=False))
    if check and not (report.passed and gap.passed):
        print("certificate breach", file=sys.stderr)
        return EXIT_CERT_BREACH
    return EXIT_OK


def _record_lines(records):
    """Records JSONL: one line per step with t, the dense x, sigma, inner and gain.

    Each line is the strict (no NaN or inf) JSON of that dict.  Runs repeat
    few distinct x, so each is encoded once, keyed by its bytes (which keep
    -0.0 apart from 0.0); the memo is emptied when full, and a record sharing
    the x array of the one before reuses its text.  The floats are written
    by ``float.__repr__``, as the json encoder writes them.
    """
    memo = {}
    prev_x = xs = None
    for rec in records:
        if rec.x is not prev_x:
            prev_x = rec.x
            x = np.atleast_1d(rec.x)
            key = x.tobytes()
            xs = memo.get(key)
            if xs is None:
                if len(memo) >= _X_MEMO:
                    memo.clear()
                xs = memo[key] = _STRICT_JSON.encode(x.tolist())
        floats = rec.sigma, rec.inner, rec.gain
        if not math.isfinite(sum(floats)):     # the encoder names a non-finite one
            _STRICT_JSON.encode(floats)
        yield '{"t": %s, "x": %s, "sigma": %s, "inner": %s, "gain": %s}\n' % (
            rec.t, xs, *map(float.__repr__, floats))


def cmd_run(args) -> int:
    return _do_run(args, check=False)


def cmd_certify(args) -> int:
    return _do_run(args, check=True)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def _figure_rows(which: str, points: int, grid_h: float, d_plateau: int):
    rows = []
    if which in ("1e", "1f"):
        base = sc.Log1p() if which == "1e" else sc.Sqrt()
        u_maxes = np.geomspace(1.0, 100.0, points)
        # shared step size keeps the constraint families nested, so the
        # achieved ratio is monotone in the horizon
        for u in u_maxes:
            d = max(10, int(round(u / grid_h)))
            res = sm.design_optimal(sm.DesignSpec(base, float(u), d=d, beta_tol=2e-5))
            rows.append((float(u), res.beta, res.ratio))
        header = ("u_max", "beta", "ratio")
    elif which in ("2a", "2b"):
        cs = np.linspace(0.02, 1.0, points)
        if which == "2a":
            base = sc.PiecewiseLinear([0.5, 1.0], [1.0, 0.5, 0.0])
            mk = lambda c: sm.DesignSpec(base, 1.0, d=d_plateau, plateau=True,
                                         c=float(c), beta_tol=2e-5)
        else:
            base = sc.Log1p()
            d = max(10, int(round(100.0 / grid_h)))
            mk = lambda c: sm.DesignSpec(base, 100.0, d=d, c=float(c), beta_tol=2e-5)
        for c in cs:
            res = sm.design_sequential(mk(c))
            rows.append((float(c), res.beta, res.ratio))
        header = ("c", "beta", "ratio")
    else:
        raise ValueError(f"unknown figure {which!r}")
    return header, rows


def cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    header, rows = _figure_rows(args.which, args.points, args.grid_h, args.d_plateau)
    path = os.path.join(args.out, f"figure_{args.which}.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(args))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _sweep_one(task):
    n, phase_len, algo, smoothed = task
    inst = gen_adwords_triangular(n, phase_len)
    obj = _objective_for(inst, "closed_form" if smoothed else None)
    run = run_sequential if algo == "seq" else run_simultaneous
    trace = run(obj, inst.steps, keep_records=False)
    return (n, phase_len, trace.P_orig / inst.extras["offline_opt"], trace.ratio_lb)


def cmd_sweep(args) -> int:
    if args.family != "adwords_triangular":
        raise ValueError("sweep currently covers the adwords_triangular family")
    ns = [int(v) for v in args.n_list.split(",")]
    phases = [int(v) for v in args.phase_list.split(",")]
    tasks = [(n, p, args.algo, args.smoothed) for n in ns for p in phases]
    if len(tasks) > 1 and _workers() > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=_workers()) as ex:
            results = list(ex.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    results.sort(key=lambda r: (r[0], r[1]))
    with open(args.out, "w") as fh:
        fh.write(_provenance(args))
        fh.write("n,phase_len,true_ratio,ratio_lb\n")
        for n, p, tr, lb in results:
            fh.write(f"{n},{p},{tr:.12g},{lb:.12g}\n")
    print(f"wrote {args.out} ({len(results)} rows)")
    return EXIT_OK


# ----------------------------------------------------------------------
# generate (convenience for producing instance files)
# ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "adwords_triangular":
        inst = gen_adwords_triangular(args.n, args.phase_len)
    elif args.family == "lp_random":
        inst = gen_lp_random(args.n, args.m, args.k, args.density, args.seed)
    elif args.family == "logdet_stream":
        inst = gen_logdet_stream(args.n, args.m, args.b, seed=args.seed)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    inst.save(args.out)
    print(f"wrote {args.out} ({len(inst.steps)} steps)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="smoothgreed",
                                description="Greedy primal-dual online maximization "
                                            "with certified competitive ratios.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="solve the optimal-smoothing program")
    d.add_argument("--objective", required=True, help="scalar descriptor JSON file")
    d.add_argument("--horizon", type=float, default=None)
    d.add_argument("--grid", type=int, default=1000)
    d.add_argument("--variant", choices=("sim", "seq"), default="sim")
    d.add_argument("--c", type=float, default=0.1)
    d.add_argument("--plateau", action="store_true")
    d.add_argument("--beta-tol", type=float, default=1e-4)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_design)

    for name, fn in (("run", cmd_run), ("certify", cmd_certify)):
        r = sub.add_parser(name, help=f"{name} an engine on an instance file")
        r.add_argument("--instance", required=True)
        r.add_argument("--algo", choices=("seq", "sim"), default="sim")
        r.add_argument("--objective", default=None,
                       help="scalar descriptor JSON overriding the family default")
        r.add_argument("--smoothing", default=None,
                       help="design JSON path (allocation only), 'closed_form' or 'nesterov'")
        r.add_argument("--out", default=None)
        r.set_defaults(func=fn)

    f = sub.add_parser("figures", help="reproduce the ratio curves")
    f.add_argument("--which", choices=("1e", "1f", "2a", "2b"), required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--points", type=int, default=8)
    f.add_argument("--grid-h", type=float, default=0.05)
    f.add_argument("--d-plateau", type=int, default=800)
    f.set_defaults(func=cmd_figures)

    s = sub.add_parser("sweep", help="ratio versus instance size")
    s.add_argument("--family", default="adwords_triangular")
    s.add_argument("--n-list", default="2,5,10")
    s.add_argument("--phase-list", default="1,2,5,10")
    s.add_argument("--algo", choices=("seq", "sim"), default="sim")
    s.add_argument("--smoothed", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("gen", help="write an instance file")
    g.add_argument("--family", required=True)
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--m", type=int, default=20)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--b", type=float, default=2.0)
    g.add_argument("--phase-len", type=int, default=5)
    g.add_argument("--density", type=float, default=0.7)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)
    p.sub_choices = sub.choices
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # config-file defaults sit below explicit flags
        if "--config" in argv:
            i = argv.index("--config")
            cfg_path = argv[i + 1]
            del argv[i:i + 2]
            cfg = _load_json(cfg_path)
            for subparser in parser.sub_choices.values():
                subparser.set_defaults(**cfg)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on a usage error, the breach code here
            if exc.code in (0, None):
                raise
            return EXIT_BAD_INPUT
        return args.func(args)
    except (ValueError, KeyError, IndexError, FileNotFoundError, json.JSONDecodeError,
            FloatingPointError, RuntimeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
