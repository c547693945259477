"""Command-line front end.

Subcommands: ``weights`` (rule inspection), ``solve`` (run one method),
``order`` (convergence-order measurement), ``table`` (recompute a published
reference table), ``plotdata`` (per-iterate series for external plotting),
and ``ndsolve`` (built-in multivariate demo systems).

Exit codes for solve-like commands: 0 converged, 2 breakdown or divergence,
3 iteration budget exhausted (or not enough data for an order estimate),
1 for parse/configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import mpmath as mp

from . import __version__
from .analysis import estimate_order, estimate_order_from_steps
from .bigreal import MIN_DIGITS, bigreal, working_dps
from .errors import CotesrootError, InsufficientData, RoundoffFloor
from .expr import parse
from .multivariate import demo_system, nd_iterate
from .quadrature import builtin_rule, derive_rule
from .solver import (
    BREAKDOWN,
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    SEED_NEWTON,
    SEED_TRAPEZOID,
    MethodId,
    ScalarProblem,
    Trajectory,
    iterate,
)
from .tables import TABLE_IDS, run_table

DEFAULT_DIGITS = 50
_EXIT_BY_KIND = {CONVERGED: 0, DIVERGED: 2, BREAKDOWN: 2, MAX_ITERATIONS: 3}


def _default_digits() -> int:
    env = os.environ.get("COTES_DEFAULT_DIGITS")
    if env:
        try:
            value = int(env)
            if value >= MIN_DIGITS:
                return value
        except ValueError:
            pass
        print(f"ignoring invalid COTES_DEFAULT_DIGITS={env!r}", file=sys.stderr)
    return DEFAULT_DIGITS


def _add_solve_flags(sub):
    sub.add_argument("-f", "--function", required=True, help="function text, e.g. 'tanh(x-1)'")
    sub.add_argument("-m", "--method", default="t0",
                     help="method spec: tN, tI_J (composition), optional +F suffix")
    sub.add_argument("--x0", required=True, help="starting point (decimal text)")
    sub.add_argument("--digits", type=int, default=None, help="working precision in digits")
    sub.add_argument("--max-iter", type=int, default=30)
    sub.add_argument("--step-tol", default=None, help="stop when |step| is below this")
    sub.add_argument("--residual-tol", default=None, help="stop when |f(x)| is below this")
    sub.add_argument("--root", default=None, help="known root, enables the s column")
    sub.add_argument(
        "--simpson-seed",
        choices=(SEED_TRAPEZOID, SEED_NEWTON),
        default=SEED_TRAPEZOID,
        help="step seeding for the three-node level; 'newton' matches the "
        "published reference tables and drops every tN with N >= 2 to order N+1, "
        "'trapezoid' is the fully recursive ladder of order N+2",
    )
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotesroot",
        description="Arbitrary-precision root finding with closed-rule iterative maps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("weights", help="print rule weights and their sum")
    w.add_argument("--n", type=int, required=True, help="node count minus one (0..7)")
    w.add_argument("--derive", action="store_true",
                   help="derive by undetermined coefficients instead of the builtin row")
    w.add_argument("--format", choices=("text", "json", "csv"), default="text")

    s = subs.add_parser("solve", help="iterate one method on a function")
    _add_solve_flags(s)

    o = subs.add_parser("order", help="measure the convergence order")
    _add_solve_flags(o)
    o.add_argument("--three-point", action="store_true",
                   help="step-based estimate; no known root required")

    t = subs.add_parser("table", help="recompute a published reference table")
    t.add_argument("id", choices=TABLE_IDS)
    t.add_argument("--digits", type=int, default=None, help="override the precision preset")
    t.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = subs.add_parser("plotdata", help="emit per-iterate series as CSV")
    _add_solve_flags(p)
    p.add_argument("--metric", choices=("error", "sdigits"), default="error")

    n = subs.add_parser("ndsolve", help="run a built-in multivariate demo system")
    n.add_argument("--system", choices=("affine", "circle-line"), required=True)
    n.add_argument("--kind", choices=("newton", "trap", "simpson"), default="newton")
    n.add_argument("--digits", type=int, default=None)
    n.add_argument("--max-iter", type=int, default=30)
    n.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _print_csv(rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    print(buf.getvalue(), end="")


def _cmd_weights(args) -> int:
    rule = derive_rule(args.n) if args.derive else builtin_rule(args.n)
    if args.format == "json":
        print(json.dumps({"n": rule.n, "weights": list(rule.weights), "c": rule.c}))
    elif args.format == "csv":
        _print_csv([["n", "c"] + [f"A{i}" for i in range(rule.n + 1)],
                    [rule.n, rule.c] + list(rule.weights)])
    else:
        print(f"n = {rule.n}")
        print(f"weights = {' '.join(str(w) for w in rule.weights)}")
        print(f"c = {rule.c}")
    return 0


def _solve(args):
    """The problem the solve flags describe, and its trajectory."""
    digits = _default_digits() if args.digits is None else args.digits
    method = MethodId.parse(args.method, simpson_seed=args.simpson_seed)
    f = parse(args.function)
    kwargs = {}
    if args.step_tol is not None:
        kwargs["step_tol"] = bigreal(args.step_tol, digits)
    if args.residual_tol is not None:
        kwargs["residual_tol"] = bigreal(args.residual_tol, digits)
    if args.root is not None:
        kwargs["known_root"] = bigreal(args.root, digits)
    problem = ScalarProblem(
        f,
        bigreal(args.x0, digits),
        precision=digits,
        max_iter=args.max_iter,
        **kwargs,
    )
    return problem, iterate(problem, method)


def _config_json(args, problem, method) -> dict:
    config = {
        "function": args.function,
        "x0": problem.x0.decimal(),
        "digits": problem.precision,
        "max_iter": problem.max_iter,
        "step_tol": problem.step_tol.decimal(8),
        "residual_tol": problem.residual_tol.decimal(8),
        "divergence_bound": problem.divergence_bound.decimal(8),
        "simpson_seed": method.simpson_seed,
    }
    if problem.known_root is not None:
        config["root"] = problem.known_root.decimal()
    return config


def _trajectory_json(traj: Trajectory, args, problem) -> dict:
    iterates = []
    for rec in traj.iterates:
        entry = {"k": rec.k, "x": rec.x.decimal(),
                 "fx": None if rec.fx is None else rec.fx.decimal()}
        if rec.step is not None:
            entry["step"] = rec.step.decimal()
        if rec.s is not None:
            entry["s"] = rec.s.decimal(8)
        iterates.append(entry)
    return {
        "method": str(traj.method),
        "config": _config_json(args, problem, traj.method),
        "iterates": iterates,
        "termination": vars(traj.termination),
    }


def _print_trajectory(traj: Trajectory, args, problem) -> None:
    if args.format == "json":
        print(json.dumps(_trajectory_json(traj, args, problem), indent=2))
        return
    if args.format == "csv":
        _print_csv([["k", "x", "fx", "step", "s"]] + [
            [
                rec.k,
                rec.x.decimal(),
                "" if rec.fx is None else rec.fx.decimal(),
                "" if rec.step is None else rec.step.decimal(),
                "" if rec.s is None else rec.s.decimal(8),
            ]
            for rec in traj.iterates
        ])
        return
    shown = min(problem.precision, 30)
    for rec in traj.iterates:
        line = f"k={rec.k:<3d} x={rec.x.decimal(shown)}"
        if rec.fx is not None:
            line += f"  f(x)={rec.fx.decimal(8)}"
        if rec.s is not None:
            line += f"  s={rec.s.decimal(6)}"
        print(line)
    detail = f" ({traj.termination.detail})" if traj.termination.detail else ""
    print(f"termination: {traj.termination.kind}{detail}")


def _cmd_solve(args) -> int:
    problem, traj = _solve(args)
    _print_trajectory(traj, args, problem)
    return _EXIT_BY_KIND[traj.termination.kind]


def _cmd_order(args) -> int:
    if args.root is None and not args.three_point:
        print("order needs --root or --three-point", file=sys.stderr)
        return 1
    problem, traj = _solve(args)
    try:
        if args.three_point:
            estimate = estimate_order_from_steps(traj)
        else:
            estimate = estimate_order(traj, problem.known_root)
    except (InsufficientData, RoundoffFloor) as exc:
        print(f"cannot estimate order: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps({
            "method": str(traj.method),
            "q": estimate.q.decimal(6),
            "samples_used": estimate.samples_used,
            "per_pair": [r.decimal(6) for r in estimate.per_pair],
        }))
    elif args.format == "csv":
        _print_csv([["pair", "q"]]
                   + [[i, r.decimal(6)] for i, r in enumerate(estimate.per_pair)]
                   + [["final", estimate.q.decimal(6)]])
    else:
        pairs = ", ".join(r.decimal(4) for r in estimate.per_pair)
        print(f"estimated order q = {estimate.q.decimal(4)} "
              f"from {estimate.samples_used} iterates")
        print(f"per-pair estimates: {pairs}")
    return 0


def _cmd_table(args) -> int:
    report = run_table(args.id, args.digits)
    if args.format == "json":
        print(json.dumps({
            "table": report.table_id,
            "title": report.title,
            "digits": report.digits,
            "rows": [vars(row) for row in report.rows],
        }, indent=2))
        return 0
    if args.format == "csv":
        _print_csv([["method", "quantity", "computed", "reference", "diff", "runtime_s",
                     "provenance"]] + [
            [row.method, row.quantity, row.computed, row.reference, f"{row.diff:.4g}",
             f"{row.runtime:.3f}", row.provenance]
            for row in report.rows
        ])
        return 0
    print(f"{report.table_id}: {report.title} ({report.digits} digits)")
    print(f"{'method':<8} {'qty':<4} {'computed':>14} {'reference':>12} {'|diff|':>10} {'time':>8}")
    for row in report.rows:
        print(f"{row.method:<8} {row.quantity:<4} {row.computed:>14.4f} "
              f"{row.reference:>12.4f} {row.diff:>10.4g} {row.runtime:>7.2f}s")
    print(f"max |computed - reference| = {report.max_diff:.4g}")
    return 0


def _cmd_plotdata(args) -> int:
    if args.metric == "sdigits" and args.root is None:
        print("metric 'sdigits' needs --root", file=sys.stderr)
        return 1
    problem, traj = _solve(args)
    with mp.workdps(working_dps(problem.precision)):
        if args.metric == "sdigits":
            values = [(rec.k, rec.s.value) for rec in traj.iterates[1:] if rec.s is not None]
        elif problem.known_root is not None:
            root = problem.known_root.value
            values = [(rec.k, abs(rec.x.value - root)) for rec in traj.iterates[1:]]
        else:
            # without a root the step to the next iterate estimates the error
            values = [(rec.k, abs(rec.step.value)) for rec in traj.iterates
                      if rec.step is not None]
        rows = [[k, mp.nstr(v, 8)] for k, v in values]
    _print_csv([["iteration", args.metric]] + rows)
    return _EXIT_BY_KIND[traj.termination.kind]


def _cmd_ndsolve(args) -> int:
    digits = _default_digits() if args.digits is None else args.digits
    kind = {"newton": "newton", "trap": "trapezoidal", "simpson": "simpson"}[args.kind]
    demo = demo_system(args.system)
    traj = nd_iterate(demo.function, demo.x0, kind=kind, precision=digits,
                      max_iter=args.max_iter)
    if args.format == "json":
        print(json.dumps({
            "system": args.system,
            "kind": kind,
            "digits": digits,
            "iterates": [
                {
                    "k": rec.k,
                    "x": [v.decimal() for v in rec.x],
                    "residual_norm": None if rec.residual_norm is None
                    else rec.residual_norm.decimal(8),
                }
                for rec in traj.iterates
            ],
            "termination": vars(traj.termination),
        }, indent=2))
    else:
        shown = min(digits, 30)
        for rec in traj.iterates:
            point = ", ".join(v.decimal(shown) for v in rec.x)
            norm = "" if rec.residual_norm is None else \
                f"  |F|={rec.residual_norm.decimal(6)}"
            print(f"k={rec.k:<3d} x=({point}){norm}")
        detail = f" ({traj.termination.detail})" if traj.termination.detail else ""
        print(f"termination: {traj.termination.kind}{detail}")
    return _EXIT_BY_KIND[traj.termination.kind]


_COMMANDS = {
    "weights": _cmd_weights,
    "solve": _cmd_solve,
    "order": _cmd_order,
    "table": _cmd_table,
    "plotdata": _cmd_plotdata,
    "ndsolve": _cmd_ndsolve,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CotesrootError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
