"""Command-line front end.

Subcommands: ``weights`` (rule inspection), ``solve`` (run one method and
report every iterate), ``order`` (convergence-order measurement), ``table``
(recompute a published reference table) and ``ndsolve`` (built-in
multivariate demo systems).  ``solve --format csv`` is the per-iterate series
for plotting: its ``s`` column is the significant digits against ``--root``
and its ``step`` column the error estimate without one.

Exit codes for solve-like commands: 0 converged, 2 breakdown or divergence,
3 iteration budget exhausted (or not enough data for an order estimate),
1 for parse/configuration errors.  A reader that closes the output pipe
early changes no exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import mpmath as mp

from . import __version__
from .analysis import estimate_order, estimate_order_from_steps
from .bigreal import DEFAULT_DIGITS, bigreal, working_dps
from .errors import CotesrootError, InsufficientData
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
    iterate,
)
from .tables import TABLE_IDS, run_table

_EXIT_BY_KIND = {CONVERGED: 0, DIVERGED: 2, BREAKDOWN: 2, MAX_ITERATIONS: 3}


def _add_solve_flags(sub):
    sub.add_argument("-f", "--function", required=True, help="function text, e.g. 'tanh(x-1)'")
    sub.add_argument("-m", "--method", default="t0",
                     help="method spec: tN, tI_J (composition), optional +F suffix")
    sub.add_argument("--x0", required=True, help="starting point (decimal text)")
    sub.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                     help="working precision in digits (default %(default)s)")
    sub.add_argument("--max-iter", type=int, default=30)
    sub.add_argument("--step-tol", default=None, help="stop when |step| is below this")
    sub.add_argument("--residual-tol", default=None, help="stop when |f(x)| is below this")
    sub.add_argument("--root", default=None,
                     help="known root: enables the s column, and order uses it "
                     "instead of the step-based estimate")
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
                   help="derive from the Lagrange basis integrals instead of the builtin row")
    w.add_argument("--format", choices=("text", "json", "csv"), default="text")

    s = subs.add_parser("solve", help="iterate one method on a function")
    _add_solve_flags(s)

    o = subs.add_parser("order", help="measure the convergence order")
    _add_solve_flags(o)

    t = subs.add_parser("table", help="recompute a published reference table")
    t.add_argument("id", choices=TABLE_IDS)
    t.add_argument("--digits", type=int, default=None, help="override the precision preset")
    t.add_argument("--format", choices=("text", "json", "csv"), default="text")

    n = subs.add_parser("ndsolve", help="run a built-in multivariate demo system")
    n.add_argument("--system", choices=("affine", "circle-line"), required=True)
    n.add_argument("--kind", choices=("newton", "trap", "simpson"), default="newton")
    n.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    n.add_argument("--max-iter", type=int, default=30)
    n.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _nstr(value: float, digits: int) -> str:
    """A float diagnostic (``s``, an order estimate) printed as mpmath prints it."""
    return mp.nstr(mp.mpf(value), digits)


def _print(args, data: dict, lines: list[str], rows=()) -> None:
    """Print a command's report in ``args.format``: the JSON ``data``, the CSV
    ``rows`` (header row first) or the text ``lines``.

    A reader that closes the pipe early takes the rest of the report, not the
    command's exit code: stdout then goes to the null device, so that the
    flush at exit cannot fail again.
    """
    try:
        if args.format == "json":
            print(json.dumps(data, indent=2))
        elif args.format == "csv":
            csv.writer(sys.stdout).writerows(rows)
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _ending(term) -> str:
    """How a run ended, as the last line of its text report names it."""
    detail = f" ({term.detail})" if term.detail else ""
    return f"termination: {term.kind}{detail}"


def _print_run(args, traj, header: dict, records: list, lines: list, rows=()) -> int:
    """Print a run's report: ``header``, then the iterates (JSON ``records``,
    text ``lines``, CSV ``rows``), then how the run ended; return its exit code."""
    _print(args, {**header, "iterates": records, "termination": vars(traj.termination)},
           [*lines, _ending(traj.termination)], rows)
    return _EXIT_BY_KIND[traj.termination.kind]


def _cmd_weights(args) -> int:
    rule = derive_rule(args.n) if args.derive else builtin_rule(args.n)
    _print(args, {"n": rule.n, "weights": list(rule.weights), "c": rule.c},
           [f"n = {rule.n}",
            f"weights = {' '.join(str(w) for w in rule.weights)}",
            f"c = {rule.c}"],
           [["n", "c"] + [f"A{i}" for i in range(rule.n + 1)],
            [rule.n, rule.c] + list(rule.weights)])
    return 0


def _solve(args):
    """The problem the solve flags describe, and its trajectory."""
    method = MethodId.parse(args.method, simpson_seed=args.simpson_seed)
    f = parse(args.function)
    working_dps(args.digits)  # a precision below the minimum is no number flag's fault
    numbers = {}
    for flag in ("x0", "step_tol", "residual_tol", "root"):
        text = getattr(args, flag)
        try:
            if text is not None:
                numbers["known_root" if flag == "root" else flag] = bigreal(text, args.digits)
        except ValueError as exc:  # text that is not a number names its flag
            raise ValueError(f"--{flag.replace('_', '-')}: {exc}") from None
    problem = ScalarProblem(f, precision=args.digits, max_iter=args.max_iter, **numbers)
    return problem, iterate(problem, method)


def _cmd_solve(args) -> int:
    problem, traj = _solve(args)
    config = {
        "function": args.function,
        "x0": problem.x0.decimal(),
        "digits": problem.precision,
        "max_iter": problem.max_iter,
        "step_tol": problem.step_tol.decimal(8),
        "residual_tol": problem.residual_tol.decimal(8),
        "divergence_bound": problem.divergence_bound.decimal(8),
        "simpson_seed": traj.method.simpson_seed,
    }
    if problem.known_root is not None:
        config["root"] = problem.known_root.decimal()
    shown = min(problem.precision, 30)
    records, lines = [], []
    for rec in traj.iterates:
        # an absent step or s is left out of the record, an absent f(x) is None
        record = {"k": rec.k, "x": rec.x.decimal(),
                  "fx": None if rec.fx is None else rec.fx.decimal()}
        line = f"k={rec.k:<3d} x={rec.x.decimal(shown)}"
        if rec.fx is not None:
            line += f"  f(x)={rec.fx.decimal(8)}"
        if rec.step is not None:
            record["step"] = rec.step.decimal()
        if rec.s is not None:
            record["s"] = _nstr(rec.s, 8)
            line += f"  s={_nstr(rec.s, 6)}"
        records.append(record)
        lines.append(line)
    columns = ["k", "x", "fx", "step", "s"]
    rows = [columns] + [["" if r.get(c) is None else r[c] for c in columns] for r in records]
    return _print_run(args, traj, {"method": str(traj.method), "config": config},
                      records, lines, rows)


def _cmd_order(args) -> int:
    problem, traj = _solve(args)
    try:
        if problem.known_root is None:
            estimate = estimate_order_from_steps(traj)
        else:
            estimate = estimate_order(traj, problem.known_root)
    except InsufficientData as exc:
        term = traj.termination
        message = f": {term.message}" if term.message else ""
        print(f"cannot estimate order: {exc}; {_ending(term)}{message}", file=sys.stderr)
        return 3
    q, pairs = _nstr(estimate.q, 6), [_nstr(r, 6) for r in estimate.per_pair]
    _print(args, {"method": str(traj.method), "q": q, "samples_used": estimate.samples_used,
                  "per_pair": pairs},
           [f"estimated order q = {_nstr(estimate.q, 4)} from {estimate.samples_used} iterates",
            f"per-pair estimates: {', '.join(_nstr(r, 4) for r in estimate.per_pair)}"],
           [["pair", "q"], *enumerate(pairs), ["final", q]])
    return 0


def _cmd_table(args) -> int:
    report = run_table(args.id, args.digits)
    _print(args, {"table": report.table_id, "title": report.title, "digits": report.digits,
                  "rows": [vars(row) for row in report.rows]},
           [f"{report.table_id}: {report.title} ({report.digits} digits)",
            f"{'method':<8} {'qty':<4} {'computed':>14} {'reference':>12} {'|diff|':>10} "
            f"{'time':>8}",
            *(f"{row.method:<8} {row.quantity:<4} {row.computed:>14.4f} "
              f"{row.reference:>12.4f} {row.diff:>10.4g} {row.runtime:>7.2f}s"
              for row in report.rows),
            f"max |computed - reference| = {report.max_diff:.4g}"],
           [["method", "quantity", "computed", "reference", "diff", "runtime_s", "provenance"],
            *([row.method, row.quantity, row.computed, row.reference, f"{row.diff:.4g}",
               f"{row.runtime:.3f}", row.provenance] for row in report.rows)])
    return 0


def _cmd_ndsolve(args) -> int:
    kind = {"newton": "newton", "trap": "trapezoidal", "simpson": "simpson"}[args.kind]
    demo = demo_system(args.system)
    traj = nd_iterate(demo.function, demo.x0, kind=kind, precision=args.digits,
                      max_iter=args.max_iter)
    shown = min(args.digits, 30)
    records, lines = [], []
    for rec in traj.iterates:
        norm = rec.residual_norm
        records.append({"k": rec.k, "x": [v.decimal() for v in rec.x],
                        "residual_norm": None if norm is None else norm.decimal(8)})
        point = ", ".join(v.decimal(shown) for v in rec.x)
        lines.append(f"k={rec.k:<3d} x=({point})"
                     + ("" if norm is None else f"  |F|={norm.decimal(6)}"))
    return _print_run(args, traj, {"system": args.system, "kind": kind, "digits": args.digits},
                      records, lines)


_COMMANDS = {
    "weights": _cmd_weights,
    "solve": _cmd_solve,
    "order": _cmd_order,
    "table": _cmd_table,
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
