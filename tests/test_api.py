"""The public API: the names ``cotesroot`` exports, pinned, and the kinds a
run can end with, each documented and mapped to a CLI exit code."""

import re
from pathlib import Path

import cotesroot
from cotesroot import Breakdown, cli, errors, multivariate, solver

PUBLIC = [
    "BigReal", "Breakdown", "CotesrootError", "DemoSystem", "Expression", "InsufficientData",
    "Jet2", "MethodId", "OrderEstimate", "ParseError", "RuleSpec", "SEED_NEWTON",
    "SEED_TRAPEZOID", "ScalarProblem", "TableReport", "TableRow", "Termination", "Trajectory",
    "VectorFunction", "VectorTrajectory", "apply_method", "bigreal", "bisect_root",
    "builtin_rule", "check_moments", "demo_system", "derive_rule", "estimate_order",
    "estimate_order_from_steps", "eval_jet", "eval_value", "iterate", "map_derivatives_at",
    "nd_iterate", "nd_step", "parse", "run_table", "significant_digits", "solve_linear",
]

# every name the benchmark (perfbench/workloads.py) calls
BENCHMARK_NAMES = (
    "CotesrootError MethodId SEED_NEWTON SEED_TRAPEZOID ScalarProblem VectorFunction "
    "apply_method bigreal bisect_root demo_system eval_jet eval_value iterate "
    "map_derivatives_at nd_iterate nd_step parse run_table significant_digits solve_linear"
).split()


def test_all_is_pinned():
    assert sorted(cotesroot.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 39


def test_errors_defines_exactly_four_exception_classes():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert classes == {"CotesrootError", "ParseError", "Breakdown", "InsufficientData"}


def test_all_names_resolve():
    for name in cotesroot.__all__:
        assert hasattr(cotesroot, name), name


def test_benchmark_names_are_public():
    missing = [name for name in BENCHMARK_NAMES if name not in cotesroot.__all__]
    assert missing == []


BREAKDOWN_KINDS = {"zero_derivative", "zero_denominator", "singular_matrix", "domain",
                   "nonfinite"}


def test_breakdown_kinds_are_pinned_and_documented():
    kinds = {v for name, v in vars(Breakdown).items() if name.isupper()}
    assert kinds == BREAKDOWN_KINDS
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [k for k in sorted(kinds) if f"`{k}`" not in readme] == []


def test_every_termination_kind_has_an_exit_code():
    # every kind the outer loop and its callers can record, read from their source
    sources = (Path(m.__file__).read_text() for m in (solver, multivariate))
    names = {n for src in sources for n in re.findall(r"Termination\((\w+)", src)}
    kinds = {getattr(solver, n) for n in names}
    assert kinds == {"converged", "max_iterations", "breakdown", "diverged"}
    assert set(cli._EXIT_BY_KIND) == kinds
