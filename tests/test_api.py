"""The public API: the names ``cotesroot`` exports, pinned, and the kinds a
run can end with, each documented and mapped to a CLI exit code."""

import inspect
import re
from pathlib import Path

import pytest

import cotesroot
from cotesroot import (Breakdown, MethodId, ScalarProblem, apply_method, bigreal, bisect_root,
                       cli, demo_system, errors, eval_jet, eval_value, map_derivatives_at,
                       multivariate, nd_iterate, nd_step, parse, run_table, solve_linear,
                       solver)

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
                   "nonfinite", "diverged"}


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


AFFINE = demo_system("affine")

# every public callable with a precision parameter, called with minimal valid
# arguments at the precision p; each other argument is built at 20 digits
AT_PRECISION = {
    "ScalarProblem": lambda p: ScalarProblem(parse("x^2-2"), bigreal("1.5", 20), precision=p),
    "apply_method": lambda p: apply_method(MethodId(1), parse("x^2-2"), bigreal("1.5", 20), p),
    "bigreal": lambda p: bigreal("1.5", p),
    "bisect_root": lambda p: bisect_root(parse("x^2-2"), 1, 2, p),
    "eval_jet": lambda p: eval_jet(parse("x^2-2"), bigreal("1.5", 20), p),
    "eval_value": lambda p: eval_value(parse("x^2-2"), bigreal("1.5", 20), p),
    "map_derivatives_at": lambda p: map_derivatives_at(MethodId(0), parse("tanh(x-1)"),
                                                       bigreal(1, 20), 1, p),
    "nd_iterate": lambda p: nd_iterate(AFFINE.function, AFFINE.x0, precision=p),
    "nd_step": lambda p: nd_step("newton", AFFINE.function, AFFINE.x0, p),
    "run_table": lambda p: run_table("tab1nn", p),
    "solve_linear": lambda p: solve_linear([[2, 1], [1, 3]], [1, 2], p),
}
# records that carry the precision their value was computed at and compute nothing
PRECISION_RECORDS = {"BigReal", "TableReport"}


def test_every_precision_parameter_is_checked():
    takes_precision = set()
    for name in cotesroot.__all__:
        obj = getattr(cotesroot, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        if {"precision", "digits"} & set(inspect.signature(obj).parameters):
            takes_precision.add(name)
    assert takes_precision == set(AT_PRECISION) | PRECISION_RECORDS
    for name, call in AT_PRECISION.items():
        with pytest.raises(ValueError, match="at least 15"):
            call(14)
        call(15)


@pytest.mark.parametrize("call", [
    AT_PRECISION["nd_step"],
    AT_PRECISION["solve_linear"],
    AT_PRECISION["bigreal"],
    lambda p: run_table("tab1", p),
    AT_PRECISION["run_table"],
], ids=["nd_step", "solve_linear", "bigreal", "run_table_tab1", "run_table_tab1nn"])
@pytest.mark.parametrize("precision", [3, 0, -5, 14])
def test_entry_points_reject_precision_below_minimum(call, precision):
    # at 3 digits nd_step and solve_linear used to call the affine demo singular
    with pytest.raises(ValueError, match="at least 15"):
        call(precision)
