"""The public API: the names ``cotesroot`` exports, pinned."""

import cotesroot

PUBLIC = [
    "BigReal", "Breakdown", "CotesrootError", "DemoSystem", "DomainError", "Expression",
    "GUARD_DIGITS", "InsufficientData", "Jet2", "MethodId", "OrderEstimate", "ParseError",
    "RoundoffFloor", "RuleSpec", "SEED_NEWTON", "SEED_TRAPEZOID", "ScalarProblem",
    "SingularMatrix", "TableReport", "TableRow", "Termination", "Trajectory",
    "UnknownIdentifier", "UnsupportedRule", "VectorFunction", "VectorTrajectory",
    "apply_method", "bigreal", "bisect_root", "builtin_rule", "check_moments", "demo_system",
    "derive_rule", "estimate_order", "estimate_order_from_steps", "eval_jet", "eval_value",
    "iterate", "map_derivatives_at", "nd_iterate", "nd_step", "parse", "run_table",
    "significant_digits", "solve_linear",
]

# every name the benchmark (perfbench/workloads.py) calls
BENCHMARK_NAMES = (
    "CotesrootError MethodId SEED_NEWTON SEED_TRAPEZOID ScalarProblem VectorFunction "
    "apply_method bigreal bisect_root demo_system eval_jet eval_value iterate "
    "map_derivatives_at nd_iterate nd_step parse run_table significant_digits solve_linear"
).split()


def test_all_is_pinned():
    assert sorted(cotesroot.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 45


def test_all_names_resolve():
    for name in cotesroot.__all__:
        assert hasattr(cotesroot, name), name


def test_benchmark_names_are_public():
    missing = [name for name in BENCHMARK_NAMES if name not in cotesroot.__all__]
    assert missing == []
