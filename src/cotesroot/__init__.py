"""Arbitrary-precision root finding with recursive closed-rule iterative maps."""

from .analysis import (
    OrderEstimate,
    bisect_root,
    estimate_order,
    estimate_order_from_steps,
    map_derivatives_at,
    significant_digits,
)
from .bigreal import BigReal, bigreal
from .errors import Breakdown, CotesrootError, InsufficientData, ParseError
from .expr import Expression, Jet2, eval_jet, eval_value, parse
from .multivariate import (
    DemoSystem,
    VectorFunction,
    VectorTrajectory,
    demo_system,
    nd_iterate,
    nd_step,
    solve_linear,
)
from .quadrature import RuleSpec, builtin_rule, check_moments, derive_rule
from .solver import (
    SEED_NEWTON,
    SEED_TRAPEZOID,
    MethodId,
    ScalarProblem,
    Termination,
    Trajectory,
    apply_method,
    iterate,
)
from .tables import TableReport, TableRow, run_table

__version__ = "0.1.0"

__all__ = [
    "BigReal",
    "Breakdown",
    "CotesrootError",
    "DemoSystem",
    "Expression",
    "InsufficientData",
    "Jet2",
    "MethodId",
    "OrderEstimate",
    "ParseError",
    "RuleSpec",
    "ScalarProblem",
    "SEED_NEWTON",
    "SEED_TRAPEZOID",
    "TableReport",
    "TableRow",
    "Termination",
    "Trajectory",
    "VectorFunction",
    "VectorTrajectory",
    "apply_method",
    "bigreal",
    "bisect_root",
    "builtin_rule",
    "check_moments",
    "demo_system",
    "derive_rule",
    "estimate_order",
    "estimate_order_from_steps",
    "eval_jet",
    "eval_value",
    "iterate",
    "map_derivatives_at",
    "nd_iterate",
    "nd_step",
    "parse",
    "run_table",
    "significant_digits",
    "solve_linear",
]
