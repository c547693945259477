"""Recompute the published reference tables and report deviations.

Each table definition pins the function, start point, method list, iteration
count, and working precision, together with the published values being
reproduced.  All reference runs use the "newton" Simpson seeding: the
reference implementation that generated the published values seeded the
three-node level from the Newton step, and matching its output requires the
same wiring, which drops every level n >= 2 to order n+1 (see the solver
module notes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .analysis import bisect_root, map_derivatives_at, significant_digits
from .bigreal import BigReal, bigreal
from .expr import Expression, parse
from .solver import (
    SEED_NEWTON,
    MethodId,
    ScalarProblem,
    apply_method,
    iterate,
)

TABLE_IDS = ("tab1", "tab1nn", "tab1nnA", "tab1nnB", "tabnova1", "tabnova2", "tabpol1")


@dataclass(frozen=True)
class TableRow:
    method: str
    quantity: str
    computed: float
    reference: float
    diff: float
    runtime: float
    provenance: str


@dataclass(frozen=True)
class TableReport:
    table_id: str
    title: str
    digits: int
    rows: tuple[TableRow, ...]

    @property
    def max_diff(self) -> float:
        return max(row.diff for row in self.rows)


@dataclass(frozen=True)
class _SDigitsTable:
    title: str
    function: str
    x0: str
    digits: int
    iterations: int
    methods: tuple[str, ...]
    s_reference: tuple[float, ...]
    root: Optional[str]  # exact root text; None means bisect the bracket below
    bracket: Optional[tuple[str, str]] = None


_TABLES: dict[str, _SDigitsTable] = {
    "tab1nn": _SDigitsTable(
        title="one application of t0..t7, f(x)=tanh(x-1), x0=1.1",
        function="tanh(x-1)",
        x0="1.1",
        digits=60,
        iterations=1,
        methods=tuple(f"t{n}" for n in range(8)),
        s_reference=(3.2, 3.8, 5.6, 7.8, 10.2, 11.1, 13.5, 14.5),
        root="1",
    ),
    "tab1nnA": _SDigitsTable(
        title="one application of composed maps, f(x)=tanh(x-1), x0=1.1",
        function="tanh(x-1)",
        x0="1.1",
        digits=200,
        iterations=1,
        methods=("t2_1", "t3_2", "t4_3", "t5_4", "t6_5", "t7_6"),
        s_reference=(19.5, 30.8, 57.5, 75.2, 104.7, 127.3),
        root="1",
    ),
    "tab1nnB": _SDigitsTable(
        title="one application of reversed compositions, f(x)=tanh(x-1), x0=1.1",
        function="tanh(x-1)",
        x0="1.1",
        digits=200,
        iterations=1,
        methods=("t1_2", "t2_3", "t3_4", "t4_5", "t5_6", "t6_7"),
        s_reference=(17.7, 39.5, 53.4, 80.9, 98.8, 135.4),
        root="1",
    ),
    "tabnova1": _SDigitsTable(
        title="one application at a multiple root, f(x)=sin(x)-x, x0=0.1",
        function="sin(x)-x",
        x0="0.1",
        digits=60,
        iterations=1,
        methods=tuple(f"t{n}" for n in range(8)),
        s_reference=(1.18, 1.27, 1.28, 1.35, 1.41, 1.45, 1.49, 1.52),
        root="0",
    ),
    "tabnova2": _SDigitsTable(
        title="one application on the transform F=-f/f', f(x)=sin(x)-x, x0=0.1",
        function="sin(x)-x",
        x0="0.1",
        digits=60,
        iterations=1,
        methods=tuple(f"t{n}+F" for n in range(8)),
        s_reference=(4.2, 4.8, 7.6, 9.6, 13.1, 14.2, 17.7, 18.7),
        root="0",
    ),
    "tabpol1": _SDigitsTable(
        title="three iterations, f(x)=x^11+4x^2-10, x0=2",
        function="x^11+4*x^2-10",
        x0="2",
        digits=2600,
        iterations=3,
        methods=("t0", "t6", "t7", "t7_6"),
        s_reference=(0.5, 5.3, 7.6, 2410.6),
        root=None,
        bracket=("1", "2"),
    ),
}

# fixed-point derivative table: f(x)=tanh(x-1), z=1, derivatives 1..5
_DERIVATIVE_REFERENCE = {
    "t0": (0.0, 0.0, -4.0, 0.0, -16.0),
    "t1": (0.0, 0.0, -1.0, 0.0, 14.0),
    "t2": (0.0, 0.0, 0.0, 0.0, 82.0 / 3.0),
}
_DERIVATIVE_DIGITS = 250


def _reference_root(spec: _SDigitsTable, f: Expression, digits: int) -> BigReal:
    if spec.root is not None:
        return bigreal(spec.root, digits)
    lo, hi = spec.bracket
    return bisect_root(f, lo, hi, digits + 40)


def _run_sdigits(table_id: str, spec: _SDigitsTable, digits: int) -> TableReport:
    f = parse(spec.function)
    root = _reference_root(spec, f, digits)
    x0 = bigreal(spec.x0, digits)
    rows = []
    for idx, method_text in enumerate(spec.methods):
        start = time.perf_counter()
        method = MethodId.parse(method_text, simpson_seed=SEED_NEWTON)
        if spec.iterations == 1:
            final = apply_method(method, f, x0, digits)
        else:
            problem = ScalarProblem(f, x0, precision=digits, max_iter=spec.iterations)
            final = iterate(problem, method).final.x
        s = significant_digits(final, root)
        elapsed = time.perf_counter() - start
        rows.append(
            TableRow(
                method=method_text,
                quantity="s",
                computed=round(s, 4),
                reference=spec.s_reference[idx],
                diff=round(abs(s - spec.s_reference[idx]), 4),
                runtime=elapsed,
                provenance=table_id,
            )
        )
    return TableReport(table_id, spec.title, digits, tuple(rows))


def _run_derivatives(digits: int) -> TableReport:
    f = parse("tanh(x-1)")
    z = bigreal(1, digits)
    rows = []
    for method_text, reference in _DERIVATIVE_REFERENCE.items():
        start = time.perf_counter()
        method = MethodId.parse(method_text, simpson_seed=SEED_NEWTON)
        derivs = map_derivatives_at(method, f, z, 5, digits)
        elapsed = time.perf_counter() - start
        for order, (got, ref) in enumerate(zip(derivs, reference), start=1):
            value = float(got)
            rows.append(
                TableRow(
                    method=method_text,
                    quantity=f"d{order}",
                    computed=round(value, 6),
                    reference=ref,
                    diff=round(abs(value - ref), 6),
                    runtime=elapsed,
                    provenance="tab1",
                )
            )
    return TableReport(
        "tab1",
        "map derivatives at the fixed point, f(x)=tanh(x-1), z=1",
        digits,
        tuple(rows),
    )


def run_table(table_id: str, digits: int | None = None) -> TableReport:
    """Recompute one reference table; ``digits`` overrides the preset."""
    if table_id == "tab1":
        return _run_derivatives(_DERIVATIVE_DIGITS if digits is None else digits)
    spec = _TABLES.get(table_id)
    if spec is None:
        raise ValueError(f"unknown table id {table_id!r}; choose from {', '.join(TABLE_IDS)}")
    return _run_sdigits(table_id, spec, spec.digits if digits is None else digits)
