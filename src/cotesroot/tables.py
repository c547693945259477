"""Recompute the published reference tables and report deviations.

Each table definition pins the function, start point, method list, iteration
count, and working precision, together with the published values being
reproduced: each method's significant digits s after its iterations, or, for
tab1, its map's derivatives at the root.  All reference runs use the "newton" Simpson seeding: the
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
from .bigreal import bigreal
from .expr import parse
from .solver import (
    SEED_NEWTON,
    MethodId,
    ScalarProblem,
    apply_method,
    iterate,
)


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
class _Table:
    title: str
    function: str
    x0: str
    digits: int
    iterations: int  # 0: the map derivatives at the root, one row per order
    methods: tuple[str, ...]
    reference: tuple  # per method: its s, or its derivatives 1, 2, ... for iterations 0
    root: Optional[str]  # exact root text; None means bisect the bracket below
    bracket: Optional[tuple[str, str]] = None


_TABLES: dict[str, _Table] = {
    "tab1": _Table(
        title="map derivatives at the fixed point, f(x)=tanh(x-1), z=1",
        function="tanh(x-1)",
        x0="1",
        digits=250,
        iterations=0,
        methods=("t0", "t1", "t2"),
        reference=(
            (0.0, 0.0, -4.0, 0.0, -16.0),
            (0.0, 0.0, -1.0, 0.0, 14.0),
            (0.0, 0.0, 0.0, 0.0, 82.0 / 3.0),
        ),
        root="1",
    ),
    "tab1nn": _Table(
        title="one application of t0..t7, f(x)=tanh(x-1), x0=1.1",
        function="tanh(x-1)",
        x0="1.1",
        digits=60,
        iterations=1,
        methods=tuple(f"t{n}" for n in range(8)),
        reference=(3.2, 3.8, 5.6, 7.8, 10.2, 11.1, 13.5, 14.5),
        root="1",
    ),
    "tab1nnA": _Table(
        title="one application of composed maps, f(x)=tanh(x-1), x0=1.1",
        function="tanh(x-1)",
        x0="1.1",
        digits=200,
        iterations=1,
        methods=("t2_1", "t3_2", "t4_3", "t5_4", "t6_5", "t7_6"),
        reference=(19.5, 30.8, 57.5, 75.2, 104.7, 127.3),
        root="1",
    ),
    "tab1nnB": _Table(
        title="one application of reversed compositions, f(x)=tanh(x-1), x0=1.1",
        function="tanh(x-1)",
        x0="1.1",
        digits=200,
        iterations=1,
        methods=("t1_2", "t2_3", "t3_4", "t4_5", "t5_6", "t6_7"),
        reference=(17.7, 39.5, 53.4, 80.9, 98.8, 135.4),
        root="1",
    ),
    "tabnova1": _Table(
        title="one application at a multiple root, f(x)=sin(x)-x, x0=0.1",
        function="sin(x)-x",
        x0="0.1",
        digits=60,
        iterations=1,
        methods=tuple(f"t{n}" for n in range(8)),
        reference=(1.18, 1.27, 1.28, 1.35, 1.41, 1.45, 1.49, 1.52),
        root="0",
    ),
    "tabnova2": _Table(
        title="one application on the transform F=-f/f', f(x)=sin(x)-x, x0=0.1",
        function="sin(x)-x",
        x0="0.1",
        digits=60,
        iterations=1,
        methods=tuple(f"t{n}+F" for n in range(8)),
        reference=(4.2, 4.8, 7.6, 9.6, 13.1, 14.2, 17.7, 18.7),
        root="0",
    ),
    "tabpol1": _Table(
        title="three iterations, f(x)=x^11+4x^2-10, x0=2",
        function="x^11+4*x^2-10",
        x0="2",
        digits=2600,
        iterations=3,
        methods=("t0", "t6", "t7", "t7_6"),
        reference=(0.5, 5.3, 7.6, 2410.6),
        root=None,
        bracket=("1", "2"),
    ),
}
TABLE_IDS = tuple(_TABLES)


def run_table(table_id: str, digits: int | None = None) -> TableReport:
    """Recompute one reference table; ``digits`` overrides the preset."""
    spec = _TABLES.get(table_id)
    if spec is None:
        raise ValueError(f"unknown table id {table_id!r}; choose from {', '.join(TABLE_IDS)}")
    digits = spec.digits if digits is None else digits
    f = parse(spec.function)
    x0 = bigreal(spec.x0, digits)  # first: it checks digits before the oracle adds 40
    if spec.root is None:
        root = bisect_root(f, *spec.bracket, digits + 40)
    else:
        root = bigreal(spec.root, digits)
    rows = []
    for method_text, reference in zip(spec.methods, spec.reference):
        start = time.perf_counter()
        method = MethodId.parse(method_text, simpson_seed=SEED_NEWTON)
        if spec.iterations == 0:
            values = map_derivatives_at(method, f, root, len(reference), digits)
        elif spec.iterations == 1:
            values = [significant_digits(apply_method(method, f, x0, digits), root)]
        else:
            problem = ScalarProblem(f, x0, precision=digits, max_iter=spec.iterations)
            values = [significant_digits(iterate(problem, method).final.x, root)]
        elapsed = time.perf_counter() - start
        if spec.iterations == 0:
            quantities = [f"d{order}" for order in range(1, len(values) + 1)]
            places, references = 6, reference
        else:
            quantities, places, references = ["s"], 4, (reference,)
        for quantity, got, ref in zip(quantities, values, references):
            value = float(got)
            rows.append(
                TableRow(
                    method=method_text,
                    quantity=quantity,
                    computed=round(value, places),
                    reference=ref,
                    diff=round(abs(value - ref), places),
                    runtime=elapsed,
                    provenance=table_id,
                )
            )
    return TableReport(table_id, spec.title, digits, tuple(rows))
