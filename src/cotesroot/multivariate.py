"""Dense d-dimensional Newton, Newton-trapezoidal, and Newton-Simpson steps.

Vector functions are caller-supplied callables (residual and Jacobian); no
parsing happens at this level.  The three step kinds are levels 0, 1 and 2
of the solver's ladder, with Jacobians for slopes, B_k = sum_i A_i J(x + i h_k),
and an LU solve with partial pivoting at the working precision in place of
the division; the trapezoidal step is the variant of Weerakoon & Fernando
(2000).  For d = 1 a step therefore equals the scalar map bit for bit.
"""

from __future__ import annotations

import mpmath as mp

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bigreal import DEFAULT_DIGITS, BigReal, as_mpf, working_dps
from .errors import Breakdown
from .solver import (SEED_TRAPEZOID, Termination, _check_finite, _finite, _ladder_full,
                     _outer_loop, _stop_rules)

_LEVELS = {"newton": 0, "trapezoidal": 1, "simpson": 2}  # step kind -> ladder level


@dataclass(frozen=True)
class VectorFunction:
    """Residual and Jacobian evaluators for a map R^d -> R^d."""

    dimension: int
    residual: Callable[[Sequence], Sequence]
    jacobian: Callable[[Sequence], Sequence]


@dataclass(frozen=True)
class VectorIterateRecord:
    k: int
    x: tuple[BigReal, ...]
    residual_norm: Optional[BigReal]


@dataclass(frozen=True)
class VectorTrajectory:
    kind: str
    iterates: tuple[VectorIterateRecord, ...]
    termination: Termination

    @property
    def final(self) -> VectorIterateRecord:
        return self.iterates[-1]


class _Point(list):
    """A vector iterate with the per-coordinate arithmetic the ladder uses."""

    def __add__(self, other):
        return _Point(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return _Point(a - b for a, b in zip(self, other))

    def __rmul__(self, k):
        return _Point(k * a for a in self)

    def __truediv__(self, k):
        return _Point(a / k for a in self)


def _as_vector(values, d) -> list[mp.mpf]:
    out = [as_mpf(v) for v in values]
    if len(out) != d:
        raise ValueError(f"expected a vector of length {d}, got {len(out)}")
    return out


def _as_matrix(rows, d) -> list[list[mp.mpf]]:
    out = [[as_mpf(v) for v in row] for row in rows]
    if len(out) != d or any(len(row) != d for row in out):
        raise ValueError(f"expected a {d}x{d} matrix")
    return out


def _max_norm(vec) -> mp.mpf:
    """max |v_i|, and NaN when any v_i is NaN (``max`` would skip a later NaN)."""
    norms = [abs(v) for v in vec]
    if any(mp.isnan(a) for a in norms):
        return mp.nan
    return max(norms, default=mp.mpf(0))


def _lu_solve(matrix, rhs, precision):
    """Ax = b by LU with partial pivoting; a ``singular_matrix`` Breakdown on tiny pivots."""
    d = len(rhs)
    a = [row[:] for row in matrix]
    b = rhs[:]
    scale = max((abs(v) for row in a for v in row), default=mp.mpf(0))
    threshold = mp.mpf(10) ** (5 - precision) * scale
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) <= threshold:
            raise Breakdown(Breakdown.SINGULAR_MATRIX, f"pivot below threshold in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        inv = 1 / a[col][col]
        for row in range(col + 1, d):
            factor = a[row][col] * inv
            if factor == 0:
                continue
            for j in range(col, d):
                a[row][j] -= factor * a[col][j]
            b[row] -= factor * b[col]
    x = [mp.mpf(0)] * d
    for row in range(d - 1, -1, -1):
        acc = b[row]
        for j in range(row + 1, d):
            acc -= a[row][j] * x[j]
        x[row] = acc / a[row][row]
    return x


def solve_linear(matrix, rhs, precision: int) -> list[BigReal]:
    """Solve a dense square system; raises Breakdown if singular or not finite."""
    with mp.workdps(working_dps(precision)):
        d = len(rhs)
        x = _lu_solve(_as_matrix(matrix, d), _as_vector(rhs, d), precision)
        _finite(_max_norm(x))
        return [BigReal(v, precision) for v in x]


def _jacobian_sum(weights, jacobians):
    """Entrywise sum of A_i J_i; a Jacobian of weight 1 is added without a multiply."""
    scaled = [jac if w == 1 else [[w * v for v in row] for row in jac]
              for w, jac in zip(weights, jacobians)]
    return [[sum(entries) for entries in zip(*rows)] for rows in zip(*scaled)]


def _level(kind: str) -> int:
    if kind not in _LEVELS:
        raise ValueError(f"unknown step kind {kind!r}")
    return _LEVELS[kind]


def _vector_map(n, func, x, fx, precision, bound=None):
    """Level n of the ladder at the point x (a _Point) with residual fx there;
    every node must stay inside ``bound`` in the max norm."""
    d = func.dimension

    def jacobian(p):
        return _as_matrix(func.jacobian(p), d)

    def solve(b, c, f):
        return _lu_solve(b, [c * v for v in f], precision)

    try:
        slope0 = jacobian(x)
    except Breakdown as exc:
        exc.level = 0
        raise
    return _ladder_full(n, x, fx, slope0, jacobian, _jacobian_sum, solve, SEED_TRAPEZOID,
                        _max_norm, bound)


def nd_step(kind: str, func: VectorFunction, x, precision: int) -> list[BigReal]:
    """One step of the chosen kind from a finite x; a NaN or inf result raises Breakdown."""
    level = _level(kind)
    d = func.dimension
    with mp.workdps(working_dps(precision)):
        point = _Point(_as_vector(x, d))
        _check_finite("x", point)
        y = _vector_map(level, func, point, _as_vector(func.residual(point), d), precision)
        _finite(_max_norm(y))
        return [BigReal(v, precision) for v in y]


def nd_iterate(
    func: VectorFunction,
    x0,
    kind: str = "newton",
    precision: int = DEFAULT_DIGITS,
    max_iter: int = 30,
    step_tol=None,
    residual_tol=None,
    divergence_bound=None,
) -> VectorTrajectory:
    """Outer loop around nd_step with max-norm stopping rules."""
    level = _level(kind)
    d = func.dimension
    with mp.workdps(working_dps(precision)):
        x = _Point(_as_vector(x0, d))
        step_tol, residual_tol, bound = _stop_rules(precision, x, max_iter, step_tol,
                                                    residual_tol, divergence_bound)
        points, _, termination = _outer_loop(
            x,
            lambda p: _as_vector(func.residual(p), d),
            lambda p, fp: _vector_map(level, func, p, fp, precision, bound),
            _max_norm,
            max_iter,
            step_tol,
            residual_tol,
            bound,
        )

        def norm(vec):
            return None if vec is None else BigReal(_max_norm(vec), precision)

        records = tuple(
            VectorIterateRecord(k, tuple(BigReal(v, precision) for v in point), norm(fx))
            for k, (point, fx) in enumerate(points)
        )
    return VectorTrajectory(kind, records, termination)


@dataclass(frozen=True)
class DemoSystem:
    """A built-in demonstration system for the command line."""

    name: str
    function: VectorFunction
    x0: tuple[str, ...]
    reference: Optional[tuple[str, ...]]


def demo_system(name: str) -> DemoSystem:
    if name == "affine":
        a = ((3, 1), (1, 2))
        b = (5, 5)

        def residual(p):
            return [sum(as_mpf(c) * v for c, v in zip(row, p)) - rhs
                    for row, rhs in zip(a, b)]

        def jacobian(p):
            return a

        return DemoSystem(name, VectorFunction(2, residual, jacobian), ("0", "0"), ("1", "2"))
    if name == "circle-line":

        def residual(p):
            x, y = p
            return [x * x + y * y - 1, x - y]

        def jacobian(p):
            x, y = p
            return [[2 * x, 2 * y], [1, -1]]

        return DemoSystem(name, VectorFunction(2, residual, jacobian), ("1", "0.5"), None)
    raise ValueError(f"unknown demo system {name!r}; choose 'affine' or 'circle-line'")
