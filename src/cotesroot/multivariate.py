"""Dense d-dimensional Newton, Newton-trapezoidal, and Newton-Simpson steps.

Vector functions are caller-supplied callables (residual and Jacobian); no
parsing happens at this level.  The three step kinds are levels 0, 1 and 2
of the solver's ladder, with Jacobians for slopes, B_k = sum_i A_i J(x + i h_k),
and an LU solve with partial pivoting at the working precision in place of
the division; the trapezoidal step is the variant of Weerakoon & Fernando
(2000).  The ladder runs on raw ``mpmath.libmp`` tuples at the working
precision, lifting the scalar map's point operations and weighted slope sum
entry by entry, so for d = 1 a step equals the scalar map bit for bit.  The
user's callbacks alone run inside ``mp.workdps``: they receive lists of mpf
and may read mpmath's precision, and their results are rounded to raw tuples
at the working precision.  ``solve_linear`` never reads or sets mpmath's
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import (fzero, mpf_abs, mpf_div, mpf_gt, mpf_le, mpf_mul, mpf_pow_int,
                          mpf_rdiv_int, mpf_sub)

from .bigreal import DEFAULT_DIGITS, BigReal, _check_finite, as_mpf, working_dps, working_prec
from .errors import Breakdown
from .solver import (_RND, _TEN, SEED_TRAPEZOID, Termination, _argmax, _finite, _ladder_full,
                     _max_norm, _outer_loop, _point_ops, _stop_rules, _weighted_sum)

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


def _as_vector(values, d, prec) -> list:
    out = [as_mpf(v, prec)._mpf_ for v in values]
    if len(out) != d:
        raise ValueError(f"expected a vector of length {d}, got {len(out)}")
    return out


def _as_matrix(rows, d, prec) -> list[list]:
    out = [[as_mpf(v, prec)._mpf_ for v in row] for row in rows]
    if len(out) != d or any(len(row) != d for row in out):
        raise ValueError(f"expected a {d}x{d} matrix")
    return out


def _lu_solve(matrix, rhs, precision):
    """Ax = b on raw mpfs by LU with partial pivoting at the working precision of
    ``precision``, each step the call the mpf operator makes there, with b
    carried as column d; a ``singular_matrix`` Breakdown on tiny pivots, and a
    ``nonfinite`` one when the largest |entry|, which scales their threshold,
    is infinite or NaN."""
    prec = working_prec(precision)
    d = len(rhs)
    sizes = [mpf_abs(v, prec, _RND) for row in matrix for v in row] or [fzero]
    scale = _finite(sizes[_argmax(sizes)])  # the nonfinite Breakdown on an infinite or NaN max
    threshold = mpf_mul(mpf_pow_int(_TEN, 5 - precision, prec, _RND), scale, prec, _RND)
    a = [row + [v] for row, v in zip(matrix, rhs)]
    for col in range(d):
        sizes = [mpf_abs(a[row][col], prec, _RND) for row in range(col, d)]
        pivot_row = col + _argmax(sizes)
        if mpf_le(sizes[pivot_row - col], threshold):
            raise Breakdown(Breakdown.SINGULAR_MATRIX, f"pivot below threshold in column {col}")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = mpf_rdiv_int(1, a[col][col], prec, _RND)
        for row in range(col + 1, d):
            factor = mpf_mul(a[row][col], inv, prec, _RND)
            if factor != fzero:
                a[row][col:] = [mpf_sub(v, mpf_mul(factor, p, prec, _RND), prec, _RND)
                                for v, p in zip(a[row][col:], a[col][col:])]
    x = [fzero] * d
    for row in range(d - 1, -1, -1):
        acc = a[row][d]
        for j in range(row + 1, d):
            acc = mpf_sub(acc, mpf_mul(a[row][j], x[j], prec, _RND), prec, _RND)
        x[row] = mpf_div(acc, a[row][row], prec, _RND)
    return x


def _big_reals(vec, precision) -> list[BigReal]:
    return [BigReal(mp.make_mpf(v), precision) for v in vec]


def solve_linear(matrix, rhs, precision: int) -> list[BigReal]:
    """Solve a dense square system; raises Breakdown if singular or not finite.
    It never reads or sets mpmath's context, so threads may call it at once."""
    prec = working_prec(precision)
    x = _lu_solve(_as_matrix(matrix, len(rhs), prec), _as_vector(rhs, len(rhs), prec), precision)
    _finite(_max_norm(x, prec))
    return _big_reals(x, precision)


def _level(kind: str) -> int:
    if kind not in _LEVELS:
        raise ValueError(f"unknown step kind {kind!r}")
    return _LEVELS[kind]


def _residual_and_step(func: VectorFunction, n: int, precision: int, bound=None):
    """The residual x -> F(x) and the ladder's level-n step (x, F(x)) -> y on
    raw points at the working precision of ``precision``; every node must stay
    inside the raw ``bound`` in the max norm.

    The scalar point operations and weighted slope sum apply entry by entry.
    The user's callbacks run inside ``mp.workdps`` at the working precision,
    the one place a vector solve sets mpmath's context, since a callback may
    read mpmath's precision.  They take the point as a list of mpf, and their
    results are rounded to raw tuples at the working precision.
    """
    d, prec = func.dimension, working_prec(precision)
    sub, add, scale, divide = _point_ops(prec)
    points = (lambda p, q: [sub(a, b) for a, b in zip(p, q)],
              lambda p, q: [add(a, b) for a, b in zip(p, q)],
              lambda k, p: [scale(k, a) for a in p], lambda p, k: [divide(a, k) for a in p])

    def call(callback, convert, p):
        with mp.workdps(working_dps(precision)):
            return convert(callback([mp.make_mpf(v) for v in p]), d, prec)

    def weighted_sum(weights, jacobians):
        return [[_weighted_sum(prec, weights, entries) for entries in zip(*rows)]
                for rows in zip(*jacobians)]

    def solve(b, c, f):
        return _lu_solve(b, points[2](c, f), precision)

    jacobian = partial(call, func.jacobian, _as_matrix)
    outside = None if bound is None else (lambda p: mpf_gt(_max_norm(p, prec), bound))

    def step(x, fx):
        try:
            slope0 = jacobian(x)
        except Breakdown as exc:
            exc.level = 0
            raise
        return _ladder_full(n, x, fx, slope0, jacobian, weighted_sum, solve, points,
                            SEED_TRAPEZOID, outside)

    return partial(call, func.residual, _as_vector), step


def nd_step(kind: str, func: VectorFunction, x, precision: int) -> list[BigReal]:
    """One step of the chosen kind from a finite x; a NaN or inf result raises Breakdown."""
    residual, step = _residual_and_step(func, _level(kind), precision)
    prec = working_prec(precision)
    point = _as_vector(x, func.dimension, prec)
    _check_finite("x", point)
    y = step(point, residual(point))
    _finite(_max_norm(y, prec))
    return _big_reals(y, precision)


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
    prec = working_prec(precision)
    x = _as_vector(x0, func.dimension, prec)
    rules = _stop_rules(precision, prec, x, max_iter, step_tol, residual_tol, divergence_bound)
    points, _, termination = _outer_loop(
        x, *_residual_and_step(func, level, precision, rules[2]),
        lambda p, q: [mpf_sub(a, b, prec, _RND) for a, b in zip(p, q)],
        partial(_max_norm, prec=prec), max_iter, *rules)
    return VectorTrajectory(kind, tuple(
        VectorIterateRecord(k, tuple(_big_reals(point, precision)), None if fx is None
                            else BigReal(mp.make_mpf(_max_norm(fx, prec)), precision))
        for k, (point, fx) in enumerate(points)
    ), termination)


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
            return [sum(c * v for c, v in zip(row, p)) - rhs
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
