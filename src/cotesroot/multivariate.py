"""Dense d-dimensional Newton, Newton-trapezoidal, and Newton-Simpson steps.

Vector functions are caller-supplied callables (residual and Jacobian); no
parsing happens at this level.  The three step kinds are levels 0, 1 and 2
of the solver's ladder, with Jacobians for slopes, B_k = sum_i A_i J(x + i h_k),
and an LU solve with partial pivoting at the working precision in place of
the division; the trapezoidal step is the variant of Weerakoon & Fernando
(2000).  The ladder runs on raw ``mpmath.libmp`` tuples at the working
precision, lifting the scalar map's point operations and weighted slope sum
entry by entry, so for d = 1 a step equals the scalar map bit for bit.  From
600 digits ``nd_iterate`` runs each pass at the precision its iterate can
use, planned by the scalar solver's planner from the max norm of the Newton
correction, solved at 30 digits: a reduced pass runs its ladder, Jacobians
and LU solves at its own precision, and the passes at full precision stop
each ladder at the level that has settled.  The user's callbacks alone run
inside ``mp.workdps``, at the precision of the pass or estimate that calls
them: they receive lists of mpf and may read mpmath's precision, and their
results are rounded to raw tuples there.  One lock serializes the callbacks
of all threads, so concurrent vector solves keep their bits; the ladders and
LU solves run unlocked.  ``solve_linear`` never reads or sets mpmath's
context.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import (fzero, mpf_abs, mpf_div, mpf_gt, mpf_le, mpf_mul, mpf_pos, mpf_pow_int,
                          mpf_rdiv_int, mpf_sub)

from .bigreal import DEFAULT_DIGITS, BigReal, _check_finite, as_mpf, working_dps, working_prec
from .errors import Breakdown
from .solver import (_RND, _SCHEDULE_FROM, _TEN, SEED_TRAPEZOID, Termination, _argmax,
                     _default_bound, _finite, _ladder_full, _log10_abs, _max_norm, _outer_loop,
                     _planner, _point_ops, _settling, _stop_rules, _weighted_sum)

_LEVELS = {"newton": 0, "trapezoidal": 1, "simpson": 2}  # step kind -> ladder level
# digits of the Newton correction behind a vector digit estimate
_ESTIMATE = 30
# held around every callback, since mpmath's precision is process-global;
# reentrant, since a callback may itself call nd_step
_CALLBACK_LOCK = threading.RLock()


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


def _call(callback, convert, d, precision, p):
    """A user callback at the raw point p, with its result rounded to raw tuples
    at the working precision of ``precision``.

    It runs inside ``mp.workdps`` at that precision, the one place a vector
    solve sets mpmath's context, since a callback may read mpmath's
    precision, and under ``_CALLBACK_LOCK``, so no other thread's callback
    sets it meanwhile.  It takes the point as a list of mpf.
    """
    with _CALLBACK_LOCK:
        with mp.workdps(working_dps(precision)):
            return convert(callback([mp.make_mpf(v) for v in p]), d, working_prec(precision))


def _rounded(vec, precision) -> list:
    prec = working_prec(precision)
    return [mpf_pos(v, prec, _RND) for v in vec]


def _vector_map(func: VectorFunction, n: int, precision: int, bound, stop=False):
    """The ladder's level-n step (x, F(x)) -> y on raw points at the working
    precision of ``precision``, the Jacobians and LU solves included; every
    node must stay inside the raw ``bound`` in the max norm.

    The scalar point operations and weighted slope sum apply entry by entry.
    With ``stop`` the ladder ends at the level whose correction has settled,
    measured with the max norm (``solver._settling``).
    """
    d, prec = func.dimension, working_prec(precision)
    sub, add, scale, divide = _point_ops(prec)
    points = (lambda p, q: [sub(a, b) for a, b in zip(p, q)],
              lambda p, q: [add(a, b) for a, b in zip(p, q)],
              lambda k, p: [scale(k, a) for a in p], lambda p, k: [divide(a, k) for a in p])
    entry_sum = _weighted_sum(prec)
    norm = partial(_max_norm, prec=prec)
    settles = _settling(precision, prec, norm, points[0]) if stop else None

    def weighted_sum(weights, jacobians):
        return [[entry_sum(weights, entries) for entries in zip(*rows)] for rows in zip(*jacobians)]

    def solve(b, c, f):
        return _lu_solve(b, points[2](c, f), precision)

    jacobian = partial(_call, func.jacobian, _as_matrix, d, precision)

    def step(x, fx):
        return _ladder_full(n, x, lambda p: (fx, jacobian(p)), jacobian, weighted_sum, solve,
                            points, SEED_TRAPEZOID, lambda p: mpf_gt(norm(p), bound), settles)

    return step


def _residual_and_step(func: VectorFunction, n: int, precision: int, max_iter: int, bound):
    """``nd_iterate``'s residual x -> F(x) at p and its level-n step (x, F(x)) -> y,
    each pass at the precision its iterate can use.

    From _SCHEDULE_FROM digits the passes follow ``solver._planner``, as
    ``iterate``'s do, at the nominal order n + 2.  The digit estimate at x
    is -log10 ||u||, u the Newton correction, solved from the Jacobian at
    _ESTIMATE digits and F(x) at p rounded there.  F(x) at p is taken once
    per iterate and kept with its point and its estimate, which the outer
    loop's residual, the estimate and a pass from that point share.  A
    reduced pass runs the ladder, the Jacobian callbacks and the LU solves
    at its own precision, from x and F(x) rounded to it; the passes at p
    stop each ladder at the level whose correction has settled, in the max
    norm.  Below _SCHEDULE_FROM digits every pass is ``nd_step``'s.
    """
    d = func.dimension
    scheduled = precision >= _SCHEDULE_FROM
    full = _vector_map(func, n, precision, bound, stop=scheduled)
    last = (None, None, None)  # (raw x, F(x) at p, its digit estimate or None)

    def residual(x):
        nonlocal last
        if x != last[0]:
            last = x, _call(func.residual, _as_vector, d, precision, x), None
        return last[1]

    def digits(x):
        nonlocal last
        fx = residual(x)
        if last[2] is None:
            jacobian = _call(func.jacobian, _as_matrix, d, _ESTIMATE, _rounded(x, _ESTIMATE))
            u = _lu_solve(jacobian, _rounded(fx, _ESTIMATE), _ESTIMATE)
            last = x, fx, -_log10_abs(_finite(_max_norm(u, working_prec(_ESTIMATE))))
        return last[2]

    def reduced(x, fx, work):
        return _vector_map(func, n, work, bound)(_rounded(x, work), _rounded(fx, work))

    attempt = _planner(precision, max_iter, n + 2, reduced, digits,
                       partial(_max_norm, prec=working_prec(precision)), bound)

    def step(x, fx):
        return (attempt(x, fx) if scheduled else None) or full(x, fx)

    return residual, step


def nd_step(kind: str, func: VectorFunction, x, precision: int) -> list[BigReal]:
    """One step of the chosen kind from a finite x; a NaN or inf result raises Breakdown.

    Every ladder node must stay inside 10^6 (1 + max |x_i|)
    (``solver._default_bound``), else the ``diverged`` Breakdown."""
    level, prec = _level(kind), working_prec(precision)
    point = _as_vector(x, func.dimension, prec)
    _check_finite("x", point)
    step = _vector_map(func, level, precision, _default_bound(_max_norm(point, prec), prec))
    y = step(point, _call(func.residual, _as_vector, func.dimension, precision, point))
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
    """Outer loop of steps of the chosen kind with max-norm stopping rules.

    Below 600 digits each pass is ``nd_step``'s, bit for bit.  From 600
    digits each pass before the last runs at the precision its iterate's
    digit estimate plans for it, as in ``iterate``: the estimate is the max
    norm of the Newton correction, solved at 30 digits from the residual the
    loop takes at the full precision and the Jacobian at 30 digits.  A
    reduced pass calls the Jacobian at its own precision; the residual runs
    at the full precision once per iterate, and the ladders of the passes at
    the full precision stop at the level whose correction has settled."""
    level = _level(kind)
    prec = working_prec(precision)
    x = _as_vector(x0, func.dimension, prec)
    rules = _stop_rules(precision, prec, x, max_iter, step_tol, residual_tol, divergence_bound)
    points, _, termination = _outer_loop(
        x, *_residual_and_step(func, level, precision, max_iter, rules[2]),
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
