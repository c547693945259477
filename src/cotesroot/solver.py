"""Recursive closed-rule iterative maps, compositions, and the outer loop.

The map with n+1 nodes is built bottom-up per evaluation point x: starting
from the Newton value y_0 = x - f(x)/f'(x), each level k takes the step
h_k = (y_{k-1} - x)/k, forms the weighted slope sum
B_k = sum_i A_i f'(x + i h_k) with the level-k rule weights, and sets
y_k = x - c_k f(x)/B_k.  Every level is computed exactly once and node 0 of
every level is x itself, so one application of the n-th map costs
1 + n(n+1)/2 slope evaluations.

The same ladder and the same outer loop run the vector steps of
``multivariate``: there the slopes are Jacobians, B_k is a matrix and the
division by B_k is an LU solve.

``simpson_seed`` switches how the three-node level obtains its step: the
default "trapezoid" wiring (h_2 from y_1) is the properly recursive ladder
and carries the full order n+2; the "newton" wiring (h_2 from y_0) drops the
three-node level to third order but is the variant that generated the
published reference tables, so the table-reproduction layer selects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .bigreal import BigReal, as_mpf, check_digits, working_dps
from .errors import Breakdown, DomainError
from .expr import Expression, _eval
from .quadrature import MAX_RULE, builtin_rule

SEED_TRAPEZOID = "trapezoid"
SEED_NEWTON = "newton"

# termination kinds
CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
BREAKDOWN = "breakdown"
DIVERGED = "diverged"
NONFINITE = "nonfinite"  # breakdown detail: an iterate or residual became NaN or inf

_RULES = [builtin_rule(n) for n in range(MAX_RULE + 1)]


@dataclass(frozen=True)
class MethodId:
    """Identity of an iterative map.

    ``outer`` alone names the basic map t_outer; with ``inner`` set the map
    is the composition t_outer(t_inner(x)) (inner applied first).  With
    ``transform`` every f/f' evaluation is replaced by the multiple-root
    transform F = -f/f' and its slope.
    """

    outer: int
    inner: Optional[int] = None
    transform: bool = False
    simpson_seed: str = SEED_TRAPEZOID

    def __post_init__(self):
        for idx in (self.outer, self.inner):
            if idx is not None and not 0 <= idx <= MAX_RULE:
                raise ValueError(f"map index must be in 0..{MAX_RULE}, got {idx}")
        if self.simpson_seed not in (SEED_TRAPEZOID, SEED_NEWTON):
            raise ValueError(f"unknown simpson_seed {self.simpson_seed!r}")

    @classmethod
    def parse(cls, spec: str, simpson_seed: str = SEED_TRAPEZOID) -> "MethodId":
        """Parse "tN", "tI_J" (composition t_I o t_J), optional "+F" suffix."""
        text = spec.strip()
        transform = False
        if text.endswith("+F"):
            transform = True
            text = text[:-2]
        if not text.startswith("t"):
            raise ValueError(f"method spec must start with 't': {spec!r}")
        body = text[1:]
        try:
            if "_" in body:
                i, j = body.split("_")
                return cls(int(i), inner=int(j), transform=transform,
                           simpson_seed=simpson_seed)
            return cls(int(body), transform=transform, simpson_seed=simpson_seed)
        except ValueError as exc:
            raise ValueError(f"bad method spec {spec!r}") from exc

    def __str__(self) -> str:
        body = f"t{self.outer}" if self.inner is None else f"t{self.outer}_{self.inner}"
        return body + ("+F" if self.transform else "")


@dataclass(frozen=True)
class ScalarProblem:
    """One scalar root-finding run: function, start, precision, stop rules."""

    f: Expression
    x0: BigReal
    precision: int = 50
    max_iter: int = 30
    step_tol: Optional[BigReal] = None
    residual_tol: Optional[BigReal] = None
    divergence_bound: Optional[BigReal] = None
    known_root: Optional[BigReal] = None

    def __post_init__(self):
        with mp.workdps(working_dps(self.precision)):
            rules = _stop_rules(self.precision, [as_mpf(self.x0)], self.max_iter,
                                self.step_tol, self.residual_tol, self.divergence_bound)
        for name, value in zip(("step_tol", "residual_tol", "divergence_bound"), rules):
            if getattr(self, name) is None:
                object.__setattr__(self, name, BigReal(value, self.precision))


@dataclass(frozen=True)
class IterateRecord:
    """One trajectory entry: the iterate, its residual, the outgoing step."""

    k: int
    x: BigReal
    fx: Optional[BigReal]
    step: Optional[BigReal] = None  # x_{k+1} - x_k once the next iterate exists
    s: Optional[BigReal] = None  # significant digits against known_root


@dataclass(frozen=True)
class Termination:
    kind: str  # converged | max_iterations | breakdown | diverged
    detail: Optional[str] = None  # step/residual for converged, breakdown kind or nonfinite


@dataclass(frozen=True)
class Trajectory:
    method: MethodId
    iterates: tuple[IterateRecord, ...]
    termination: Termination

    @property
    def final(self) -> IterateRecord:
        return self.iterates[-1]

    def steps(self) -> list[BigReal]:
        return [r.step for r in self.iterates if r.step is not None]


class _PlainTarget:
    """(f, f') pairs from order-1 jets; the plain maps never read f''."""

    def __init__(self, f: Expression):
        self.f = f
        self.jet_evals = 0

    def pair(self, x):
        self.jet_evals += 1
        return _eval(self.f, x, 1)


class _TransformTarget(_PlainTarget):
    """(F, F') pairs for the multiple-root transform F = -f/f' (the "+F" maps).

    F has a simple root wherever f has a multiple one (when f'' does not
    vanish there); its slope follows from the quotient rule:
    F' = f f''/(f')^2 - 1.  The removable 0/0 singularity at the multiple
    root itself is not patched: evaluation there raises DomainError.
    """

    def pair(self, x):
        self.jet_evals += 1
        v, d1, d2 = _eval(self.f, x, 2)
        if d1 == 0:
            if v == 0:
                raise DomainError("transform is 0/0 at a root of both f and f'")
            raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished under the transform")
        return -v / d1, v * d2 / (d1 * d1) - 1


def _ladder_full(n, x, fx, slope0, slope_at, weighted_sum, solve, simpson_seed):
    """Map values y_0..y_n at x plus the weighted slope sums B_0..B_n.

    One ladder serves scalars and vectors.  ``fx`` and ``slope0`` are the
    value and slope at x; ``slope0`` is node 0 of every level.  The caller
    supplies ``slope_at(p)``, ``weighted_sum(weights, slopes)`` and
    ``solve(B, c, F)``, the u with B u = c F, which raises Breakdown when B
    is numerically singular.  Points need only ``+``, ``-`` and ``*``, ``/``
    by an integer.
    """
    ys = [x - solve(slope0, 1, fx)]
    sums = [slope0]
    for k in range(1, n + 1):
        rule = _RULES[k]
        base = ys[0] if (k == 2 and simpson_seed == SEED_NEWTON) else ys[k - 1]
        h = (base - x) / k
        slopes = [slope0] + [slope_at(x + i * h) for i in range(1, k + 1)]
        b = weighted_sum(rule.weights, slopes)
        ys.append(x - solve(b, rule.c, fx))
        sums.append(b)
    return ys, sums


def _weighted_sum(weights, slopes):
    return sum(w * s for w, s in zip(weights, slopes))


def _scalar_ladder(n, target, x, simpson_seed, precision):
    """The ladder on a scalar target: slopes are f', the solve is a division.

    Raises Breakdown when a denominator vanishes: exactly-zero slope at the
    base point, or a slope sum more than ~precision digits below it.
    """
    fx, slope0 = target.pair(x)
    if slope0 == 0:
        raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished at the base point")
    # cancellation trap for the weighted slope sums, relative to the slope
    # at this step's base point
    tiny = mp.mpf(10) ** (5 - precision) * abs(slope0)

    def solve(b, c, f):
        if b == 0 or abs(b) < tiny:
            raise Breakdown(Breakdown.ZERO_DENOMINATOR, "weighted slope sum vanished")
        return c * f / b

    return _ladder_full(n, x, fx, slope0, lambda p: target.pair(p)[1], _weighted_sum,
                        solve, simpson_seed)


def _method_map(m: MethodId, f: Expression, precision: int):
    """x -> t(x) on working-precision values; a composition applies inner first."""
    target = _TransformTarget(f) if m.transform else _PlainTarget(f)
    levels = (m.outer,) if m.inner is None else (m.inner, m.outer)

    def apply(x):
        for n in levels:
            x = _scalar_ladder(n, target, x, m.simpson_seed, precision)[0][n]
        return x

    return apply


def apply_method(m: MethodId, f: Expression, x, precision: int) -> BigReal:
    """One application of a basic or composed map (inner map first)."""
    with mp.workdps(working_dps(precision)):
        return BigReal(_method_map(m, f, precision)(as_mpf(x)), precision)


def _stop_rules(precision, x0, max_iter, step_tol, residual_tol, divergence_bound):
    """The outer loop's step and residual tolerances and divergence bound.

    ``x0`` holds the start point's coordinates; ``max_iter`` must be at least
    1.  Unset values default to 10^(10 - precision) for both tolerances and
    10^6 (1 + max |x0_i|) for the bound.  Call under the working precision.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    check_digits(precision)
    if not all(mp.isfinite(v) for v in x0):
        raise ValueError("x0 must be finite")
    size = max(abs(v) for v in x0)
    default_tol = mp.mpf(10) ** (10 - precision)
    step_tol = default_tol if step_tol is None else as_mpf(step_tol)
    residual_tol = default_tol if residual_tol is None else as_mpf(residual_tol)
    bound = mp.mpf(10) ** 6 * (1 + size) if divergence_bound is None else as_mpf(divergence_bound)
    for name, value in (("step_tol", step_tol), ("residual_tol", residual_tol)):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    if bound <= size:
        raise ValueError("divergence_bound must exceed |x0|")
    return step_tol, residual_tol, bound


def _outer_loop(x, residual, step, norm, max_iter, step_tol, residual_tol, bound):
    """Iterate x <- step(x) until a stop rule fires; scalars and vectors alike.

    ``norm`` is abs or the max norm; a NaN anywhere must make it NaN.  Returns
    the iterates paired with their residuals (None where the residual left its
    domain or was not evaluated), the steps between consecutive iterates, and
    the termination.  Breakdowns (vanishing denominator, singular matrix,
    domain exit, a NaN or infinite iterate or residual) end the run; they are
    never raised to the caller.  No residual is evaluated at a non-finite point.
    """
    try:
        fx = residual(x)
    except DomainError:
        return [(x, None)], [], Termination(BREAKDOWN, "domain")
    points, steps = [(x, fx)], []
    fx_norm = norm(fx)
    if not mp.isfinite(fx_norm):
        return points, steps, Termination(BREAKDOWN, NONFINITE)
    if fx_norm < residual_tol:
        return points, steps, Termination(CONVERGED, "residual")
    for _ in range(max_iter):
        try:
            xn = step(x)
        except Breakdown as exc:
            return points, steps, Termination(BREAKDOWN, exc.kind)
        except DomainError:
            return points, steps, Termination(BREAKDOWN, "domain")
        steps.append(xn - x)
        x_norm = norm(xn)
        if not mp.isfinite(x_norm):
            points.append((xn, None))
            return points, steps, Termination(BREAKDOWN, NONFINITE)
        try:
            fx = residual(xn)
        except DomainError:
            points.append((xn, None))
            return points, steps, Termination(BREAKDOWN, "domain")
        points.append((xn, fx))
        x = xn
        fx_norm = norm(fx)
        if not mp.isfinite(fx_norm):
            return points, steps, Termination(BREAKDOWN, NONFINITE)
        if x_norm > bound:
            return points, steps, Termination(DIVERGED)
        if norm(steps[-1]) < step_tol:
            return points, steps, Termination(CONVERGED, "step")
        if fx_norm < residual_tol:
            return points, steps, Termination(CONVERGED, "residual")
    return points, steps, Termination(MAX_ITERATIONS)


def iterate(problem: ScalarProblem, m: MethodId) -> Trajectory:
    """Run the outer iteration until a stop rule fires.

    Stops on small step, small residual, iteration budget, the divergence
    bound, or a recorded breakdown (vanishing denominator / domain exit).
    Breakdowns terminate the trajectory; they are never raised to the caller.
    """
    precision = problem.precision
    with mp.workdps(working_dps(precision)):
        points, steps, termination = _outer_loop(
            as_mpf(problem.x0),
            lambda x: _eval(problem.f, x, 0),
            _method_map(m, problem.f, precision),
            abs,
            problem.max_iter,
            as_mpf(problem.step_tol),
            as_mpf(problem.residual_tol),
            as_mpf(problem.divergence_bound),
        )
        root = as_mpf(problem.known_root) if problem.known_root is not None else None

        def wrap(value):
            return None if value is None else BigReal(value, precision)

        def sdigits(value):
            if root is None:
                return None
            err = abs(root - value)
            return wrap(mp.mpf(precision) if err == 0 else -mp.log10(err))

        records = tuple(
            IterateRecord(k, wrap(x), wrap(fx), wrap(steps[k] if k < len(steps) else None),
                          sdigits(x))
            for k, (x, fx) in enumerate(points)
        )
    return Trajectory(m, records, termination)
