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
and carries the full order n+2; the "newton" wiring (h_2 from y_0) drops
every level n >= 2 to order n+1 (the three-node level to third order) but is
the variant that generated the published reference tables, so the
table-reproduction layer selects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Optional

import mpmath as mp
from mpmath.libmp import fzero, mpf_sub, round_nearest, to_float

from .bigreal import DEFAULT_DIGITS, BigReal, as_mpf, working_dps, working_prec
from .errors import Breakdown
from .expr import Expression, _eval
from .quadrature import MAX_RULE, builtin_rule

SEED_TRAPEZOID = "trapezoid"
SEED_NEWTON = "newton"

# termination kinds
CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
BREAKDOWN = "breakdown"
DIVERGED = "diverged"

_RULES = [builtin_rule(n) for n in range(MAX_RULE + 1)]

# guard digits of a reduced pass of iterate's precision schedule, and the
# precision it starts at: below it the schedule's extra jets cost more than its
# reduced passes save (Newton on a 2-vCPU VM: 1.13x the time at 400 digits,
# even at 500, 0.85x at 600)
_SCHEDULE_GUARD = 20
_SCHEDULE_FROM = 600


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
                outer, inner = int(i), int(j)
            else:
                outer, inner = int(body), None
        except ValueError as exc:
            raise ValueError(f"bad method spec {spec!r}") from exc
        return cls(outer, inner=inner, transform=transform, simpson_seed=simpson_seed)

    def __str__(self) -> str:
        body = f"t{self.outer}" if self.inner is None else f"t{self.outer}_{self.inner}"
        return body + ("+F" if self.transform else "")


@dataclass(frozen=True)
class ScalarProblem:
    """One scalar root-finding run: function, start, precision, stop rules."""

    f: Expression
    x0: BigReal
    precision: int = DEFAULT_DIGITS
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
    s: Optional[float] = None  # significant digits against known_root


@dataclass(frozen=True)
class Termination:
    kind: str  # converged | max_iterations | breakdown | diverged
    detail: Optional[str] = None  # step/residual for converged, the Breakdown kind
    message: Optional[str] = None  # why a breakdown or a ladder-node divergence happened
    level: Optional[int] = None  # the ladder level it happened at, when inside a ladder


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


def _transform_pair(f: Expression, x, prec: int):
    """(F, F') for the multiple-root transform F = -f/f' (the "+F" maps).

    F has a simple root wherever f has a multiple one (when f'' does not
    vanish there); its slope follows from the quotient rule:
    F' = f f''/(f')^2 - 1.  The removable 0/0 singularity at the multiple
    root itself is not patched: evaluation there is a ``domain`` Breakdown.
    """
    v, d1, d2 = _eval(f, x, 2, prec)
    if d1 == 0:
        if v == 0:
            raise Breakdown(Breakdown.DOMAIN, "transform is 0/0 at a root of both f and f'")
        raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished under the transform")
    return -v / d1, v * d2 / (d1 * d1) - 1


class _OutsideBound(Exception):
    """A ladder node left the divergence bound; the outer loop ends the run diverged."""

    def __init__(self, level: int):
        super().__init__("a ladder node left the divergence bound")
        self.level = level


def _ladder_full(n, x, fx, slope0, slope_at, weighted_sum, solve, simpson_seed,
                 norm=abs, bound=None):
    """The map value y_n at x, built up from the Newton value y_0.

    One ladder serves scalars and vectors.  ``fx`` and ``slope0`` are the
    value and slope at x; ``slope0`` is node 0 of every level.  The caller
    supplies ``slope_at(p)``, ``weighted_sum(weights, slopes)`` and
    ``solve(B, c, F)``, the u with B u = c F, which raises Breakdown when B
    is numerically singular.  Points need only ``+``, ``-`` and ``*``, ``/``
    by an integer.  With a ``bound`` that x is inside, a level whose last node
    x + k h has a ``norm`` above it raises ``_OutsideBound`` before any slope
    of the level is taken: a norm is convex, so the nodes between x and the
    last one are inside whenever both ends are.  A Breakdown leaves with
    ``level`` set to the level being built.
    """
    k = 0
    try:
        y = newton = x - solve(slope0, 1, fx)
        for k in range(1, n + 1):
            rule = _RULES[k]
            base = newton if (k == 2 and simpson_seed == SEED_NEWTON) else y
            h = (base - x) / k
            nodes = [x + i * h for i in range(1, k + 1)]
            if bound is not None and norm(nodes[-1]) > bound:
                raise _OutsideBound(k)
            slopes = [slope0] + [slope_at(p) for p in nodes]
            y = x - solve(weighted_sum(rule.weights, slopes), rule.c, fx)
    except Breakdown as exc:
        exc.level = k
        raise
    return y


def _weighted_sum(weights, slopes):
    return sum(w * s for w, s in zip(weights, slopes))


def _levels(m: MethodId) -> tuple[int, ...]:
    """The ladders a map runs, in the order it runs them: inner first."""
    return (m.outer,) if m.inner is None else (m.inner, m.outer)


def _method_map(m: MethodId, f: Expression, precision: int, prec: int, bound=None):
    """x -> t(x) on working-precision values; a composition applies inner first.

    f is evaluated at ``prec`` bits, the working precision of ``precision``
    (``working_prec``) unless a caller such as ``mp.diffs`` works finer.
    ``bound`` is the divergence bound every ladder node must stay inside; x
    must be inside it, and so must a composition's inner result, the outer
    ladder's base point (else ``_OutsideBound`` at level 0).  A ladder breaks
    down at level 0 where the slope at its base point is exactly zero, and at
    the level whose weighted slope sum is more than about ``precision``
    digits below that slope.
    """
    levels = _levels(m)
    trap = mp.mpf(10) ** (5 - precision)  # the cancellation trap, relative to the base slope

    def pair(p):
        return _transform_pair(f, p, prec) if m.transform else _eval(f, p, 1, prec)

    def apply(x):
        def solve(b, c, fx):
            if b == 0 or abs(b) < tiny:
                raise Breakdown(Breakdown.ZERO_DENOMINATOR, "weighted slope sum vanished")
            return c * fx / b

        for i, n in enumerate(levels):
            if i and bound is not None and abs(x) > bound:
                raise _OutsideBound(0)
            try:
                fx, slope0 = pair(x)
                if slope0 == 0:
                    raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished at the base point")
            except Breakdown as exc:
                exc.level = 0
                raise
            tiny = trap * abs(slope0)
            x = _ladder_full(n, x, fx, slope0, lambda p: pair(p)[1], _weighted_sum, solve,
                             m.simpson_seed, bound=bound)
        return x

    return apply


def _nominal_order(m: MethodId) -> int:
    """The theorem's order: n+2 per level, n+1 for n >= 2 under the Newton
    seeding, and the product for a composition.  A lower bound on a simple
    root: a vanishing f'' there (tanh(x-1) at 1) raises the true order."""
    return math.prod(n + 1 if n >= 2 and m.simpson_seed == SEED_NEWTON else n + 2
                     for n in _levels(m))


def apply_method(m: MethodId, f: Expression, x, precision: int) -> BigReal:
    """One application of a basic or composed map (inner map first) from a finite x."""
    with mp.workdps(working_dps(precision)):
        x = as_mpf(x)
        _check_finite("x", [x])
        return BigReal(_method_map(m, f, precision, working_prec(precision))(x), precision)


def _check_finite(name, coordinates):
    """ValueError naming the point when a coordinate is NaN or infinite."""
    if not all(mp.isfinite(v) for v in coordinates):
        raise ValueError(f"{name} must be finite")


def _finite(size):
    """The norm ``size``, or the nonfinite Breakdown when it is NaN or infinite."""
    if not mp.isfinite(size):
        raise Breakdown(Breakdown.NONFINITE, "a value became NaN or infinite")
    return size


def _stop_rules(precision, x0, max_iter, step_tol, residual_tol, divergence_bound):
    """The outer loop's step and residual tolerances and divergence bound.

    ``x0`` holds the start point's coordinates; ``max_iter`` must be at least
    1.  Unset values default to 10^(10 - precision) for both tolerances and
    10^6 (1 + max |x0_i|) for the bound.  Call under the working precision.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    _check_finite("x0", x0)
    size = max(abs(v) for v in x0)
    default_tol = mp.mpf(10) ** (10 - precision)
    step_tol = default_tol if step_tol is None else as_mpf(step_tol)
    residual_tol = default_tol if residual_tol is None else as_mpf(residual_tol)
    bound = mp.mpf(10) ** 6 * (1 + size) if divergence_bound is None else as_mpf(divergence_bound)
    # "not >" rather than "<=", so that NaN fails too
    for name, value in (("step_tol", step_tol), ("residual_tol", residual_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive")
    if not bound > size:
        raise ValueError("divergence_bound must exceed |x0|")
    return step_tol, residual_tol, bound


def _outer_loop(x, residual, step, norm, max_iter, step_tol, residual_tol, bound):
    """Iterate x <- step(x, f(x)) until a stop rule fires; scalars and vectors alike.

    ``norm`` is abs or the max norm; a NaN anywhere must make it NaN.  Pass 0
    takes x0, which ``_stop_rules`` checked, each later pass one step from the
    residual the previous pass took.  A small step converges only where the
    residual norm is at most its value at x0: a map on F = -f/f' also has
    small steps near a pole of f.  Returns the (iterate, residual or None)
    pairs, the steps and the termination.  Any Breakdown ends the run, keeping
    its iterate; it is never raised, and the termination carries its message
    and ladder level.  A non-finite iterate is a breakdown and one outside the
    bound ends the run diverged, both before (and without) the residual there;
    a step whose ladder left the bound (``_OutsideBound``) ends it diverged at
    the last iterate.
    """
    points, steps, fx = [], [], None
    try:
        for _ in range(max_iter + 1):
            if points:
                xn = step(x, fx)
                steps.append(xn - x)
                x = xn
            points.append((x, None))
            if _finite(norm(x)) > bound:
                return points, steps, Termination(DIVERGED)
            fx = residual(x)
            points[-1] = (x, fx)
            fx_norm = _finite(norm(fx))
            if not steps:
                fx0_norm = fx_norm
            elif norm(steps[-1]) < step_tol and fx_norm <= fx0_norm:
                return points, steps, Termination(CONVERGED, "step")
            if fx_norm < residual_tol:
                return points, steps, Termination(CONVERGED, "residual")
    except Breakdown as exc:
        return points, steps, Termination(BREAKDOWN, exc.kind, str(exc), exc.level)
    except _OutsideBound as exc:
        return points, steps, Termination(DIVERGED, None, str(exc), exc.level)
    return points, steps, Termination(MAX_ITERATIONS)


_LOG10_2 = math.log10(2)


def _log10_abs(v) -> float:
    """log10|v| of an mpf as a float, from its binary mantissa and exponent.

    The mantissa is cut to its leading 53 bits first, so that near 1 the two
    terms do not cancel a long mantissa's rounding: the error is within a few
    1e-16·max(1, |log10 v|), below 1e-300 and above 1e300 alike.  Zero gives
    -inf, an infinity inf and NaN NaN.  It never reads or sets mpmath's
    context and costs the same at any precision.
    """
    value = v._mpf_
    _, man, exp, bc = value
    if not man:  # zero, an infinity or NaN
        return -math.inf if value == fzero else abs(to_float(value))
    shift = max(bc - 53, 0)
    return math.log10(man >> shift) + (exp + shift) * _LOG10_2


def _significant_digits(x, z, precision) -> float:
    """s = -log10|z - x| as a float, or ``precision`` on an exact hit.

    z - x is subtracted at ``working_prec(precision)`` bits, rounded as the mpf
    operator rounds it there; the log is a float (``_log10_abs``), since s is
    shown with at most 8 digits, and ``iterate`` and ``significant_digits``
    return it as that float.  Neither step reads mpmath's context.
    """
    err = mpf_sub(z._mpf_, x._mpf_, working_prec(precision), round_nearest)
    return float(precision) if err == fzero else -_log10_abs(mp.make_mpf(err))


def _scheduled_step(m: MethodId, f: Expression, precision: int, max_iter: int, bound):
    """``iterate``'s step: each pass at the precision its iterate can use.

    Pass k maps x_k, with about s correct digits, to x_{k+1} with about q·s,
    q the nominal order.  So it runs at P = q·s + _SCHEDULE_GUARD digits when
    4·P is at most the precision p (Brent & Zimmermann, Modern Computer
    Arithmetic, 2010, section 4.2: Newton with increasing working precision).
    s is -log10|f/f'|, a float log of the mantissa and exponent at any size
    (``_log10_abs``): at x_0 from the full-precision residual and a 30-digit
    f', which does not cancel near a simple root; at a later x_k from the
    check below.  Always at p: every pass below _SCHEDULE_FROM digits, every
    pass of a "+F" map (F = -f/f' cancels near a multiple root), the pass that
    reaches ``max_iter`` and every pass after one run at p.  A reduced pass is
    redone at p when it breaks down, leaves the bound, or returns an x_{k+1}
    whose Newton correction (at P + _SCHEDULE_GUARD digits) shows it as
    accurate as P digits allow: the nominal order is a lower bound, and a pass
    that gains more is cut short by P, not by the map.  This check also catches
    a pass that stalls at its own rounding.  Residuals, stop rules and reported
    iterates stay at p.
    """
    full = _method_map(m, f, precision, working_prec(precision), bound)
    if precision < _SCHEDULE_FROM or m.transform:
        return lambda x, fx: full(x)  # the ladder takes f(x) from its own jet
    q = _nominal_order(m)
    passes = count(1)
    digits = None  # estimated correct digits of the current iterate; False once at p

    def initial_digits(x, fx):
        with mp.workdps(30):
            slope = _eval(f, x, 1, mp.mp.prec)[1]
            return None if slope == 0 else -_log10_abs(fx / slope)

    def reduced(x, s):
        """(x_{k+1}, its digits) from a pass at P digits, or None where that
        does not pay or cannot be trusted."""
        work = math.ceil(q * max(s, 0.0)) + _SCHEDULE_GUARD
        if 4 * work > precision:
            return None
        with mp.workdps(working_dps(work)):
            xn = _method_map(m, f, work, working_prec(work), bound)(+x)
        with mp.workdps(working_dps(work + _SCHEDULE_GUARD)):
            value, slope = _eval(f, xn, 1, working_prec(work + _SCHEDULE_GUARD))
            if slope == 0:
                return None
            correction = abs(value / slope)
            if correction <= mp.mpf(10) ** (10 - work) * max(1, abs(xn)):
                return None
        return xn, -_log10_abs(correction)

    def step(x, fx):
        nonlocal digits
        if digits is not False and next(passes) < max_iter:
            try:
                if digits is None:
                    digits = initial_digits(x, fx)
                result = None if digits is None else reduced(x, digits)
            except (Breakdown, _OutsideBound):
                result = None
            if result is not None:
                xn, digits = result
                return xn
        digits = False
        return full(x)

    return step


def iterate(problem: ScalarProblem, m: MethodId) -> Trajectory:
    """Run the outer iteration until a stop rule fires: small step, small
    residual, iteration budget, the divergence bound, or a recorded breakdown.

    Early passes may run at a reduced precision (``_scheduled_step``)."""
    precision = problem.precision
    prec = working_prec(precision)
    with mp.workdps(working_dps(precision)):
        bound = as_mpf(problem.divergence_bound)
        points, steps, termination = _outer_loop(
            as_mpf(problem.x0),
            lambda x: _eval(problem.f, x, 0, prec),
            _scheduled_step(m, problem.f, precision, problem.max_iter, bound),
            abs,
            problem.max_iter,
            as_mpf(problem.step_tol),
            as_mpf(problem.residual_tol),
            bound,
        )
        root = as_mpf(problem.known_root) if problem.known_root is not None else None

        def wrap(value):
            return None if value is None else BigReal(value, precision)

        records = tuple(
            IterateRecord(k, wrap(x), wrap(fx), wrap(steps[k] if k < len(steps) else None),
                          None if root is None else _significant_digits(x, root, precision))
            for k, (x, fx) in enumerate(points)
        )
    return Trajectory(m, records, termination)
