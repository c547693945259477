"""Recursive closed-rule iterative maps, compositions, and the outer loop.

The map with n+1 nodes is built bottom-up per evaluation point x: starting
from the Newton value y_0 = x - f(x)/f'(x), each level k takes the step
h_k = (y_{k-1} - x)/k, forms the weighted slope sum
B_k = sum_i A_i f'(x + i h_k) with the level-k rule weights, and sets
y_k = x - c_k f(x)/B_k.  Every level is computed exactly once and node 0 of
every level is x itself, so one application of the n-th map costs
1 + n(n+1)/2 slope evaluations (one fewer from n = 2 on under the Newton
seeding below, whose level 2 shares a node with level 1), or fewer where
``iterate``'s full passes stop a ladder at the level that has settled.

The same ladder, the same outer loop and the same precision planner run the
vector steps of ``multivariate``: there the slopes are Jacobians, B_k is a
matrix and the division by B_k is an LU solve.

``simpson_seed`` switches how the three-node level obtains its step: the
default "trapezoid" wiring (h_2 from y_1) is the properly recursive ladder
and carries the full order n+2; the "newton" wiring (h_2 from y_0) drops
every level n >= 2 to order n+1 (the three-node level to third order) but is
the variant that generated the published reference tables, so the
table-reproduction layer selects it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Optional

import mpmath as mp
from mpmath.libmp import (fnan, fone, from_int, fzero, mpf_abs, mpf_add, mpf_gt, mpf_le, mpf_lt,
                          mpf_mul, mpf_pos, mpf_pow_int, mpf_sub, to_float)

from .bigreal import DEFAULT_DIGITS, BigReal, _check_finite, _is_finite, as_mpf, working_prec
from .errors import Breakdown
from .expr import _NAMESPACE, _RND, Expression, _eval
from .quadrature import MAX_RULE, _is_index, builtin_rule

SEED_TRAPEZOID = "trapezoid"
SEED_NEWTON = "newton"

# termination kinds
CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
BREAKDOWN = "breakdown"
DIVERGED = "diverged"

_RULES = [builtin_rule(n) for n in range(MAX_RULE + 1)]

# guard digits of a reduced pass of iterate's precision schedule, which are
# also the digits a reduced pass planned above p/4 may fall short of its plan
# by, and the precision the schedule starts at, one gate for every order.
# Schedule on against off from the base starts of x^3+2*x-5, tanh(x-1) and
# x*exp(x)-1 (in-process, alternating, best of seven, three rounds, 2-vCPU
# VM), Newton still loses above it: t0 takes 1.19-1.41x the time at 600
# digits and 1.00-1.21x at 1000, while t1 takes 0.74-1.00x at 600, t2
# 0.53-0.88x and t7 0.20-0.56x
_SCHEDULE_GUARD = 20
_SCHEDULE_FROM = 600
_TEN, _MILLION = from_int(10), from_int(10**6)
# a method spec: "tN" or "tI_J", then "+F"; each index is ASCII digits, and
# a leading minus reaches MethodId's range check
_SPEC = re.compile(r"t(-?[0-9]+)(?:_(-?[0-9]+))?(\+F)?")


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
            if idx is not None and not _is_index(idx):
                raise ValueError(f"map index must be in 0..{MAX_RULE}, got {idx}")
        if self.simpson_seed not in (SEED_TRAPEZOID, SEED_NEWTON):
            raise ValueError(f"unknown simpson_seed {self.simpson_seed!r}")

    @classmethod
    def parse(cls, spec: str, simpson_seed: str = SEED_TRAPEZOID) -> "MethodId":
        """Parse "tN", "tI_J" (composition t_I o t_J), optional "+F" suffix."""
        match = _SPEC.fullmatch(spec.strip())
        if match is None:
            raise ValueError(f"bad method spec {spec!r}")
        outer, inner, transform = match.groups()
        return cls(int(outer), inner=None if inner is None else int(inner),
                   transform=transform is not None, simpson_seed=simpson_seed)

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
        prec = working_prec(self.precision)
        rules = _stop_rules(self.precision, prec, [as_mpf(self.x0, prec)._mpf_], self.max_iter,
                            self.step_tol, self.residual_tol, self.divergence_bound)
        if self.known_root is not None:
            _check_finite("known_root", [as_mpf(self.known_root, prec)._mpf_])
        for name, value in zip(("step_tol", "residual_tol", "divergence_bound"), rules):
            if getattr(self, name) is None:
                object.__setattr__(self, name, BigReal(mp.make_mpf(value), self.precision))


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


def _transform_pair(prec: int, ns=_NAMESPACE):
    """jet -> (F, F') for the multiple-root transform F = -f/f' (the "+F" maps).

    From the jet (f, f', f'') at a point, at ``prec`` bits, with the calls
    named in ``ns``.  F has a simple root wherever f has a multiple one (when
    f'' does not vanish there); its slope follows from the quotient rule:
    F' = f f''/(f')^2 - 1.  The removable 0/0 singularity at the multiple
    root itself is not patched: evaluation there is a ``domain`` Breakdown.
    """
    zero, neg, sub, mul, div = itemgetter("_zero", "mpf_neg", "mpf_sub", "mpf_mul", "mpf_div")(ns)

    def pair(jet):
        v, d1, d2 = jet
        if zero(d1):
            if zero(v):
                raise Breakdown(Breakdown.DOMAIN, "transform is 0/0 at a root of both f and f'")
            raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished under the transform")
        return (div(neg(v, prec, _RND), d1, prec, _RND),
                sub(div(mul(v, d2, prec, _RND), mul(d1, d1, prec, _RND), prec, _RND),
                    fone, prec, _RND))

    return pair


def _point_ops(prec: int, ns=_NAMESPACE):
    """The ladder's point operations at ``prec`` bits, with the calls named in
    ``ns``: p - q, p + q, k·p and p/k for an integer k, each the call the mpf
    operator makes there."""
    sub, add, mul_int, div = itemgetter("mpf_sub", "mpf_add", "mpf_mul_int", "mpf_div")(ns)
    return (lambda p, q: sub(p, q, prec, _RND), lambda p, q: add(p, q, prec, _RND),
            lambda k, p: mul_int(p, k, prec, _RND), lambda p, k: div(p, from_int(k), prec, _RND))


def _weighted_sum(prec: int, ns=_NAMESPACE):
    """sum_i A_i s_i of slopes with integer weights at ``prec`` bits, with the
    calls named in ``ns``, added up from 0 in order as ``sum`` adds mpfs."""
    add, mul_int = itemgetter("mpf_add", "mpf_mul_int")(ns)

    def weighted_sum(weights, slopes):
        total = fzero
        for w, s in zip(weights, slopes):
            total = add(total, mul_int(s, w, prec, _RND), prec, _RND)
        return total

    return weighted_sum


def _argmax(values) -> int:
    """Where ``max`` finds the largest raw mpf: the first of equal ones, and a
    NaN only where it comes first."""
    best = 0
    for i, v in enumerate(values):
        if mpf_gt(v, values[best]):
            best = i
    return best


def _max_norm(vec, prec: int):
    """max |v_i| of raw mpfs at ``prec`` bits, 0 for none, and NaN when any v_i
    is NaN (``max`` would skip a later NaN)."""
    sizes = [mpf_abs(v, prec, _RND) for v in vec] or [fzero]
    return fnan if fnan in sizes else sizes[_argmax(sizes)]


def _ladder_full(n, x, base, slope_at, weighted_sum, solve, points, simpson_seed, outside,
                 settles=None):
    """The map value y_n at x, built up from the Newton value y_0.

    One ladder serves scalars and vectors.  ``base(x)`` gives the value and
    slope at x, (fx, slope0); ``slope0`` is node 0 of every level.  The
    caller supplies ``slope_at(p)``, ``weighted_sum(weights, slopes)`` and
    ``solve(B, c, F)``, the u with B u = c F, which raises Breakdown when B
    is numerically singular.  Points need only the four operations in
    ``points``: p - q, p + q, k·p and p/k for an integer k.  ``outside(p)``
    is true for a p outside the divergence bound that x is inside: a level
    whose last node x + k h is outside raises the ``diverged`` Breakdown
    before any slope of the level is taken, since a norm is convex, so the
    nodes between x and the last one are inside whenever both ends are.
    Every Breakdown, of ``base`` at level 0 included, leaves with ``level``
    set to the level being built.

    Under the Newton seeding level 2's last node x + 2·((y_0 - x)/2) is
    level 1's node x + (y_0 - x), bit for bit, since halving and doubling
    are exact, so it takes level 1's slope there.  ``settles(x)``, when
    given, gives the ladder's settled test ``settled(u, v)``, which is called
    after each level k >= 1 with the corrections u = c_k F/B_k of level k and
    v of level k - 1 (``solve``'s results); the ladder ends at y_k, the map
    of level k, when it returns true.
    """
    sub, add, scale, divide = points
    k = 0
    try:
        settled = settles and settles(x)
        fx, slope0 = base(x)
        correction = solve(slope0, 1, fx)
        y = newton = sub(x, correction)
        for k in range(1, n + 1):
            rule = _RULES[k]
            newton_seeded = k == 2 and simpson_seed == SEED_NEWTON
            h = divide(sub(newton if newton_seeded else y, x), k)
            nodes = [add(x, scale(i, h)) for i in range(1, k + 1)]
            if outside(nodes[-1]):
                raise Breakdown(Breakdown.DIVERGED, "a ladder node left the divergence bound")
            if newton_seeded and nodes[-1] == last[0]:
                slopes = [slope0] + [slope_at(p) for p in nodes[:-1]] + [last[1]]
            else:
                slopes = [slope0] + [slope_at(p) for p in nodes]
            last = nodes[-1], slopes[-1]
            previous, correction = correction, solve(weighted_sum(rule.weights, slopes), rule.c, fx)
            y = sub(x, correction)
            if settled and settled(correction, previous):
                break
    except Breakdown as exc:
        exc.level = k
        raise
    return y


def _settling(precision: int, prec: int, norm, sub):
    """The settled stop at ``prec`` bits: a ladder's base point x_b -> its test
    settled(u, v), true where level k's correction u is at most
    10^-_SCHEDULE_GUARD ||x_b|| and within 10^-(precision + _SCHEDULE_GUARD)
    ||x_b|| of level k - 1's v, in the raw ``norm`` (abs or the max norm);
    ``sub(u, v)`` is u - v.

    The later levels' corrections differ from u by less still, about 10^-10
    of an ulp of y, so y_n has the bits of y_k.  The first bound keeps u's
    own rounding, about 10^-(precision + 10) ||u||, below the second; without
    it a ladder at a root at 0, where u is about x_b, stops where its
    corrections agree to their last bit but y_n does not.  At a multiple
    root the corrections of successive levels differ by a fixed fraction of
    the error, so it does not end a ladder there before the roundoff floor.
    """
    small = mpf_pow_int(_TEN, -_SCHEDULE_GUARD, prec, _RND)
    settle = mpf_pow_int(_TEN, -precision - _SCHEDULE_GUARD, prec, _RND)

    def at(base):
        size = norm(base)
        near, tol = mpf_mul(small, size, prec, _RND), mpf_mul(settle, size, prec, _RND)
        return lambda u, v: mpf_le(norm(u), near) and mpf_le(norm(sub(u, v)), tol)

    return at


def _levels(m: MethodId) -> tuple[int, ...]:
    """The ladders a map runs, in the order it runs them: inner first."""
    return (m.outer,) if m.inner is None else (m.inner, m.outer)


def _method_map(m: MethodId, f: Expression, precision: int, prec: int, bound, arithmetic=None,
                stop=False):
    """x -> t(x) on raw libmp tuples; a composition applies inner first.

    It computes at ``prec`` bits, the working precision of ``precision``
    unless a caller works finer, each step the call the mpf operator makes
    there, and never reads mpmath's context.  ``arithmetic`` is what it
    computes with: a jet function with ``_eval``'s arguments and a namespace
    of the libmp calls by name, bound here once.  It defaults to ``_eval``
    and the libmp calls themselves; ``analysis`` passes ``_eval_series`` and
    the series namespace, so that the same map runs on power series.
    ``bound`` is the raw divergence bound every ladder node must stay inside
    (``_default_bound`` of the start point, unless ``iterate`` is given
    another); x must be inside it, and so must a composition's inner result,
    the outer ladder's base point, else the ``diverged`` Breakdown at level
    0.  A ladder breaks down at level 0 where the slope at its base point is
    exactly zero, and at the level whose weighted slope sum is more than
    about ``precision`` digits below that slope.  ``apply(x, jet)`` reuses
    the raw base jet at x, (f, f') or for "+F" (f, f', f''), that the caller
    has.  A node takes f' alone from code that makes no call f' does not
    need; under "+F" it takes the order-2 jet, since F' needs f, f' and f''.

    With ``stop`` each ladder ends at the first level k >= 1 whose correction
    has settled (``_settling``, with abs), and returns y_k, with the bits of
    y_n.  The rule is per ladder, so a composition's outer ladder runs from
    the inner result and settles by itself.  ``iterate``'s full passes set
    it where its schedule runs.
    """
    evaluate, ns = arithmetic or (_eval, _NAMESPACE)
    zero, abs_, lt, gt, mul, mul_int, div = itemgetter(
        "_zero", "mpf_abs", "mpf_lt", "mpf_gt", "mpf_mul", "mpf_mul_int", "mpf_div")(ns)
    levels = _levels(m)
    order = 2 if m.transform else 1  # of the base jets: F' needs f''
    # the cancellation trap 10^(5 - precision), relative to the base slope
    trap = mpf_pow_int(_TEN, 5 - precision, prec, _RND)
    settles = _settling(precision, prec, lambda v: mpf_abs(v, prec, _RND),
                        lambda u, v: mpf_sub(u, v, prec, _RND)) if stop else None
    points, weighted_sum = _point_ops(prec, ns), _weighted_sum(prec, ns)
    transform = _transform_pair(prec, ns) if m.transform else None
    pair = transform or (lambda jet: jet)

    def outside(p):
        return gt(abs_(p, prec, _RND), bound)

    def slope_at(p):
        return transform(evaluate(f, p, 2, prec))[1] if m.transform else (
            evaluate(f, p, ("d1",), prec))

    def apply(x, jet=None):
        tiny = None

        def base(p):
            nonlocal jet, tiny
            fx, slope0 = pair(jet or evaluate(f, p, order, prec))
            jet = None
            if zero(slope0):
                raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished at the base point")
            tiny = mul(trap, abs_(slope0, prec, _RND), prec, _RND)
            return fx, slope0

        def solve(b, c, fx):
            if zero(b) or lt(abs_(b, prec, _RND), tiny):
                raise Breakdown(Breakdown.ZERO_DENOMINATOR, "weighted slope sum vanished")
            return div(mul_int(fx, c, prec, _RND), b, prec, _RND)

        for i, n in enumerate(levels):
            if i and outside(x):
                raise Breakdown(Breakdown.DIVERGED, "a ladder node left the divergence bound", 0)
            x = _ladder_full(n, x, base, slope_at, weighted_sum, solve, points, m.simpson_seed,
                             outside, settles)
        return x

    return apply


def _nominal_order(m: MethodId) -> int:
    """The theorem's order: n+2 per level, n+1 for n >= 2 under the Newton
    seeding, and the product for a composition.  A lower bound on a simple
    root: a vanishing f'' there (tanh(x-1) at 1) raises the true order."""
    return math.prod(n + 1 if n >= 2 and m.simpson_seed == SEED_NEWTON else n + 2
                     for n in _levels(m))


def apply_method(m: MethodId, f: Expression, x, precision: int) -> BigReal:
    """One application of a basic or composed map (inner map first) from a finite x.

    Every ladder node, and a composition's inner result, must stay inside
    10^6 (1 + |x|) (``_default_bound``), else the ``diverged`` Breakdown.  It
    never reads or sets mpmath's context, so threads may call it at once."""
    prec = working_prec(precision)
    x = as_mpf(x, prec)._mpf_
    _check_finite("x", [x])
    bound = _default_bound(mpf_abs(x, prec, _RND), prec)
    return BigReal(mp.make_mpf(_method_map(m, f, precision, prec, bound)(x)), precision)


def _finite(size):
    """The raw norm ``size``, or the nonfinite Breakdown when it is NaN or infinite."""
    if not _is_finite(size):
        raise Breakdown(Breakdown.NONFINITE, "a value became NaN or infinite")
    return size


def _default_bound(size, prec: int):
    """The divergence bound 10^6 (1 + size) of a start point of raw norm ``size``,
    at ``prec`` bits: every entry point's ladders stay inside it."""
    return mpf_mul(_MILLION, mpf_add(size, fone, prec, _RND), prec, _RND)


def _stop_rules(precision, prec, x0, max_iter, step_tol, residual_tol, divergence_bound):
    """The outer loop's step and residual tolerances and divergence bound, raw.

    ``x0`` holds the start point's coordinates as raw mpfs; ``max_iter`` must be
    at least 1.  Unset values default to 10^(10 - precision) for both
    tolerances and ``_default_bound`` of max |x0_i| for the bound, computed
    and converted at ``prec`` bits, the working precision of ``precision``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    _check_finite("x0", x0)
    size = _max_norm(x0, prec)
    tol = mpf_pow_int(_TEN, 10 - precision, prec, _RND)
    defaults = tol, tol, _default_bound(size, prec)
    rules = [default if value is None else as_mpf(value, prec)._mpf_
             for value, default in zip((step_tol, residual_tol, divergence_bound), defaults)]
    # "not >" rather than "<=", so that NaN fails too
    for name, value in zip(("step_tol", "residual_tol"), rules):
        if not mpf_gt(value, fzero):
            raise ValueError(f"{name} must be positive")
    if not mpf_gt(rules[2], size):
        raise ValueError("divergence_bound must exceed |x0|")
    return tuple(rules)


def _outer_loop(x, residual, step, sub, norm, max_iter, step_tol, residual_tol, bound):
    """Iterate x <- step(x, f(x)) until a stop rule fires; scalars and vectors alike.

    ``sub(p, q)`` is p - q, and ``norm`` a raw mpf, abs or the max norm, which
    a NaN anywhere must make NaN; the tolerances and the bound are raw.  Pass 0
    takes x0, which ``_stop_rules`` checked, each later pass one step from the
    residual the previous pass took.  A small step converges only where the
    residual norm is at most its value at x0: a map on F = -f/f' also has
    small steps near a pole of f.  Returns the (iterate, residual or None)
    pairs, the steps and the termination.  Any Breakdown ends the run, keeping
    its iterate; it is never raised, and the termination carries its message
    and ladder level.  A non-finite iterate is a breakdown and one outside the
    bound ends the run diverged, both before (and without) the residual there;
    a step whose ladder left the bound (the ``diverged`` Breakdown) ends it
    diverged at the last iterate.
    """
    points, steps, fx = [], [], None
    try:
        for _ in range(max_iter + 1):
            if points:
                xn = step(x, fx)
                steps.append(sub(xn, x))
                x = xn
            points.append((x, None))
            if mpf_gt(_finite(norm(x)), bound):
                return points, steps, Termination(DIVERGED)
            fx = residual(x)
            points[-1] = (x, fx)
            fx_norm = _finite(norm(fx))
            if not steps:
                fx0_norm = fx_norm
            elif mpf_lt(norm(steps[-1]), step_tol) and mpf_le(fx_norm, fx0_norm):
                return points, steps, Termination(CONVERGED, "step")
            if mpf_lt(fx_norm, residual_tol):
                return points, steps, Termination(CONVERGED, "residual")
    except Breakdown as exc:
        if exc.kind == Breakdown.DIVERGED:
            return points, steps, Termination(DIVERGED, None, str(exc), exc.level)
        return points, steps, Termination(BREAKDOWN, exc.kind, str(exc), exc.level)
    return points, steps, Termination(MAX_ITERATIONS)


_LOG10_2 = math.log10(2)


def _log10_abs(v) -> float:
    """log10|v| of a raw mpf as a float, from its binary mantissa and exponent.

    The mantissa is cut to its leading 53 bits first, so that near 1 the two
    terms do not cancel a long mantissa's rounding: the error is within a few
    1e-16·max(1, |log10 v|), below 1e-300 and above 1e300 alike.  Zero gives
    -inf, an infinity inf and NaN NaN; a binary exponent too large for a float
    gives the infinity of its sign, as a float log of such a value would.  It
    never reads or sets mpmath's context and costs the same at any precision.
    """
    _, man, exp, bc = v
    if not man:  # zero, an infinity or NaN
        return -math.inf if v == fzero else abs(to_float(v))
    shift = max(bc - 53, 0)
    try:
        return math.log10(man >> shift) + (exp + shift) * _LOG10_2
    except OverflowError:
        return math.inf if exp > 0 else -math.inf


def _significant_digits(x, z, precision) -> float:
    """s = -log10|z - x| of raw mpfs as a float, or ``precision`` on an exact hit.

    z - x is subtracted at ``working_prec(precision)`` bits, rounded as the mpf
    operator rounds it there; the log is a float (``_log10_abs``), since s is
    shown with at most 8 digits, and ``iterate`` and ``significant_digits``
    return it as that float.  Neither step reads mpmath's context.
    """
    err = mpf_sub(z, x, working_prec(precision), _RND)
    return float(precision) if err == fzero else -_log10_abs(err)


def _planner(precision: int, max_iter: int, q: int, reduced, digits, norm, bound):
    """The precision plan of a run's passes, one for ``iterate`` and ``nd_iterate``.

    Pass k maps x_{k-1}, with about s correct digits, to x_k with about q·s,
    q the nominal order, so it needs only P = q·s + _SCHEDULE_GUARD digits of
    the precision p (Brent & Zimmermann, Modern Computer Arithmetic, 2010,
    section 4.2: Newton with increasing working precision).  The plan is P
    where 4·P is at most p.  Above p/4 it is P only where P < p and the passes
    left can finish the run at the nominal order, q·s·q^(max_iter - k) >= p;
    a run that ends at ``max_iter`` before it converges then runs those
    passes at p.  One estimate, ``digits``, both plans a pass and judges its
    result: a reduced pass is redone at p when it breaks down, when the
    estimate at x_k breaks down, or when x_k is as accurate as P digits
    allow, an estimate of at least P - 10 - log10 max(1, ||x_k||): the
    nominal order is a lower bound, and a pass that gains more is cut short
    by P, not by the map.  This also catches a pass that stalls at its own
    rounding.  A pass planned above p/4 is also redone at p when x_k falls
    short of its plan, an estimate below q·s - _SCHEDULE_GUARD, as at a
    multiple root, where the gain is linear.  A reduced x_k outside the raw
    ``bound`` in the raw ``norm`` is kept as it is, with no estimate there,
    and the outer loop ends the run diverged.  The pass that reaches
    ``max_iter`` runs at p, and so does every pass after one that ran at p.

    The caller gives ``reduced(x, fx, work)``, the pass from x, whose residual
    at p is fx, at ``work`` digits, and ``digits(y)``, the estimate of y's
    correct digits, -log10 of its Newton correction's norm, which may raise
    Breakdown.  Returns attempt(x, fx): x's next iterate from a pass at its
    plan, or None where the pass runs at p, which the caller's full step
    then runs.  The caller's passes at p stop each ladder at the level that
    has settled (``_settling``).
    """
    passes = count(1)
    planning = True

    def plan(k, s):
        work = math.ceil(q * s) + _SCHEDULE_GUARD
        if 4 * work <= precision:
            return work
        # q·s·q^(max_iter - k) >= p in logs, the exponent capped at p, past which
        # it exceeds p anyway; s > 0 here, since 4·work > p >= _SCHEDULE_FROM
        finishes = (math.log(q * s) + min(max_iter - k, precision) * math.log(q)
                    >= math.log(precision))
        return work if work < precision and finishes else precision

    def attempt(x, fx):
        nonlocal planning
        k = next(passes)
        if planning and k < max_iter:
            try:
                s = max(digits(x), 0.0)
                work = plan(k, s)
                if work < precision:
                    xn = reduced(x, fx, work)
                    size = norm(xn)
                    if mpf_gt(size, bound):
                        return xn
                    gained = digits(xn)
                    if gained < work - 10 - max(_log10_abs(size), 0.0) and (
                            4 * work <= precision or gained >= q * s - _SCHEDULE_GUARD):
                        return xn
            except Breakdown:
                pass
        planning = False
        return None

    return attempt


def _residual_and_step(m: MethodId, f: Expression, precision: int, max_iter: int, bound):
    """``iterate``'s residual and step: each pass at the precision its iterate can use.

    From _SCHEDULE_FROM digits on plain maps the passes follow ``_planner``,
    with the estimate s = log10|f'| - log10|f| from the residual's base jet
    at p, which does not cancel near a simple root.  Always at p: every pass
    below _SCHEDULE_FROM digits and every pass of a "+F" map (F = -f/f'
    cancels near a multiple root).  Residuals, stop rules and reported
    iterates stay at p.

    Where the schedule runs, each ladder of a pass at p also stops at the
    level whose correction has settled (``_method_map``'s ``stop``), with
    the bits of the whole ladder: a pass from an iterate with s correct
    digits needs only the levels whose order brings s past p.  Reduced
    passes run whole ladders: each is planned to gain the map's full order.

    The residual is the f of the base jet at p (order 0 has the same bits),
    kept with its point, which the estimate reads and a pass at p from that
    point reuses, a redone one too; it is f alone only where that jet breaks
    down (abs at 0), and then the estimate and the step do too.
    """
    prec = working_prec(precision)
    scheduled = precision >= _SCHEDULE_FROM and not m.transform
    full = _method_map(m, f, precision, prec, bound, stop=scheduled)
    order = 2 if m.transform else 1  # of the base jet: F' needs f''
    last = (None, None, None)  # (raw x, f at p there, base jet there or None)

    def residual(x):
        nonlocal last
        if x != last[0]:
            try:
                jet = _eval(f, x, order, prec)
            except Breakdown:
                jet = None
            last = x, _eval(f, x, 0, prec) if jet is None else jet[0], jet
        return last[1]

    def digits(x):
        residual(x)
        if last[2] is None or last[2][1] == fzero:
            raise Breakdown(Breakdown.ZERO_DERIVATIVE, "no f' at the digit estimate")
        return _log10_abs(last[2][1]) - _log10_abs(last[2][0])

    def reduced(x, _fx, work):
        low = working_prec(work)
        return _method_map(m, f, work, low, bound)(mpf_pos(x, low, _RND))

    attempt = _planner(precision, max_iter, _nominal_order(m), reduced, digits,
                       lambda v: mpf_abs(v, prec, _RND), bound)

    def step(x, fx):
        jet = last[2] if x == last[0] else None  # the estimate may move the cache
        return (attempt(x, fx) if scheduled else None) or full(x, jet)

    return residual, step


def iterate(problem: ScalarProblem, m: MethodId) -> Trajectory:
    """Run the outer iteration until a stop rule fires: small step, small
    residual, iteration budget, the divergence bound, or a recorded breakdown.

    From 600 digits up on plain maps, each pass before the last runs at the
    precision its iterate's digit estimate plans for it, where that is below
    the full precision and, for a plan above a quarter of it, where the
    passes left can still reach it and the result meets its plan.  The
    estimate reads the base jet that the residual takes at the full
    precision, and the first pass at that precision reuses the jet; the
    ladders of the passes at the full precision stop at the level whose
    correction has settled, with the whole ladder's bits
    (``_residual_and_step``).  No pass reads or sets mpmath's context, so
    threads may run solves at once."""
    precision = problem.precision
    prec = working_prec(precision)
    x0 = as_mpf(problem.x0, prec)._mpf_
    rules = [as_mpf(v, prec)._mpf_
             for v in (problem.step_tol, problem.residual_tol, problem.divergence_bound)]
    points, steps, termination = _outer_loop(
        x0, *_residual_and_step(m, problem.f, precision, problem.max_iter, rules[2]),
        _point_ops(prec)[0], lambda v: mpf_abs(v, prec, _RND), problem.max_iter, *rules)
    root = None if problem.known_root is None else as_mpf(problem.known_root, prec)._mpf_

    def wrap(value):
        return None if value is None else BigReal(mp.make_mpf(value), precision)

    records = tuple(
        IterateRecord(k, wrap(x), wrap(fx), wrap(steps[k] if k < len(steps) else None),
                      None if root is None else _significant_digits(x, root, precision))
        for k, (x, fx) in enumerate(points)
    )
    return Trajectory(m, records, termination)
