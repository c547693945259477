"""Diagnostics: significant digits, convergence-order estimates, map
derivatives and reference roots.

The order estimator uses the known-root error definition
q_k = ln|e_{k+1}| / ln|e_k| with e_k = z - x_k and reports the last stable
ratio; a step-based three-point variant is provided for problems without a
known root.  Errors are subtracted at the working precision, but every log
(the significant digits s = -log10|e| and the logs in the order ratios) is a
float log of the binary mantissa and exponent (``solver._log10_abs``), at the
precision it is shown at, never at the working precision; none of these
functions reads or sets mpmath's context.  Map derivatives at a fixed point
come from mpmath's ``diffs`` on a private context, whose differences are exact
to working precision.  Reference roots come from a bracket: bisection seeds
them, the library's own "t0+F" map polishes them, and a sign change of f
certifies them to the bound bisection itself would give, independently of
the maps.  Bisection, polish and certificate compute on raw ``mpmath.libmp``
tuples, ``diffs`` on its private context: neither reads nor sets mpmath's
global one.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import mpmath as mp
from mpmath.libmp import fzero, mpf_add, mpf_gt, mpf_le, mpf_pow_int, mpf_shift, mpf_sign, mpf_sub

from .bigreal import BigReal, _check_finite, as_mpf, working_prec
from .errors import Breakdown, InsufficientData
from .expr import _RND, Expression, _eval
from .solver import _TEN, MethodId, Trajectory, _log10_abs, _method_map, _significant_digits

STABLE_GAP = 0.15  # adjacent ratio gap below which the estimate counts as settled
FLOOR_MARGIN = 15  # digits above the working precision reserved for roundoff noise


@dataclass(frozen=True)
class OrderEstimate:
    q: float
    samples_used: int
    per_pair: tuple[float, ...]


def significant_digits(x: BigReal, z: BigReal) -> float:
    """-log10 of the absolute error as a float; the precision on an exact hit.

    The error is subtracted at the working precision of the finer of the two
    precisions; its log is a float (``solver._significant_digits``), good to
    about 16 significant digits, and does not depend on mpmath's context.
    """
    return _significant_digits(x.value._mpf_, z.value._mpf_, max(x.precision, z.precision))


def _decreasing_run(values, floor):
    """Leading strictly decreasing values above ``floor``; whether the floor cut them short.

    The values are float logs, so the differences of usable ones, which the
    order ratios divide by, are never zero."""
    usable = []
    for value in values:
        if value <= floor:
            return usable, True
        if usable and value >= usable[-1]:
            break
        usable.append(value)
    return usable, False


def _stable_tail(ratios) -> float:
    for i in range(len(ratios) - 1, 0, -1):
        if abs(ratios[i] - ratios[i - 1]) < STABLE_GAP:
            return ratios[i]
    raise InsufficientData("convergence ratios never settled")


def estimate_order(traj: Trajectory, reference_root: BigReal) -> OrderEstimate:
    """Estimated convergence order from a trajectory and a trusted root.

    Uses the iterates whose errors are below 1 (inside the contraction
    regime), strictly decreasing, and above the roundoff floor
    10^(-precision+15), all three judged on the float logs of the errors: two
    errors whose logs agree to float precision do not decrease.  Needs at
    least four of them, else raises InsufficientData, whose message names the
    roundoff floor when the errors reached it before the fourth.
    """
    precision = traj.iterates[0].x.precision
    root = as_mpf(reference_root, working_prec(precision))._mpf_
    # log10|e_k|; an exact hit reads as -precision, below the floor.  The
    # first usable log is negative, so the later ones, which the ratios divide
    # by, are too.
    logs = [-_significant_digits(rec.x.value._mpf_, root, precision) for rec in traj.iterates]
    while logs and logs[0] >= 0:
        logs.pop(0)
    usable, hit_floor = _decreasing_run(logs, FLOOR_MARGIN - precision)
    if len(usable) < 4:
        raise InsufficientData(
            f"errors reached the roundoff floor after {len(usable)} usable iterates"
            if hit_floor else f"need 4 strictly decreasing errors, have {len(usable)}")
    ratios = [usable[k + 1] / usable[k] for k in range(len(usable) - 1)]
    return OrderEstimate(_stable_tail(ratios), len(usable), tuple(ratios))


def estimate_order_from_steps(traj: Trajectory) -> OrderEstimate:
    """Three-point order estimate from consecutive steps (no root needed).

    Uses the leading strictly decreasing steps above the roundoff floor,
    judged on their float logs as ``estimate_order`` judges errors.
    """
    precision = traj.iterates[0].x.precision
    logs = [_log10_abs(step.value._mpf_) for step in traj.steps()]
    usable, _ = _decreasing_run(logs, FLOOR_MARGIN - precision)
    if len(usable) < 3:
        raise InsufficientData(f"need 3 strictly decreasing steps, have {len(usable)}")
    ratios = [
        (usable[k + 1] - usable[k]) / (usable[k] - usable[k - 1])
        for k in range(1, len(usable) - 1)
    ]
    q = _stable_tail(ratios) if len(ratios) > 1 else ratios[-1]
    return OrderEstimate(q, len(usable), tuple(ratios))


def map_derivatives_at(
    m: MethodId,
    f: Expression,
    z: BigReal,
    max_order: int,
    precision: int,
) -> list[BigReal]:
    """Derivatives 1..max_order of the map x -> t(x) at a fixed point z.

    ``diffs`` takes central differences with a step below the working
    precision and evaluates the map at (max_order + 1) times that precision,
    so truncation and roundoff stay below the working precision.  It runs on
    a private mpmath context at the working precision, so the global one is
    neither read nor set.  A Breakdown of the map at a sample point (z itself
    included) propagates; a z that is not finite is a ValueError.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    ctx = mp.MPContext()
    ctx.prec = working_prec(precision)
    z = as_mpf(z, ctx.prec)._mpf_
    _check_finite("z", [z])
    # t(z), then its derivatives; each sample of the map runs at the precision
    # diffs sets for it, not at the working one
    _, *derivs = ctx.diffs(lambda x: ctx.make_mpf(_method_map(m, f, precision, ctx.prec)(x._mpf_)),
                           ctx.make_mpf(z), max_order)
    return [BigReal(mp.make_mpf(d._mpf_), precision) for d in derivs]


def _bisect(value, a, fa, b, target, prec):
    """Halve [a, b], where f(a) = fa and f changes sign, until it is at most
    ``target`` wide or cannot be split at ``prec`` bits; ``value(x)`` is f(x),
    and every number is a raw mpf.

    Returns the final bracket as (a, fa, b); an exact zero of f at a midpoint
    m ends the loop with the empty bracket (m, 0, m).
    """
    while mpf_gt(mpf_sub(b, a, prec, _RND), target):
        mid = mpf_shift(mpf_add(a, b, prec, _RND), -1)
        if mid == a or mid == b:
            break
        fm = value(mid)
        if fm == fzero:
            return mid, fm, mid
        a, fa, b = (mid, fm, b) if mpf_sign(fm) == mpf_sign(fa) else (a, fa, mid)
    return a, fa, b


def bisect_root(f: Expression, lo, hi, precision: int) -> BigReal:
    """A root of f in [lo, hi], within 10^(-precision)/2 of a sign change of f.

    The bracket must be finite, ordered and change sign.  Bisection seeds a
    bracket 10^-30 wide (10^(-precision) if that is wider).  The library's
    "t0+F" map, Newton's map on F = -f/f', polishes its midpoint: F has a
    simple root at simple and multiple roots of f alike, so the map converges
    quadratically to either.  It runs until it returns its argument, at most
    20 times, or until it breaks down; at an exact multiple root, where F is
    0/0, it does, and that root is kept.  The polished r is kept only when it
    lies in the seed bracket and f changes sign over [r - h, r + h] with
    h = 10^(-precision)/2: the bound bisection's own midpoint has.  Else (a
    breakdown of f at r ± h included) bisection goes on from the seed bracket
    down to 10^(-precision).  Every number is a raw mpf at the working
    precision, and mpmath's context is neither read nor set.
    """
    prec = working_prec(precision)
    a, b = (as_mpf(v, prec)._mpf_ for v in (lo, hi))
    _check_finite("lo and hi", [a, b])
    if mpf_gt(a, b):
        raise ValueError("bisection bracket needs lo <= hi")
    value = partial(_eval, f, order=0, prec=prec)
    fa, fb = value(a), value(b)
    if fa == fzero:
        return BigReal(mp.make_mpf(a), precision)
    if fb == fzero:
        return BigReal(mp.make_mpf(b), precision)
    if mpf_sign(fa) == mpf_sign(fb):
        raise ValueError("bisection bracket does not change sign")
    target = mpf_pow_int(_TEN, -precision, prec, _RND)
    a, fa, b = _bisect(value, a, fa, b, mpf_pow_int(_TEN, -min(precision, 30), prec, _RND), prec)
    if mpf_gt(mpf_sub(b, a, prec, _RND), target):
        polish = _method_map(MethodId(0, transform=True), f, precision, prec)
        r = mpf_shift(mpf_add(a, b, prec, _RND), -1)
        with suppress(Breakdown):  # F is 0/0 at an exact multiple root: keep that root
            for _ in range(20):  # a bound: from 10^-30, quadratic steps need log2(p/30) + 2
                r, last = polish(r), r
                if r == last:
                    break
        h = mpf_shift(target, -1)
        with suppress(Breakdown):  # of f at r - h or r + h: r is not certified
            if mpf_le(a, r) and mpf_le(r, b) and mpf_sign(value(mpf_sub(r, h, prec, _RND))) != (
                    mpf_sign(value(mpf_add(r, h, prec, _RND)))):
                return BigReal(mp.make_mpf(r), precision)
        a, fa, b = _bisect(value, a, fa, b, target, prec)
    return BigReal(mp.make_mpf(mpf_shift(mpf_add(a, b, prec, _RND), -1)), precision)
