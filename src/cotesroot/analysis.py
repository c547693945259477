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
come from ``mp.diffs``, whose differences are exact to working precision.
Reference roots come from a bracket, independently of the iterative maps:
bisection seeds them, ``mp.findroot`` polishes them, and a sign change of f
certifies them to the bound bisection itself would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .bigreal import BigReal, as_mpf, check_digits, working_dps, working_prec
from .errors import Breakdown, InsufficientData, RoundoffFloor
from .expr import Expression, _eval
from .solver import (MethodId, Trajectory, _check_finite, _log10_abs, _method_map,
                     _significant_digits)

STABLE_GAP = 0.15  # adjacent ratio gap below which the estimate counts as settled
FLOOR_MARGIN = 15  # digits above the working precision reserved for roundoff noise


@dataclass(frozen=True)
class OrderEstimate:
    q: BigReal
    samples_used: int
    per_pair: tuple[BigReal, ...]


def significant_digits(x: BigReal, z: BigReal) -> BigReal:
    """-log10 of the absolute error; capped at the precision on an exact hit.

    The error is subtracted at the working precision; its log is a float
    (``solver._significant_digits``), so the result holds about 16 significant
    digits and does not depend on mpmath's context.
    """
    precision = max(x.precision, z.precision)
    return BigReal(as_mpf(_significant_digits(x.value, z.value, precision), 53), precision)


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


def _order_estimate(q, usable, ratios, precision) -> OrderEstimate:
    if q <= 0:
        raise InsufficientData("estimated order is not positive")
    return OrderEstimate(
        BigReal(as_mpf(q, 53), precision),
        len(usable),
        tuple(BigReal(as_mpf(r, 53), precision) for r in ratios),
    )


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
    least four of them.
    """
    precision = traj.iterates[0].x.precision
    root = as_mpf(reference_root)
    # log10|e_k|; an exact hit reads as -precision, below the floor.  The
    # first usable log is negative, so the later ones, which the ratios divide
    # by, are too.
    logs = [-_significant_digits(rec.x.value, root, precision) for rec in traj.iterates]
    while logs and logs[0] >= 0:
        logs.pop(0)
    usable, hit_floor = _decreasing_run(logs, FLOOR_MARGIN - precision)
    if len(usable) < 4:
        if hit_floor:
            raise RoundoffFloor(
                f"errors reached the roundoff floor after {len(usable)} usable iterates"
            )
        raise InsufficientData(
            f"need 4 strictly decreasing errors, have {len(usable)}"
        )
    ratios = [usable[k + 1] / usable[k] for k in range(len(usable) - 1)]
    return _order_estimate(_stable_tail(ratios), usable, ratios, precision)


def estimate_order_from_steps(traj: Trajectory) -> OrderEstimate:
    """Three-point order estimate from consecutive steps (no root needed).

    Uses the leading strictly decreasing steps above the roundoff floor,
    judged on their float logs as ``estimate_order`` judges errors.
    """
    precision = traj.iterates[0].x.precision
    logs = [_log10_abs(step.value) for step in traj.steps()]
    usable, _ = _decreasing_run(logs, FLOOR_MARGIN - precision)
    if len(usable) < 3:
        raise InsufficientData(f"need 3 strictly decreasing steps, have {len(usable)}")
    ratios = [
        (usable[k + 1] - usable[k]) / (usable[k] - usable[k - 1])
        for k in range(1, len(usable) - 1)
    ]
    q = _stable_tail(ratios) if len(ratios) > 1 else ratios[-1]
    return _order_estimate(q, usable, ratios, precision)


def map_derivatives_at(
    m: MethodId,
    f: Expression,
    z: BigReal,
    max_order: int,
    precision: int,
) -> list[BigReal]:
    """Derivatives 1..max_order of the map x -> t(x) at a fixed point z.

    ``mp.diffs`` takes central differences with a step below the working
    precision and evaluates the map at (max_order + 1) times that precision,
    so truncation and roundoff stay below the working precision.  A
    Breakdown of the map at a sample point (z itself included) propagates.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    check_digits(precision)
    with mp.workdps(working_dps(precision)):
        # f at the precision mp.diffs sets for each sample, not at the working one
        derivs = mp.diffs(lambda x: _method_map(m, f, precision, mp.mp.prec)(x), as_mpf(z),
                          max_order)
        next(derivs)  # t(z) itself
        return [BigReal(d, precision) for d in derivs]


def _bisect(f: Expression, a, fa, b, target, prec):
    """Halve [a, b], where f(a) = fa and f changes sign, until it is at most
    ``target`` wide or cannot be split at the working precision, ``prec`` bits.

    Returns the final bracket as (a, fa, b); an exact zero of f at a midpoint
    m ends the loop with the empty bracket (m, 0, m).
    """
    while b - a > target:
        mid = (a + b) / 2
        if mid == a or mid == b:
            break
        fm = _eval(f, mid, 0, prec)
        if fm == 0:
            return mid, fm, mid
        if mp.sign(fm) == mp.sign(fa):
            a, fa = mid, fm
        else:
            b = mid
    return a, fa, b


def bisect_root(f: Expression, lo, hi, precision: int) -> BigReal:
    """A root of f in [lo, hi], within 10^(-precision)/2 of a sign change of f.

    The bracket must be finite, ordered and change sign.  Bisection seeds a
    bracket 10^-30 wide (10^(-precision) if that is wider); ``mp.findroot``
    polishes its midpoint at the working precision.  The polished r is kept
    only when it lies in the seed bracket and f changes sign over
    [r - h, r + h] with h = 10^(-precision)/2: the bound bisection's own
    midpoint has.  When the polish of f fails, as secant does at a multiple
    root, ``mp.findroot`` polishes f/f' from the same midpoint under the same
    certificate: its root is simple where f has a multiple one, and an exact
    zero of f there is a root.  When that fails too (a point outside the
    domain, a vanishing f'), bisection goes on from the seed bracket down to
    10^(-precision).
    """
    check_digits(precision)
    prec = working_prec(precision)
    with mp.workdps(working_dps(precision)):
        a, b = as_mpf(lo), as_mpf(hi)
        _check_finite("lo and hi", [a, b])
        if a > b:
            raise ValueError("bisection bracket needs lo <= hi")
        fa = _eval(f, a, 0, prec)
        fb = _eval(f, b, 0, prec)
        if fa == 0:
            return BigReal(a, precision)
        if fb == 0:
            return BigReal(b, precision)
        if mp.sign(fa) == mp.sign(fb):
            raise ValueError("bisection bracket does not change sign")
        target = mp.mpf(10) ** (-precision)
        a, fa, b = _bisect(f, a, fa, b, max(target, mp.mpf(10) ** -30), prec)
        if b - a > target:
            half_width = target / 2

            def value(x):
                return _eval(f, x, 0, mp.mp.prec)

            def newton_correction(x):
                v, d1 = _eval(f, x, 1, mp.mp.prec)
                return v if v == 0 else v / d1

            # findroot computes 20 bits finer; unary + rounds to the working precision
            for g in (value, newton_correction):
                try:
                    r = +mp.findroot(g, (a + b) / 2)
                    if a <= r <= b and (mp.sign(_eval(f, r - half_width, 0, prec))
                                        != mp.sign(_eval(f, r + half_width, 0, prec))):
                        return BigReal(r, precision)
                except (ValueError, ZeroDivisionError, Breakdown):
                    pass
            a, fa, b = _bisect(f, a, fa, b, target, prec)
        return BigReal((a + b) / 2, precision)
