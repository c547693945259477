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

from .bigreal import BigReal, _check_finite, as_mpf, working_dps, working_prec
from .errors import Breakdown, InsufficientData
from .expr import Expression, _eval
from .solver import MethodId, Trajectory, _log10_abs, _method_map, _significant_digits

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

    ``mp.diffs`` takes central differences with a step below the working
    precision and evaluates the map at (max_order + 1) times that precision,
    so truncation and roundoff stay below the working precision.  A
    Breakdown of the map at a sample point (z itself included) propagates;
    a z that is not finite is a ValueError.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    with mp.workdps(working_dps(precision)):
        z = as_mpf(z, working_prec(precision))
        _check_finite("z", [z._mpf_])
        # f at the precision mp.diffs sets for each sample, not at the working one
        derivs = mp.diffs(
            lambda x: mp.make_mpf(_method_map(m, f, precision, mp.mp.prec)(x._mpf_)), z, max_order)
        next(derivs)  # t(z) itself
        return [BigReal(d, precision) for d in derivs]


def _bisect(value, a, fa, b, target):
    """Halve [a, b], where f(a) = fa and f changes sign, until it is at most
    ``target`` wide or cannot be split at the working precision; ``value(x)``
    is f(x).

    Returns the final bracket as (a, fa, b); an exact zero of f at a midpoint
    m ends the loop with the empty bracket (m, 0, m).
    """
    while b - a > target:
        mid = (a + b) / 2
        if mid == a or mid == b:
            break
        fm = value(mid)
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
    with mp.workdps(working_dps(precision)):
        # f at the working precision, or at findroot's finer one inside it
        def value(x):
            return mp.make_mpf(_eval(f, x._mpf_, 0, mp.mp.prec))

        def newton_correction(x):
            v, d1 = map(mp.make_mpf, _eval(f, x._mpf_, 1, mp.mp.prec))
            return v if v == 0 else v / d1

        a, b = (as_mpf(v, working_prec(precision)) for v in (lo, hi))
        _check_finite("lo and hi", [a._mpf_, b._mpf_])
        if a > b:
            raise ValueError("bisection bracket needs lo <= hi")
        fa, fb = value(a), value(b)
        if fa == 0:
            return BigReal(a, precision)
        if fb == 0:
            return BigReal(b, precision)
        if mp.sign(fa) == mp.sign(fb):
            raise ValueError("bisection bracket does not change sign")
        target = mp.mpf(10) ** (-precision)
        a, fa, b = _bisect(value, a, fa, b, max(target, mp.mpf(10) ** -30))
        if b - a > target:
            half_width = target / 2
            # findroot computes 20 bits finer; unary + rounds to the working precision
            for g in (value, newton_correction):
                try:
                    r = +mp.findroot(g, (a + b) / 2)
                    if a <= r <= b and (mp.sign(value(r - half_width))
                                        != mp.sign(value(r + half_width))):
                        return BigReal(r, precision)
                except (ValueError, ZeroDivisionError, Breakdown):
                    pass
            a, fa, b = _bisect(value, a, fa, b, target)
        return BigReal((a + b) / 2, precision)
