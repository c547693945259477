"""Diagnostics: significant digits, convergence-order estimates, map derivatives.

The order estimator uses the known-root error definition
q_k = ln|e_{k+1}| / ln|e_k| with e_k = z - x_k and reports the last stable
ratio; a step-based three-point variant is provided for problems without a
known root.  Map derivatives at a fixed point are probed by symmetric finite
differences with Richardson extrapolation; exact stencil weights are solved
once in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp

from .bigreal import BigReal, as_mpf, working_dps
from .errors import InsufficientData, RoundoffFloor
from .expr import Expression, _eval
from .quadrature import _solve_fraction_free
from .solver import MethodId, Trajectory, _method_map

STABLE_GAP = 0.15  # adjacent ratio gap below which the estimate counts as settled
FLOOR_MARGIN = 15  # digits above the working precision reserved for roundoff noise


@dataclass(frozen=True)
class OrderEstimate:
    q: BigReal
    samples_used: int
    per_pair: tuple[BigReal, ...]


def significant_digits(x: BigReal, z: BigReal) -> BigReal:
    """-log10 of the absolute error; capped at the precision on an exact hit."""
    precision = max(x.precision, z.precision)
    with mp.workdps(working_dps(precision)):
        err = abs(z.value - x.value)
        if err == 0:
            return BigReal(mp.mpf(precision), precision)
        return BigReal(-mp.log10(err), precision)


def _decreasing_run(values, floor):
    """Leading strictly decreasing values above ``floor``; whether the floor cut them short."""
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
        BigReal(q, precision),
        len(usable),
        tuple(BigReal(r, precision) for r in ratios),
    )


def _stable_tail(ratios) -> mp.mpf:
    for i in range(len(ratios) - 1, 0, -1):
        if abs(ratios[i] - ratios[i - 1]) < STABLE_GAP:
            return ratios[i]
    raise InsufficientData("convergence ratios never settled")


def estimate_order(traj: Trajectory, reference_root: BigReal) -> OrderEstimate:
    """Estimated convergence order from a trajectory and a trusted root.

    Uses the iterates whose errors are below 1 (inside the contraction
    regime), strictly decreasing, and above the roundoff floor
    10^(-precision+15).  Needs at least four of them.
    """
    precision = traj.iterates[0].x.precision
    with mp.workdps(working_dps(precision)):
        root = as_mpf(reference_root)
        floor = mp.mpf(10) ** (FLOOR_MARGIN - precision)
        errors = [abs(root - rec.x.value) for rec in traj.iterates]
        while errors and errors[0] >= 1:
            errors.pop(0)
        usable, hit_floor = _decreasing_run(errors, floor)
        if len(usable) < 4:
            if hit_floor:
                raise RoundoffFloor(
                    f"errors reached the roundoff floor after {len(usable)} usable iterates"
                )
            raise InsufficientData(
                f"need 4 strictly decreasing errors, have {len(usable)}"
            )
        ratios = [mp.log(usable[k + 1]) / mp.log(usable[k]) for k in range(len(usable) - 1)]
        return _order_estimate(_stable_tail(ratios), usable, ratios, precision)


def estimate_order_from_steps(traj: Trajectory) -> OrderEstimate:
    """Three-point order estimate from consecutive steps (no root needed)."""
    precision = traj.iterates[0].x.precision
    with mp.workdps(working_dps(precision)):
        floor = mp.mpf(10) ** (FLOOR_MARGIN - precision)
        usable, _ = _decreasing_run([abs(step.value) for step in traj.steps()], floor)
        if len(usable) < 3:
            raise InsufficientData(f"need 3 strictly decreasing steps, have {len(usable)}")
        ratios = [
            mp.log(usable[k + 1] / usable[k]) / mp.log(usable[k] / usable[k - 1])
            for k in range(1, len(usable) - 1)
        ]
        q = _stable_tail(ratios) if len(ratios) > 1 else ratios[-1]
        return _order_estimate(q, usable, ratios, precision)


@lru_cache(maxsize=None)
def _stencil_weights(half_width: int, order: int) -> tuple[Fraction, ...]:
    """Exact weights w with sum_k w_k k^i = [i == order] for i = 0..2*half_width."""
    offsets = range(-half_width, half_width + 1)
    rows = [[k**i for k in offsets] for i in range(len(offsets))]
    return tuple(_solve_fraction_free(rows, [int(i == order) for i in range(len(offsets))]))


def map_derivatives_at(
    m: MethodId,
    f: Expression,
    z: BigReal,
    max_order: int,
    precision: int,
) -> list[BigReal]:
    """Derivatives 1..max_order of the map x -> t(x) at a fixed point z.

    Symmetric finite differences on a stencil of width 2*max_order+1 with
    step 10^(-precision/(max_order+2)), extrapolated over two Richardson
    levels.  Raises RoundoffFloor when the two extrapolation levels disagree
    by more than 1e-5 relative.
    """
    if not 1 <= max_order <= 5:
        raise ValueError("max_order must be in 1..5")
    if precision < 50 * max_order:
        raise ValueError(f"need precision >= {50 * max_order} for max_order={max_order}")

    half = max_order
    with mp.workdps(working_dps(precision)):
        center = as_mpf(z)
        h0 = mp.mpf(10) ** (mp.mpf(-precision) / (max_order + 2))
        t = _method_map(m, f, precision)
        samples = []
        for level in range(3):
            h = h0 / 2**level
            samples.append([t(center + k * h) for k in range(-half, half + 1)])
        results = []
        for order in range(1, max_order + 1):
            weights = [as_mpf(w) for w in _stencil_weights(half, order)]
            fact = factorial(order)
            diffs = []
            for level in range(3):
                h = h0 / 2**level
                acc = mp.fsum(w * s for w, s in zip(weights, samples[level]))
                diffs.append(fact * acc / h**order)
            first = (4 * diffs[1] - diffs[0]) / 3
            second = (4 * diffs[2] - diffs[1]) / 3
            extrapolated = (16 * second - first) / 15
            disagreement = abs(extrapolated - second)
            if disagreement > mp.mpf("1e-5") * max(abs(extrapolated), mp.mpf(1)):
                raise RoundoffFloor(
                    f"extrapolation levels disagree at derivative order {order}"
                )
            results.append(BigReal(extrapolated, precision))
        return results


def bisect_root(f: Expression, lo, hi, precision: int) -> BigReal:
    """Reference root by plain bisection; independent of the iterative maps.

    The bracket must change sign.  The result is accurate to roughly
    10^(-precision); intended for reference values, not speed.
    """
    with mp.workdps(working_dps(precision)):
        a, b = as_mpf(lo), as_mpf(hi)
        fa = _eval(f, a, 0)
        fb = _eval(f, b, 0)
        if fa == 0:
            return BigReal(a, precision)
        if fb == 0:
            return BigReal(b, precision)
        if mp.sign(fa) == mp.sign(fb):
            raise ValueError("bisection bracket does not change sign")
        target = mp.mpf(10) ** (-precision)
        while b - a > target:
            mid = (a + b) / 2
            if mid == a or mid == b:
                break
            fm = _eval(f, mid, 0)
            if fm == 0:
                return BigReal(mid, precision)
            if mp.sign(fm) == mp.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        return BigReal((a + b) / 2, precision)
