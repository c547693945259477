"""Arbitrary-precision real values with an explicit decimal precision.

Every number the package computes is an mpmath ``mpf``.  Each entry point
sets one working precision, ``mp.workdps(working_dps(p))`` (``GUARD_DIGITS``
above the target ``p``), computes on plain mpf inside it, and returns its
results as ``BigReal`` records of the value and ``p``.  There is no second
arithmetic layer, so identical inputs yield bit-identical results across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

GUARD_DIGITS = 10
# below this the default stop tolerance 10^(10 - precision) is no longer small
# enough to mean anything: at 10 digits or fewer it is >= 1 and a run
# "converges" at its start point
MIN_DIGITS = 15


def working_dps(precision: int) -> int:
    """Decimal digits used internally for a target precision."""
    return precision + GUARD_DIGITS


def check_digits(precision: int) -> None:
    """Reject a solve precision below ``MIN_DIGITS``."""
    if precision < MIN_DIGITS:
        raise ValueError(f"digits must be at least {MIN_DIGITS}, got {precision}")


def as_mpf(value) -> mp.mpf:
    """Convert to mpf under the current mpmath context.

    Strings are rounded at the active context precision, so conversion of
    decimal text like "1.1" stays faithful at any requested precision.
    """
    if isinstance(value, BigReal):
        return value.value
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    return mp.mpf(value)


@dataclass(frozen=True)
class BigReal:
    """Immutable record of an mpf value and the decimal precision it was computed at.

    It has no arithmetic or ordering: compute on ``x.value`` inside
    ``mp.workdps(working_dps(p))``.  Two BigReals are equal exactly when both
    value and precision match.
    """

    value: mp.mpf
    precision: int

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string with ``digits`` significant digits (default: full)."""
        n = digits if digits is not None else self.precision
        with mp.workdps(working_dps(self.precision)):
            return mp.nstr(self.value, n)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"BigReal({self.decimal()!r}, precision={self.precision})"


def bigreal(value, precision: int) -> BigReal:
    """A BigReal of ``value`` converted at the working precision of ``precision``."""
    if precision < 1:
        raise ValueError(f"precision must be positive, got {precision}")
    with mp.workdps(working_dps(precision)):
        return BigReal(as_mpf(value), precision)
