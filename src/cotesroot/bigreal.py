"""Arbitrary-precision real values with an explicit decimal precision.

Every number the package computes is an mpmath ``mpf``, apart from the float
diagnostics (significant digits and order estimates).  Each entry point works
at one precision, ``working_dps(p)`` digits (``GUARD_DIGITS`` above the target
``p``, which must be at least ``MIN_DIGITS``) or ``working_prec(p)`` bits, and
returns its results as ``BigReal`` records of the value and ``p``.
Expression evaluation, the scalar and vector solves (``solver`` and
``multivariate``, from the start point to the records) and the map
derivatives and reference roots of ``analysis`` pass those bits (a "+F" map's
derivatives a multiple of them) to every ``mpmath.libmp`` call they make.
Only the user's vector callbacks compute on plain mpf, inside ``mp.workdps``
at ``working_dps(p)`` digits.  All of them round each operation the same
way, so identical inputs yield bit-identical results across runs.
``bigreal`` and ``BigReal.decimal`` take their precision from their
arguments and never read or set mpmath's context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_rational, fzero, round_nearest

GUARD_DIGITS = 10
# the precision of a solve that names none (CLI --digits, ScalarProblem, nd_iterate)
DEFAULT_DIGITS = 50
# below this the default stop tolerance 10^(10 - precision) is no longer small
# enough to mean anything: at 10 digits or fewer it is >= 1 and a run
# "converges" at its start point
MIN_DIGITS = 15


def working_dps(precision: int) -> int:
    """Decimal digits used internally for a target precision; every entry
    point converts its precision here or in ``working_prec`` before it
    computes, so this is the one check that it is an integer (a numpy one
    too, but not a bool) of at least ``MIN_DIGITS``."""
    if not isinstance(precision, Integral) or isinstance(precision, bool):
        raise ValueError(f"digits must be an integer, got {precision!r}")
    if precision < MIN_DIGITS:
        raise ValueError(f"digits must be at least {MIN_DIGITS}, got {precision}")
    return precision + GUARD_DIGITS


def working_prec(precision: int) -> int:
    """Bits used internally for a target precision: those of ``working_dps``."""
    return dps_to_prec(working_dps(precision))


def as_mpf(value, prec: int) -> mp.mpf:
    """Convert to mpf at ``prec`` bits.

    Strings and fractions are rounded once at that precision, so decimal text
    like "1.1" stays faithful at any precision.  A BigReal keeps its value.
    """
    if isinstance(value, BigReal):
        return value.value
    if isinstance(value, Fraction):
        return mp.make_mpf(from_rational(value.numerator, value.denominator, prec, round_nearest))
    return mp.mpf(value, prec=prec)


@dataclass(frozen=True)
class BigReal:
    """Immutable record of an mpf value and the decimal precision it was computed at.

    It has no arithmetic or ordering: compute on the raw ``x.value._mpf_``
    with ``mpmath.libmp`` at ``working_prec(p)`` bits.  Two BigReals are equal exactly when both
    value and precision match.
    """

    value: mp.mpf
    precision: int

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string with ``digits`` significant digits (default: full), a
        positive integer that is not a bool."""
        if digits is None:
            digits = self.precision
        elif not isinstance(digits, Integral) or isinstance(digits, bool) or digits < 1:
            raise ValueError(f"digits must be a positive integer, got {digits!r}")
        return mp.nstr(self.value, digits)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"BigReal({self.decimal()!r}, precision={self.precision})"


def _is_finite(v) -> bool:
    """Whether the raw mpf ``v`` is finite: of the values with no mantissa, only 0 is."""
    return bool(v[1]) or v == fzero


def _check_finite(name, coordinates):
    """ValueError naming the point when a raw coordinate is NaN or infinite."""
    if not all(map(_is_finite, coordinates)):
        raise ValueError(f"{name} must be finite")


def bigreal(value, precision: int) -> BigReal:
    """A BigReal of ``value`` converted at the working precision of ``precision``
    (at least ``MIN_DIGITS``)."""
    return BigReal(as_mpf(value, working_prec(precision)), precision)
