"""Arbitrary-precision real scalars with an explicit decimal working precision.

The heavy lifting is done by mpmath (mpf values, unbounded exponents); this
module pins down the precision bookkeeping the rest of the package relies on:
every value knows the decimal precision it was computed at, arithmetic runs
with ``GUARD_DIGITS`` extra digits, and identical inputs yield bit-identical
results across runs.
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


@dataclass(frozen=True, eq=False)
class BigReal:
    """Immutable arbitrary-precision real plus its decimal working precision."""

    value: mp.mpf
    precision: int

    @classmethod
    def of(cls, value, precision: int) -> "BigReal":
        if precision < 1:
            raise ValueError(f"precision must be positive, got {precision}")
        with mp.workdps(working_dps(precision)):
            return cls(as_mpf(value), precision)

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string with ``digits`` significant digits (default: full)."""
        n = digits if digits is not None else self.precision
        with mp.workdps(working_dps(self.precision)):
            return mp.nstr(self.value, n)

    def _coerce(self, other) -> tuple[mp.mpf, int]:
        if isinstance(other, BigReal):
            return other.value, max(self.precision, other.precision)
        if isinstance(other, (int, float, str, Fraction)):
            with mp.workdps(working_dps(self.precision)):
                return as_mpf(other), self.precision
        return NotImplemented, 0

    def _binop(self, other, op):
        ov, prec = self._coerce(other)
        if ov is NotImplemented:
            return NotImplemented
        with mp.workdps(working_dps(prec)):
            return BigReal(op(self.value, ov), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, other):
        return self._binop(other, lambda a, b: a ** b)

    def __neg__(self):
        return BigReal(-self.value, self.precision)

    def __abs__(self):
        return BigReal(abs(self.value), self.precision)

    def _cmp_value(self, other):
        if isinstance(other, BigReal):
            return other.value
        if isinstance(other, (int, float)):
            return other
        return NotImplemented

    def __eq__(self, other):
        ov = self._cmp_value(other)
        return NotImplemented if ov is NotImplemented else self.value == ov

    def __lt__(self, other):
        ov = self._cmp_value(other)
        return NotImplemented if ov is NotImplemented else self.value < ov

    def __le__(self, other):
        ov = self._cmp_value(other)
        return NotImplemented if ov is NotImplemented else self.value <= ov

    def __gt__(self, other):
        ov = self._cmp_value(other)
        return NotImplemented if ov is NotImplemented else self.value > ov

    def __ge__(self, other):
        ov = self._cmp_value(other)
        return NotImplemented if ov is NotImplemented else self.value >= ov

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"BigReal({self.decimal()!r}, precision={self.precision})"


def bigreal(value, precision: int) -> BigReal:
    """Shorthand constructor."""
    return BigReal.of(value, precision)
