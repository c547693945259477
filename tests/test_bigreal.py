from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath as mp
import pytest

from cotesroot import bigreal


def test_bigreal_is_a_value_record():
    a, b = bigreal("1.5", 40), bigreal("1.5", 40)
    assert a == b and hash(a) == hash(b)
    # 1.5 is exact in binary, so only the precision tells these apart
    assert bigreal("1.5", 40).value == bigreal("1.5", 60).value
    assert bigreal("1.5", 40) != bigreal("1.5", 60)
    assert bigreal("1.5", 40) != bigreal("1.25", 40)
    assert len({a, b, bigreal("1.5", 60)}) == 2
    with pytest.raises(FrozenInstanceError):
        a.value = 0
    assert float(a) == 1.5
    assert float(bigreal("1.1", 40)) == 1.1
    assert bigreal("1.1", 40).decimal() == "1.1"
    assert bigreal(Fraction(1, 3), 40).decimal(8) == "0.33333333"
    assert repr(bigreal("1.1", 40)) == "BigReal('1.1', precision=40)"


def test_bigreal_rounds_a_fraction_once():
    # rounding 10^26 + 1 and 10^26 - 1 to 86 bits first gives the same value
    # twice, and their quotient 1; rounded once, the quotient is just above 1
    x = bigreal(Fraction(10**26 + 1, 10**26 - 1), 15)
    assert x.value._mpf_ == (0, 2**85 + 1, -85, 86)
    with mp.workprec(400):
        assert abs(x.value - mp.mpf(10**26 + 1) / (10**26 - 1)) < mp.mpf(2) ** -86


def test_bigreal_has_no_arithmetic_or_ordering():
    a, b = bigreal(2, 40), bigreal(3, 40)
    for op in (lambda: a + b, lambda: a - 1, lambda: 2 * a, lambda: a / b, lambda: -a,
               lambda: abs(a), lambda: a < b, lambda: a >= 1):
        with pytest.raises(TypeError):
            op()
    assert a != 2


def test_bigreal_rejects_nonpositive_precision():
    for precision in (0, 14):
        with pytest.raises(ValueError, match="digits must be at least 15"):
            bigreal(1, precision)
