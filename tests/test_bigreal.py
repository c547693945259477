from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath as mp
import pytest

from cotesroot import (MethodId, ScalarProblem, apply_method, bigreal, bisect_root, demo_system,
                       eval_value, nd_iterate, parse, run_table)

# entry points that take a precision, each called with precision p
ENTRY_POINTS = {
    "bigreal": lambda p: bigreal(1, p),
    "eval_value": lambda p: eval_value(parse("x"), 1, p),
    "apply_method": lambda p: apply_method(MethodId(1), parse("x^2-2"), bigreal("1.5", 30), p),
    "ScalarProblem": lambda p: ScalarProblem(parse("x^2-2"), bigreal("1.5", 30), precision=p),
    "nd_iterate": lambda p: nd_iterate(demo_system("affine").function, ["0", "0"], precision=p),
    "bisect_root": lambda p: bisect_root(parse("x^2-2"), 1, 2, p),
    "run_table": lambda p: run_table("tab1nn", p),
}


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


@pytest.mark.parametrize("digits", [2.5, "3", True, False, 0, -1])
def test_decimal_digits_must_be_a_positive_integer(digits):
    # 2.5 and "3" raised TypeError inside mpmath, and True printed one digit
    with pytest.raises(ValueError, match=rf"^digits must be a positive integer, got {digits!r}$"):
        bigreal("1.25", 30).decimal(digits)


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


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("precision, shown", [(20.5, "20.5"), ("30", "'30'"), (True, "True"),
                                              (30.0, "30.0")])
def test_precision_must_be_an_integer(entry, precision, shown):
    # 20.5 failed inside libmp, "30" in a comparison, and True was "at least 15"
    with pytest.raises(ValueError, match=rf"^digits must be an integer, got {shown}$"):
        ENTRY_POINTS[entry](precision)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_precision_is_accepted(entry):
    np = pytest.importorskip("numpy")  # not a dependency of cotesroot
    ENTRY_POINTS[entry](np.int64(30))


def test_bigreal_rejects_nonpositive_precision():
    for precision in (0, 14):
        with pytest.raises(ValueError, match="digits must be at least 15"):
            bigreal(1, precision)
