"""The operand rule of ``series.NAMES``, pinned call by call.

Each entry stands in for the libmp call it is named after: on raw operands
alone it is that call, bit for bit; on a series operand it makes that call
on the constant terms for the constant term of its result; and a raw operand
beside a series reads as the constant series of the same size.
"""

import pytest
from mpmath.libmp import fone, from_str, fzero, round_nearest

from cotesroot import series
from cotesroot.expr import _NAMESPACE

PREC = 120
A = from_str("1.37", PREC, round_nearest)
B = from_str("-0.61", PREC, round_nearest)
HUGE = from_str("3e50", PREC, round_nearest)
# a tail as on z + ε: the exact 1 and 0, then coefficients rounded to PREC
TAIL = [fone, fzero, from_str("0.29", PREC, round_nearest), from_str("-2.3", PREC, round_nearest)]

# each name's raw argument lists, with the positions of its operands that
# may be series: the exponent of mpf_pow is a literal, never a series, and
# the other positions are integers, precisions, rounding modes or digits
CALLS = {
    "mpf_add": ([(A, B, PREC, round_nearest)], (0, 1)),
    "mpf_sub": ([(A, B, PREC, round_nearest)], (0, 1)),
    "mpf_mul": ([(A, B, PREC, round_nearest)], (0, 1)),
    "mpf_div": ([(A, B, PREC, round_nearest)], (0, 1)),
    "mpf_neg": ([(A, PREC, round_nearest)], (0,)),
    "mpf_pos": ([(A, PREC, round_nearest)], (0,)),
    "mpf_abs": ([(A, PREC, round_nearest), (B, PREC, round_nearest)], (0,)),
    "mpf_mul_int": ([(A, 3, PREC, round_nearest)], (0,)),
    "mpf_rdiv_int": ([(3, B, PREC, round_nearest)], (1,)),
    "mpf_pow_int": ([(B, 3, PREC, round_nearest), (fzero, 3, PREC, round_nearest),
                     (A, -2, PREC, round_nearest)], (0,)),
    "mpf_pow": ([(A, B, PREC, round_nearest)], (0,)),
    "mpf_sqrt": ([(A, PREC, round_nearest)], (0,)),
    "mpf_cbrt": ([(A, PREC, round_nearest)], (0,)),
    "mpf_exp": ([(B, PREC, round_nearest)], (0,)),
    "mpf_log": ([(A, PREC, round_nearest)], (0,)),
    "mpf_tan": ([(A, PREC, round_nearest)], (0,)),
    "mpf_cos_sin": ([(A, PREC, round_nearest)], (0,)),
    "mpf_cosh_sinh": ([(B, PREC, round_nearest)], (0,)),
    "mpf_lt": ([(A, B), (B, A), (A, A)], (0, 1)),
    "mpf_le": ([(A, B), (B, A), (A, A)], (0, 1)),
    "mpf_gt": ([(A, B), (B, A), (A, A)], (0, 1)),
    "_sign": ([(A,), (B,), (fzero,)], (0,)),
    "_zero": ([(A,), (fzero,)], (0,)),
    "_beyond": ([(A, PREC), (HUGE, 160), (HUGE, 200)], (0,)),
    "to_str": ([(A, 20), (B, 5)], (0,)),
}
# the entries that read the constant term and return what the raw call returns
READERS = {"mpf_lt", "mpf_le", "mpf_gt", "_sign", "_zero", "_beyond", "to_str"}


def _constant_terms(result):
    """The constant term of a series, of each series of a pair, or a raw result as it is."""
    if type(result) is list:
        return result[0]
    if type(result) is tuple and result and type(result[0]) is list:
        return tuple(part[0] for part in result)
    return result


def _as_series(args, positions):
    """``args`` with the operand at each of ``positions`` made a series on TAIL."""
    return tuple([a, *TAIL] if i in positions else a for i, a in enumerate(args))


def test_every_entry_is_pinned():
    assert set(CALLS) == set(series.NAMES)


def test_every_mpf_call_of_the_tape_has_a_counterpart():
    # a libmp call that reached the series code without one would run on lists
    missing = {name for name in _NAMESPACE if name.startswith("mpf_")} - set(series.NAMES)
    assert not missing


@pytest.mark.parametrize("name", sorted(CALLS))
def test_raw_operands_make_the_call_itself(name):
    for args in CALLS[name][0]:
        assert series.NAMES[name](*args) == _NAMESPACE[name](*args), args


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_series_operand_keeps_the_bits_of_the_call_in_its_constant_term(name):
    arg_lists, positions = CALLS[name]
    for args in arg_lists:
        got = series.NAMES[name](*_as_series(args, positions))
        want = _NAMESPACE[name](*args)
        assert _constant_terms(got) == want, args
        if name in READERS:
            assert got == want
        else:
            parts = got if type(want) is tuple and type(want[0]) is tuple else (got,)
            assert [(type(p), len(p)) for p in parts] == [(list, 1 + len(TAIL))] * len(parts)


@pytest.mark.parametrize("name", ["mpf_add", "mpf_sub", "mpf_mul", "mpf_div"])
@pytest.mark.parametrize("raw_at", [0, 1])
def test_a_raw_operand_beside_a_series_is_its_constant_series(name, raw_at):
    call = series.NAMES[name]
    for a, b in ((A, B), (B, A), (A, fone), (fzero, B)):
        args = [[a, *TAIL], [b, *TAIL], PREC, round_nearest]
        mixed = list(args)
        mixed[raw_at] = args[raw_at][0]
        constant = list(args)
        constant[raw_at] = [args[raw_at][0]] + [fzero] * len(TAIL)
        assert call(*mixed) == call(*constant), (a, b)
