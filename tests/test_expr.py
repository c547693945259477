import dis
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import mpf_tanh, round_nearest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cotesroot import (
    Breakdown,
    Expression,
    MethodId,
    ParseError,
    ScalarProblem,
    bigreal,
    estimate_order,
    eval_jet,
    eval_value,
    iterate,
    map_derivatives_at,
    parse,
    significant_digits,
)
from cotesroot.bigreal import working_dps, working_prec
from cotesroot.expr import _PRECISIONS_KEPT, _compile, _eval
from reference_tape import reference_eval


def jet_floats(text, x, precision=30):
    j = eval_jet(parse(text), bigreal(x, precision), precision)
    return float(j.f), float(j.d1), float(j.d2)


# ---------------------------------------------------------------- parsing

def test_parse_tanh_shape():
    e = parse("tanh(x-1)")
    assert e.tape == (("x", None), ("num", "1"), ("-", None), ("tanh", None))


def test_parse_polynomial():
    e = parse("x^11 + 4*x^2 - 10")
    assert str(e) == "x^11 + 4*x^2 - 10"
    v, d1, d2 = (float(b) for b in
                 (eval_jet(e, bigreal(2, 30), 30).f,
                  eval_jet(e, bigreal(2, 30), 30).d1,
                  eval_jet(e, bigreal(2, 30), 30).d2))
    assert v == 2**11 + 16 - 10
    assert d1 == 11 * 2**10 + 16
    assert d2 == 110 * 2**9 + 8


def test_parse_unbalanced_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(")
    assert err.value.position == 4


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("sinh(x)")
    assert str(err.value) == "unknown identifier 'sinh' (at position 0)"
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("y + 1")
    assert str(err.value) == "unknown identifier 'y' (at position 0)"
    assert err.value.position == 0


def test_parse_empty_and_trailing():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")
    with pytest.raises(ParseError):
        parse("x 1")
    with pytest.raises(ParseError):
        parse("x @ 1")


def test_parse_trailing_whitespace():
    assert parse("x^2 - 2 \t \n").tape == parse("x^2-2").tape


@pytest.mark.parametrize("text,message,position", [
    ("sin x", "expected '('", 4),
    ("sqrt", "expected '('", 4),
    ("x + * 2", "unexpected '*'", 4),
    ("2*)", "unexpected ')'", 2),
    ("(x + 1", "expected ')'", 6),
    ("exp(x*(2+x)", "expected ')'", 11),
    ("log(x 2)", "expected ')'", 6),
])
def test_parse_errors_name_their_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("instruction", ["sinh", "x; import os", "neg "])
def test_tape_with_an_unknown_instruction_is_refused(instruction):
    """A hand-built tape outside the grammar compiles to nothing."""
    expr = Expression((("x", None), (instruction, None)), "f")
    for evaluate in (eval_value, eval_jet):
        with pytest.raises(ValueError, match="unknown tape instruction"):
            evaluate(expr, 1, 30)


def test_whitespace_insensitive():
    a = jet_floats("tanh( x - 1 )", 1.5)
    b = jet_floats("tanh(x-1)", 1.5)
    assert a == b


def test_power_right_associative():
    v, _, _ = jet_floats("2^3^2", 0.0)
    assert v == 512
    v, _, _ = jet_floats("x^-2", 2.0)
    assert v == 0.25


def test_negation_parse():
    assert parse("-x").tape == (("x", None), ("neg", None))
    # the ^ instruction records whether its exponent depends on x
    assert parse("-x^2").tape == (("x", None), ("neg", None), ("num", "2"), ("^", False))
    assert jet_floats("-x^2", 3.0)[0] == 9.0  # unary binds before ^ in this grammar


def test_constants():
    assert abs(jet_floats("sin(pi)", 0.0)[0]) < 1e-25
    assert abs(jet_floats("log(e)", 0.0)[0] - 1) < 1e-25


# ---------------------------------------------------------------- jets

def test_jet_square():
    assert jet_floats("x^2", 3.0) == (9.0, 6.0, 2.0)


def test_jet_tanh_at_root():
    v, d1, d2 = jet_floats("tanh(x-1)", 1.0)
    assert (v, d1, d2) == (0.0, 1.0, 0.0)


def test_jet_sin_minus_x_at_zero():
    assert jet_floats("sin(x)-x", 0.0) == (0.0, 0.0, 0.0)


def test_cbrt_is_odd():
    assert eval_value(parse("cbrt(x)"), bigreal(-8, 30), 30).value == -2
    v, d1, _ = jet_floats("cbrt(x)", 8.0)
    assert v == 2.0
    assert abs(d1 - 1.0 / 12.0) < 1e-15


def test_fractional_power_not_rewritten_to_cbrt():
    # x^(1/3) on a negative base must fail; the odd root is spelled cbrt(x)
    with pytest.raises(Breakdown) as err:
        eval_value(parse("x^(1/3)"), bigreal(-8, 30), 30)
    assert err.value.kind == Breakdown.DOMAIN
    assert float(eval_value(parse("x^(1/3)"), bigreal(8, 30), 30)) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "text,x",
    [
        ("log(x)", -1), ("log(x)", 0), ("sqrt(x)", -1), ("sqrt(x)", 0),
        ("cbrt(x)", 0), ("abs(x)", 0), ("1/x", 0), ("x^0.5", -1),
        ("x^x", -1), ("x^-1", 0),
    ],
)
def test_jet_domain_errors(text, x):
    with pytest.raises(Breakdown) as err:
        eval_jet(parse(text), bigreal(x, 30), 30)
    assert err.value.kind == Breakdown.DOMAIN
    with pytest.raises(Breakdown) as err, mp.workdps(working_dps(30)):
        # order 1 keeps the derivative-level rules
        _eval(parse(text), mp.mpf(x)._mpf_, 1, working_prec(30))
    assert err.value.kind == Breakdown.DOMAIN


@pytest.mark.parametrize("precision", [3, 0, -5, 14])
def test_evaluation_rejects_precision_below_minimum(precision):
    # the 15-digit minimum of every solve holds for single evaluations too
    for evaluate in (eval_value, eval_jet):
        with pytest.raises(ValueError, match="at least 15"):
            evaluate(parse("x^2-2"), bigreal("1.5", 20), precision)
    assert eval_value(parse("x^2-2"), bigreal("1.5", 15), 15).value == mp.mpf("0.25")


def test_value_allows_kinks_where_jet_does_not():
    assert float(eval_value(parse("abs(x)"), bigreal(0, 30), 30)) == 0.0
    assert float(eval_value(parse("cbrt(x)"), bigreal(0, 30), 30)) == 0.0
    assert float(eval_value(parse("sqrt(x)"), bigreal(0, 30), 30)) == 0.0


def test_abs_away_from_zero():
    v, d1, d2 = jet_floats("abs(x^2-2)", 1.0)  # inside: negative branch
    assert (v, d1, d2) == (1.0, -2.0, -2.0)


def test_variable_exponent():
    v, d1, _ = jet_floats("x^x", 2.0)
    assert v == pytest.approx(4.0)
    assert d1 == pytest.approx(4.0 * (mp.log(2) + 1))


# ------------------------------------------------------- deep nesting

DEEP = {
    "nested-parentheses": ("(" * 1500 + "x" + ")" * 1500, 0),
    "leading-minuses": ("-" * 1500 + "x", 0),
    "flat-sum": ("+".join(["x"] * 3000), 0),
    "power-chain": ("^".join(["x"] * 600) + "-1", 1),
}


@pytest.mark.parametrize("text,root", DEEP.values(), ids=DEEP.keys())
def test_deep_expressions_evaluate_without_recursion(text, root):
    expr = parse(text)
    x = bigreal("1.2", 30)
    assert float(eval_value(expr, x, 30)) == pytest.approx(float(eval_jet(expr, x, 30).f))
    traj = iterate(ScalarProblem(expr, x, precision=30), MethodId(0))
    assert traj.termination.kind == "converged"
    assert abs(float(traj.final.x) - root) < 1e-20


# ------------------------------------------------- randomized properties

def _random_expr(rng, depth):
    if depth == 0:
        return rng.choice(["x", "x", str(rng.randint(1, 9)),
                           f"{rng.randint(1, 9)}.{rng.randint(0, 99):02d}"])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    form = rng.choice([
        "({a})+({b})", "({a})-({b})", "({a})*({b})",
        "({a})/(({b})^2+2)",
        "sin({a})", "cos({a})", "tanh({a})", "exp(sin({a}))",
        "log(({a})^2+2)", "sqrt(({a})^2+1)", "({a})^2", "({a})^3",
    ])
    return form.format(a=a, b=b)


PRECISION = 30


@pytest.mark.parametrize("seed", range(40))
def test_jet_matches_finite_differences(seed):
    """d1/d2 agree with central differences of plain values at 2x precision."""
    rng = random.Random(seed)
    text = _random_expr(rng, rng.randint(1, 3))
    x = rng.uniform(-2, 2)
    expr = parse(text)
    try:
        jet = eval_jet(expr, bigreal(x, PRECISION), PRECISION)
    except Breakdown as exc:
        assert exc.kind == Breakdown.DOMAIN
        pytest.skip("sample point outside the domain")
    if abs(float(jet.f)) > 1e6 or abs(float(jet.d1)) > 1e6 or abs(float(jet.d2)) > 1e6:
        pytest.skip("values too large for a meaningful stencil")

    double = 2 * PRECISION
    with mp.workdps(double + 10):
        h = mp.mpf(10) ** (-PRECISION // 2)
        xs = [mp.mpf(x) - h, mp.mpf(x), mp.mpf(x) + h]
        fm, f0, fp = (eval_value(expr, bigreal(v, double), double).value for v in xs)
        fd1 = (fp - fm) / (2 * h)
        fd2 = (fp - 2 * f0 + fm) / (h * h)
        tol = mp.mpf(10) ** (-PRECISION // 2)
        assert abs(jet.d1.value - fd1) <= tol * max(1, abs(fd1))
        assert abs(jet.d2.value - fd2) <= tol * max(1, abs(fd2))


@pytest.mark.parametrize("seed", range(20))
def test_doubling_precision_agrees(seed):
    rng = random.Random(1000 + seed)
    text = _random_expr(rng, rng.randint(1, 3))
    x = rng.uniform(-2, 2)
    expr = parse(text)
    p = 40
    try:
        low = eval_jet(expr, bigreal(x, p), p)
        high = eval_jet(expr, bigreal(x, 2 * p), 2 * p)
    except Breakdown as exc:
        assert exc.kind == Breakdown.DOMAIN
        pytest.skip("sample point outside the domain")
    with mp.workdps(2 * p + 10):
        tol = mp.mpf(10) ** (-(p - 5))
        for a, b in ((low.f, high.f), (low.d1, high.d1), (low.d2, high.d2)):
            assert abs(a.value - b.value) <= tol * max(1, abs(b.value))


def test_evaluation_deterministic():
    expr = parse("tanh(x-1)*exp(sin(x))+x^3")
    a = eval_jet(expr, bigreal("1.7", 60), 60)
    b = eval_jet(expr, bigreal("1.7", 60), 60)
    assert a.f.value == b.f.value and a.f.decimal() == b.f.decimal()
    assert a.d1.value == b.d1.value
    assert a.d2.value == b.d2.value


def test_number_literals_reparse_at_full_precision():
    # "1.1" is not a binary-exact value; conversion must honor the precision
    v = eval_value(parse("1.1"), bigreal(0, 100), 100)
    with mp.workdps(110):
        assert abs(v.value - mp.mpf("1.1")) < mp.mpf(10) ** -105


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), x=st.floats(-3, 3),
       precision=st.sampled_from([30, 60, 700]))
def test_order_one_is_the_head_of_order_two(seed, x, precision):
    """Order 1 gives eval_jet's (f, f') bit for bit and fails exactly where it
    fails, with the same kind: ``domain``, or ``nonfinite`` for a
    transcendental of an argument beyond 2^prec (a tan of 1/x^k at a tiny x);
    order 0 gives its f bit for bit wherever the jets evaluate."""
    rng = random.Random(seed)
    expr = parse(_any_op_expr(rng, rng.randint(1, 3)))
    point = bigreal(x, precision)
    prec = working_prec(precision)
    try:
        jet = eval_jet(expr, point, precision)
    except Breakdown as exc:
        assert exc.kind in (Breakdown.DOMAIN, Breakdown.NONFINITE)
        with pytest.raises(Breakdown) as err:
            _eval(expr, point.value._mpf_, 1, prec)
        assert err.value.kind == exc.kind
        return
    assert _eval(expr, point.value._mpf_, 1, prec) == (jet.f.value._mpf_, jet.d1.value._mpf_)
    assert _eval(expr, point.value._mpf_, 0, prec) == jet.f.value._mpf_


# Forms _random_expr never makes: unary minus (of x itself too, where a
# point with extra bits shows whether it rounds), tan, cbrt, abs, the
# constants, real, negative, zeroth, first and variable powers, and unguarded
# log, sqrt and division, so the domain rules fire too.
_MORE_FORMS = [
    "-({a})", "-x*({a})", "tan({a})", "cbrt({a})", "abs({a})", "pi*({a})-e", "({a})^1.5",
    "({a})^(-2)", "({a})^0", "({a})^(3-2)", "({a})^({b})", "log({a})",
    "sqrt({a})", "({a})/({b})",
]


def _any_op_expr(rng, depth):
    """A _random_expr function, or one of _MORE_FORMS over smaller ones."""
    if depth == 0 or rng.random() < 0.3:
        return _random_expr(rng, depth)
    a, b = _any_op_expr(rng, depth - 1), _any_op_expr(rng, depth - 1)
    return rng.choice(_MORE_FORMS).format(a=a, b=b)


def _outcome(evaluate):
    """The raw bits of an evaluation, or the type, kind and text of its error.

    An mpf result, or a tuple of them, becomes its raw tuples; a raw result
    stays as it is."""
    try:
        result = evaluate()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), getattr(exc, "kind", None), str(exc)
    if isinstance(result, mp.mpf):
        return result._mpf_
    return tuple(getattr(v, "_mpf_", v) for v in result)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.floats(-3, 3),
    order=st.sampled_from([0, 1, 2]),
    precision=st.sampled_from([30, 60, 700]),
    extra_bits=st.booleans(),
)
def test_raw_tape_matches_mpf_operators_bitwise(seed, x, order, precision, extra_bits):
    """The libmp tape gives the bits and errors of the same formulas on mpf operators.

    The reference runs under mp.workdps; the tape runs outside it, at its own
    precision argument.  With ``extra_bits`` x carries twice the working bits,
    so an operation that forgets to round (unary minus, say) shows.
    """
    rng = random.Random(seed)
    expr = parse(_any_op_expr(rng, rng.randint(1, 3)))
    prec = working_prec(precision)
    with mp.workprec(2 * prec if extra_bits else prec):
        point = mp.mpf(x) + (mp.mpf(rng.getrandbits(prec)) / 2 ** (prec + 8) if extra_bits else 0)
    with mp.workdps(working_dps(precision)):
        expected = _outcome(lambda: reference_eval(expr, point, order))
    assert _outcome(lambda: _eval(expr, point._mpf_, order, prec)) == expected


def _slope_outcomes(expr, x, prec):
    """The outcome of the f'-only code at the raw x, and that of the order-1 jet's f'."""
    return (_outcome(lambda: (_eval(expr, x, ("d1",), prec),)),
            _outcome(lambda: (_eval(expr, x, 1, prec)[1],)))


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.floats(-3, 3) | st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5]),
    precision=st.sampled_from([30, 60, 700]),
)
def test_slope_code_is_the_jets_slope(seed, x, precision):
    """The f'-only code gives the order-1 jet's f' bit for bit, and wherever
    the jet raises it raises the same error, kind and message: pruning keeps
    every domain check and makes a subset of the jet's calls, in its order."""
    rng = random.Random(seed)
    expr = parse(_any_op_expr(rng, rng.randint(1, 3)))
    slope, jet = _slope_outcomes(expr, mp.mpf(x)._mpf_, working_prec(precision))
    assert slope == jet


@pytest.mark.parametrize("text,x,message", [
    ("log(x)+x-2", "0", "log of nonpositive value"),
    ("log(x)+x-2", "-1.5", "log of nonpositive value"),
    ("sqrt(x-1)*x", "0.5", "sqrt of negative value"),
    ("sqrt(x)+x", "0", "derivative of sqrt at 0"),
    ("cbrt(x)*2", "0", "derivative of cbrt at 0"),
    ("abs(x)-1", "0", "derivative of abs at 0"),
    ("1/x+x", "0", "division by zero"),
    ("x^1.5+1", "-2", "real power of a nonpositive base"),
    ("x^x", "-1", "variable power of a nonpositive base"),
    ("(x-1)^(-2)", "1", "zero raised to a negative power"),
])
def test_slope_code_raises_the_jets_breakdown_at_domain_edges(text, x, message):
    expr, prec = parse(text), working_prec(30)
    slope, jet = _slope_outcomes(expr, mp.mpf(x)._mpf_, prec)
    assert slope == jet
    assert slope[:2] == (Breakdown, Breakdown.DOMAIN) and slope[2].startswith(message)


def test_slope_code_of_log_makes_no_log_call():
    """f' of log(x)+x-2 is 1/x + 1, so its f'-only code calls no log; the
    jets and the value do."""
    tape = parse("log(x)+x-2").tape
    assert "mpf_log" not in _compile(tape, ("d1",)).__code__.co_names
    for outputs in (("f",), ("f", "d1"), ("f", "d1", "d2")):
        assert "mpf_log" in _compile(tape, outputs).__code__.co_names


def _libmp_calls(run):
    """The libmp functions compiled code calls, as a multiset of names."""
    return Counter(i.argval for i in dis.get_instructions(run)
                   if i.opname == "LOAD_GLOBAL" and i.argval.startswith("mpf_"))


_POWER_CHECK = "variable power of a nonpositive base"
# per output set, a g^0 whose g only dead code reads, the calls its code makes
# and the domain check it keeps.  In value code the saturation test and the
# cosh_sinh call of tanh are one assignment, so the power under it is dead too.
_DEAD_BRANCHES = {
    ("d1",): ("(tan(x^x))^0", Counter(mpf_le=1), _POWER_CHECK),
    ("f", "d1"): ("(tan(x^x))^0", Counter(mpf_le=1), _POWER_CHECK),
    ("f",): ("tanh(x^1.5)^0+x", Counter(mpf_lt=2, mpf_add=1),
             "real power of a negative base; use cbrt() for odd roots"),
}


@pytest.mark.parametrize("outputs", list(_DEAD_BRANCHES))
def test_dead_branch_code_makes_no_call_but_keeps_its_check(outputs):
    """g^0 is 1, so no output reads g or what only g reads: liveness prunes
    a power's branch block down to its domain check, which still raises at
    x = -1 as the full jet does."""
    text, calls, message = _DEAD_BRANCHES[outputs]
    expr = parse(text)
    assert _libmp_calls(_compile(expr.tape, outputs)) == calls
    with pytest.raises(Breakdown) as err:
        _eval(expr, mp.mpf(-1)._mpf_, outputs, working_prec(30))
    assert err.value.kind == Breakdown.DOMAIN
    assert str(err.value) == message


def test_pruned_code_calls_a_subset_of_the_jets_calls():
    """Every derivative output set is the full jet pruned by liveness, so it
    makes no libmp call the jet does not make, and no call more often."""
    for seed in range(200):
        rng = random.Random(seed)
        tape = parse(_any_op_expr(rng, rng.randint(1, 3))).tape
        jet = _libmp_calls(_compile(tape, ("f", "d1", "d2")))
        for outputs in (("d1",), ("f", "d1")):
            assert _libmp_calls(_compile(tape, outputs)) <= jet, (seed, outputs)


def test_tanh_is_sinh_over_cosh_where_it_differs_from_mpf_tanh():
    """tanh is s/c from one cosh_sinh call at 10 more bits, which rounds
    differently from mpf_tanh in the last bit at a few points in 10^4; at this
    one the tape must still give the reference's bits at every order."""
    expr, precision = parse("tanh(x)"), 30
    prec = working_prec(precision)
    x = bigreal("1.129", precision).value
    with mp.workdps(working_dps(precision)):
        expected = [_outcome(lambda: reference_eval(expr, x, order)) for order in (0, 1, 2)]
    assert [_outcome(lambda: _eval(expr, x._mpf_, order, prec)) for order in (0, 1, 2)] == expected
    assert expected[0] != mpf_tanh(x._mpf_, prec, round_nearest)


def test_tanh_of_a_huge_value_is_its_sign_without_computing_exp():
    """exp(exp(20)) has a binary exponent near 7e8; cosh_sinh there takes
    ln 2 to that many bits, so order 0 must return the sign before it."""
    assert eval_value(parse("tanh(exp(exp(x)))"), 20, 30).value == 1
    assert eval_value(parse("tanh(-exp(exp(x)))"), 20, 30).value == -1
    for sign in (0, 1):
        assert _eval(parse("tanh(x)"), (sign, 1, 10 ** 9, 1), 0, 100) == (sign, 1, 0, 1)


# 3·2^(2^20): one ulp of it is far above 1 at any precision a test uses
HUGE = mp.mpf(3) * mp.mpf(2) ** (2 ** 20)


@pytest.mark.parametrize("text,name", [("exp(x)", "exp"), ("exp(-x)", "exp"), ("sin(x)", "sin"),
                                       ("cos(x)", "cos"), ("tan(x)", "tan"), ("tanh(x)", "tanh"),
                                       ("x^x", "exp")])
def test_transcendental_of_a_huge_argument_is_a_nonfinite_breakdown(text, name):
    """Where |v| >= 2^prec, exp, sin, cos, tan and tanh's derivatives have no
    correct bit, and libmp would reduce v with about 2^20 bits here (6.7 to
    18 s a call): the jet raises instead, and so does the value code, but
    for tanh, whose value saturates to the sign."""
    expr = parse(text)
    start = time.perf_counter()
    with pytest.raises(Breakdown) as err:
        eval_jet(expr, HUGE, 30)
    assert (err.value.kind, str(err.value)) == (
        Breakdown.NONFINITE, f"{name} of an argument too large for the precision")
    if name == "tanh":
        assert eval_value(expr, HUGE, 30).value == 1
    else:
        with pytest.raises(Breakdown) as err:
            eval_value(expr, HUGE, 30)
        assert err.value.kind == Breakdown.NONFINITE
    assert time.perf_counter() - start < 1  # about 1 ms


def test_tanh_saturation_keeps_the_jets_value():
    """Order 0 skips cosh_sinh exactly where that call would give c = s, so
    its f has the bits of the jets' f on both sides of the threshold
    3 * 2^(mag-1) > prec + 24 (mag 11 and 12 below)."""
    expr = parse("tanh(x)")
    for v in ("1024", "1100.5", "2047.75", "-1500.25", "2048", "-3000.5"):
        for prec in range(3030, 3070, 3) if abs(float(v)) < 2048 else range(6100, 6160, 9):
            x = mp.mpf(v)._mpf_
            assert _eval(expr, x, 0, prec) == _eval(expr, x, 1, prec)[0], (v, prec)


@pytest.mark.parametrize("evaluate,name", [
    (lambda f, x: eval_jet(f, x, 30), "x"),
    (lambda f, x: eval_value(f, x, 30), "x"),
    (lambda f, z: map_derivatives_at(MethodId(0), f, z, 1, 30), "z"),
], ids=["eval_jet", "eval_value", "map_derivatives_at"])
@pytest.mark.parametrize("point", ["inf", "-inf", "nan"])
def test_nonfinite_points_are_rejected(evaluate, name, point):
    """The compiled tape folds 0·u to 0 and 1·u to u, which holds at a
    finite x only (at inf, 0·x is NaN), so every entry point that evaluates
    f rejects a NaN or infinite point with a ValueError naming it."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        evaluate(parse("2*x"), bigreal(point, 30))


def test_literals_are_kept_for_the_last_few_precisions():
    """The schedule's reduced passes use a new precision on almost every run,
    so an expression keeps its converted literals for the last
    _PRECISIONS_KEPT precisions only, with the bits of a fresh parse."""
    expr, x = parse("x^3+2.1*x-5+pi"), mp.mpf("1.3")._mpf_
    precisions = range(100, 200)
    for prec in [*precisions, *precisions[:3]]:
        assert _eval(expr, x, 2, prec) == _eval(parse(expr.text), x, 2, prec)
        assert len(expr._literals) <= _PRECISIONS_KEPT
    assert list(expr._literals) == [*precisions[3 - _PRECISIONS_KEPT:], *precisions[:3]]


def test_scheduled_iterate_compiles_per_order_not_per_precision():
    """From 600 digits up the schedule runs reduced passes at a new precision
    on almost every run; the tape compiles once per output set (the order-1
    jet and the nodes' f', and no value code, which a scheduled solve
    compiles only where a jet breaks down), and a second run at other
    precisions reuses the compiled code."""
    expr = parse("x^3+2*x-5")
    compiled = []
    for x0 in ("2", "2.7"):
        run = iterate(ScalarProblem(expr, bigreal(x0, 1000), precision=1000), MethodId(4))
        assert run.termination.kind == "converged"
        compiled.append(dict(expr._code))
    assert set(compiled[1]) == {1, ("d1",)}
    assert all(compiled[1][key] is code for key, code in compiled[0].items())
    assert len(expr._literals) > len(expr._code)


# the text's functions in plain mpmath; cbrt is the real odd root
_PLAIN = {"pi": mp.pi, "e": mp.e, "sin": mp.sin, "cos": mp.cos, "tan": mp.tan, "tanh": mp.tanh,
          "exp": mp.exp, "log": mp.log, "sqrt": mp.sqrt, "abs": abs, "mpf": mp.mpf,
          "cbrt": lambda u: mp.cbrt(u) if u >= 0 else -mp.cbrt(-u)}


def _plain_function(text):
    """The function text as a Python function on mpf: ``^`` becomes ``**`` and
    every literal an mpf of its decimal text.  Unary minus binds tighter than
    ``^`` in the grammar and looser in Python, but _any_op_expr texts never
    put one directly before a ``^``."""
    source = re.sub(r"\d+\.\d*|\.\d+|\d+|\^",
                    lambda m: "**" if m.group() == "^" else f"mpf('{m.group()}')", text)
    return eval(f"lambda x: {source}", dict(_PLAIN))


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-3000, 3000),
    order=st.sampled_from([0, 1, 2]),
    precision=st.sampled_from([30, 60]),
)
def test_jets_match_plain_mpmath_and_numerical_derivatives(seed, k, order, precision):
    """Orders 0, 1 and 2 of the tape agree with plain mpmath evaluating the
    same text, and with mp.diff of it, 20 digits finer, to within 10^5 units
    in the last working digit relative to max(1, |value|).

    The reference shares no formula with the tape: mpmath's own tanh, sin,
    cos and powers, and finite differences in place of the chain rule.  The
    point is k/1000, so no kink or domain edge lies within mp.diff's step of
    it unless the point is on it, where the tape breaks down.
    """
    rng = random.Random(seed)
    text = _any_op_expr(rng, rng.randint(1, 3))
    prec = working_prec(precision)
    with mp.workprec(prec):
        x = mp.mpf(k) / 1000
    try:
        got = _eval(parse(text), x._mpf_, order, prec)
    except Breakdown as exc:
        assert exc.kind == Breakdown.DOMAIN
        return
    got = [mp.make_mpf(v) for v in (got if order else (got,))]
    plain = _plain_function(text)
    with mp.workdps(working_dps(precision) + 20):
        expected = [mp.diff(plain, x, n) for n in range(order + 1)]
        # real wherever the tape is, unless the tape rounded onto a domain edge
        assume(not any(isinstance(v, mp.mpc) for v in expected))
        tol = mp.mpf(10) ** (5 - working_dps(precision))
        for n, (a, b) in enumerate(zip(got, expected)):
            assert abs(a - b) <= tol * max(1, abs(b)), f"order {n} of {text} at {x}"


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-3000, 3000),
    precision=st.sampled_from([30, 60]),
)
def test_results_agree_when_the_precision_doubles(seed, k, precision):
    """eval_jet at p and 2p digits, each at the point k/1000 rounded to its own
    precision, agrees to 10^(5-p)·max(1, |v|) in f, f' and f'', or both raise
    a Breakdown of the same kind."""
    rng = random.Random(seed)
    text = _any_op_expr(rng, rng.randint(1, 3))

    def jet(p):
        try:
            j = eval_jet(parse(text), Fraction(k, 1000), p)
        except Breakdown as exc:
            return exc.kind
        return j.f.value, j.d1.value, j.d2.value

    low, high = jet(precision), jet(2 * precision)
    if not (isinstance(low, tuple) and isinstance(high, tuple)):
        assert low == high, (text, k, low, high)
        return
    with mp.workdps(2 * precision):
        tol = mp.mpf(10) ** (5 - precision)
        for n, (a, b) in enumerate(zip(low, high)):
            assert abs(a - b) <= tol * max(1, abs(b)), f"order {n} of {text} at {k}/1000"


def _assert_threads_match_serial(cases, evaluate, repeats):
    """Run ``evaluate`` over ``cases`` (precision last) in one thread per
    precision, ``repeats[p]`` times each, with frequent thread switches; every
    result must equal the serial one bit for bit."""
    serial = [evaluate(case) for case in cases]
    mismatches, finished = [], []

    def worker(precision):
        for _ in range(repeats[precision]):
            for case, expected in zip(cases, serial):
                if case[-1] == precision and evaluate(case) != expected:
                    mismatches.append(case)
        finished.append(precision)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(p,)) for p in repeats]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == sorted(repeats)
    assert not mismatches


def test_concurrent_evaluation_is_bit_identical_to_serial():
    """Evaluation takes its precision as an argument, so threads at different
    precisions do not change each other's results."""
    cases = [(parse(text), bigreal(x, precision), precision)
             for text, x in (("tanh(x-1)", "1.1"), ("x^11+4*x^2-10", "1.3"))
             for precision in (60, 1000)]

    def evaluate(case):
        expr, x, precision = case
        jet = eval_jet(expr, x, precision)
        return eval_value(expr, x, precision).value._mpf_, jet.f.value._mpf_, \
            jet.d1.value._mpf_, jet.d2.value._mpf_

    # about as long at each precision
    _assert_threads_match_serial(cases, evaluate, {60: 2000, 1000: 100})


def test_concurrent_diagnostics_are_bit_identical_to_serial():
    """significant_digits and estimate_order subtract at their own precision
    and take float logs, so threads at different precisions do not change
    each other's results."""
    cases = []
    for precision in (60, 2600):
        root = bigreal(1, precision)
        traj = iterate(ScalarProblem(parse("tanh(x-1)"), bigreal("1.5", precision),
                                     precision=precision, max_iter=8, known_root=root),
                       MethodId(0))
        cases += [(bigreal(f"1.{'0' * digits}123456789", precision), root, traj, precision)
                  for digits in (precision // 2, precision - 15)]

    def evaluate(case):
        x, root, traj, _ = case
        estimate = estimate_order(traj, root)
        return significant_digits(x, root), estimate.q, estimate.per_pair

    _assert_threads_match_serial(cases, evaluate, {60: 1000, 2600: 1000})


def test_concurrent_bigreal_is_bit_identical_to_serial():
    """bigreal and BigReal.decimal take their precision from their arguments,
    so threads at different precisions do not change each other's results."""
    values = ("1.1", 7, 0.1, Fraction(1, 3), mp.pi)
    cases = [(value, precision) for value in values for precision in (60, 1000)]

    def evaluate(case):
        x = bigreal(*case)
        return x.value._mpf_, x.decimal(), x.decimal(20)

    _assert_threads_match_serial(cases, evaluate, {60: 2000, 1000: 2000})
