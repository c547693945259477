import math
import random
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (dps_to_prec, fone, from_int, fzero, mpf_abs, mpf_neg, mpf_sqrt,
                          round_nearest)

from conftest import bisect_mpf, cubic
from reference_diffs import reference_map_derivatives
from test_expr import _any_op_expr, _assert_threads_match_serial
from test_solver import _map_outcome
from cotesroot import (
    Breakdown,
    InsufficientData,
    MethodId,
    ScalarProblem,
    bigreal,
    bisect_root,
    estimate_order,
    estimate_order_from_steps,
    iterate,
    map_derivatives_at,
    parse,
    significant_digits,
)
from cotesroot import analysis, solver
from cotesroot.bigreal import working_prec
from cotesroot.expr import _eval_series, _series_namespace
from cotesroot.solver import SEED_NEWTON, apply_method


# ------------------------------------------------------- significant digits

def test_sdigits_unit_error():
    assert float(significant_digits(bigreal(2, 30), bigreal(1, 30))) == 0.0


def test_sdigits_exact_hit_capped_at_precision():
    x = bigreal("1.25", 45)
    assert float(significant_digits(x, x)) == 45.0


def test_sdigits_monotone():
    z = bigreal(1, 40)
    values = [float(significant_digits(bigreal(1 + 10**-d, 40), z)) for d in (1, 3, 7)]
    assert values == sorted(values)


def test_diagnostics_are_floats():
    # the float log, not a BigReal dressed at the operands' precision
    s = significant_digits(bigreal("1.000000001", 60), bigreal(1, 60))
    assert type(s) is float and s == 9.000000000000002
    root = bigreal(1, 60)
    traj = iterate(ScalarProblem(parse("tanh(x-1)"), bigreal("1.5", 60), precision=60,
                                 known_root=root), MethodId(0))
    est = estimate_order(traj, root)
    values = [rec.s for rec in traj.iterates] + [est.q, *est.per_pair]
    assert {type(v) for v in values} == {float}


def test_sdigits_one_simpson_application_on_tanh():
    # published-tables wiring; reference row value 5.6
    f = parse("tanh(x-1)")
    got = apply_method(MethodId(2, simpson_seed=SEED_NEWTON), f, bigreal("1.1", 60), 60)
    s = float(significant_digits(got, bigreal(1, 60)))
    assert s == pytest.approx(5.6, abs=0.15)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sdigits_rejects_a_nonfinite_point_or_root(value):
    with pytest.raises(ValueError, match="^z must be finite$"):
        significant_digits(bigreal(1, 20), bigreal(value, 20))
    with pytest.raises(ValueError, match="^x must be finite$"):
        significant_digits(bigreal(value, 20), bigreal(1, 20))


@pytest.mark.parametrize("root", ["nan", "inf", "-inf"])
def test_estimate_order_rejects_a_nonfinite_root(root):
    with pytest.raises(ValueError, match="^reference_root must be finite$"):
        estimate_order(_newton_on_sqrt2(), bigreal(root, 200))


# ------------------------------------------------------- order estimation

def _newton_on_sqrt2(precision=200, max_iter=12):
    problem = ScalarProblem(parse("x^2-2"), bigreal("1.5", precision),
                            precision=precision, max_iter=max_iter)
    return iterate(problem, MethodId(0))


def test_order_newton_on_sqrt2():
    traj = _newton_on_sqrt2()
    with mp.workdps(410):
        reference = bigreal(mp.sqrt(2), 400)  # independent 2x-precision oracle
    est = estimate_order(traj, reference)
    assert float(est.q) == pytest.approx(2.0, abs=0.1)
    assert est.samples_used >= 4


def test_order_newton_on_tanh_is_cubic():
    problem = ScalarProblem(parse("tanh(x-1)"), bigreal("1.5", 300), precision=300,
                            max_iter=10)
    est = estimate_order(iterate(problem, MethodId(0)), bigreal(1, 300))
    assert float(est.q) == pytest.approx(3.0, abs=0.2)


def test_order_simpson_on_tanh_is_quintic():
    problem = ScalarProblem(parse("tanh(x-1)"), bigreal("1.5", 600), precision=600,
                            max_iter=10)
    est = estimate_order(iterate(problem, MethodId(2)), bigreal(1, 600))
    assert float(est.q) == pytest.approx(5.0, abs=0.3)


def test_order_insufficient_data():
    traj = _newton_on_sqrt2(precision=60, max_iter=2)
    with mp.workdps(130):
        reference = bigreal(mp.sqrt(2), 120)
    with pytest.raises(InsufficientData):
        estimate_order(traj, reference)


def test_order_roundoff_floor():
    # start so close that the very first error is already below the floor
    problem = ScalarProblem(parse("x^2-4"), bigreal(2 + mp.mpf(10) ** -30, 40),
                            precision=40, max_iter=6)
    traj = iterate(problem, MethodId(0))
    with pytest.raises(InsufficientData, match="roundoff floor"):
        estimate_order(traj, bigreal(2, 40))


def test_order_ratios_that_never_settle():
    # Newton on the double root of (x-1)^2 halves the error: from 1.5 the logs
    # of the four errors give the ratios 2, 3/2 and 4/3, whose gaps 1/2 and
    # 1/6 are both above STABLE_GAP
    problem = ScalarProblem(parse("(x-1)^2"), bigreal("1.5", 60), precision=60, max_iter=3)
    traj = iterate(problem, MethodId(0))
    with pytest.raises(InsufficientData, match="never settled"):
        estimate_order(traj, 1)


def test_order_drops_leading_errors_of_one_or_more():
    # from 10 the first three errors, 8.6, 3.7 and 1.3, are outside the
    # contraction regime: the estimate starts at the fourth iterate
    problem = ScalarProblem(parse("x^2-2"), bigreal(10, 300), precision=300)
    traj = iterate(problem, MethodId(0))
    with mp.workdps(320):
        est = estimate_order(traj, mp.sqrt(2))
    errors = [abs(float(rec.x) - math.sqrt(2)) for rec in traj.iterates]
    assert errors[2] > 1 > errors[3]
    assert est.per_pair[0] == pytest.approx(math.log(errors[4]) / math.log(errors[3]))
    assert est.q == pytest.approx(2, abs=0.1)


def test_order_stops_at_an_error_that_does_not_decrease():
    # against a reference 1e-30 off the root, Newton's errors fall to 1e-30,
    # far above the roundoff floor 1e-45, and then stay there: the estimate
    # uses the seven decreasing errors and stops at the eighth, an equal one
    problem = ScalarProblem(parse("x^2-2"), bigreal(2, 60), precision=60)
    traj = iterate(problem, MethodId(0))
    assert len(traj.iterates) == 8
    with mp.workdps(80):
        est = estimate_order(traj, mp.sqrt(2) + mp.mpf(10) ** -30)
    assert est.samples_used == 7
    assert len(est.per_pair) == 6
    assert est.q == pytest.approx(2, abs=0.1)


def test_order_scale_invariant():
    reference = None
    results = []
    for text in ("x^2-2", "8*(x^2-2)"):
        problem = ScalarProblem(parse(text), bigreal("1.5", 200), precision=200,
                                max_iter=12)
        traj = iterate(problem, MethodId(0))
        with mp.workdps(410):
            reference = bigreal(mp.sqrt(2), 400)
        results.append(estimate_order(traj, reference))
    assert results[0].q == results[1].q
    assert results[0].per_pair == results[1].per_pair


def test_order_text_root_converted_at_the_working_precision():
    # a root given as text is converted at the trajectory's working precision,
    # as bigreal converts it, not at mpmath's 53-bit default
    precision = 300
    problem = ScalarProblem(parse("exp(x)-3"), bigreal("0.5", precision), precision=precision)
    traj = iterate(problem, MethodId(1))
    with mp.workdps(340):
        text = mp.nstr(mp.log(3), 320)
    from_text = estimate_order(traj, text)
    from_bigreal = estimate_order(traj, bigreal(text, precision))
    assert (from_text.q, from_text.per_pair) == (from_bigreal.q, from_bigreal.per_pair)
    assert from_text.q == pytest.approx(3, abs=0.1)


def test_order_from_steps_three_point():
    traj = _newton_on_sqrt2(precision=300)
    est = estimate_order_from_steps(traj)
    assert float(est.q) == pytest.approx(2.0, abs=0.2)


def test_order_from_steps_insufficient():
    traj = _newton_on_sqrt2(precision=60, max_iter=2)
    with pytest.raises(InsufficientData):
        estimate_order_from_steps(traj)


# ------------------------------------------------------- step-based errors

def test_error_from_steps_matches_differences():
    traj = _newton_on_sqrt2(precision=80, max_iter=8)
    steps = traj.steps()
    assert len(steps) == len(traj.iterates) - 1
    with mp.workdps(90):
        for k, st in enumerate(steps):
            diff = traj.iterates[k + 1].x.value - traj.iterates[k].x.value
            assert st.value == diff


def test_error_from_steps_empty_when_converged_at_start():
    problem = ScalarProblem(parse("x^2-4"), bigreal(2, 40), precision=40)
    traj = iterate(problem, MethodId(0))
    assert traj.steps() == []


# ------------------------------------------------------- map derivatives

def test_map_derivatives_newton_superattracting():
    f = parse("x^2-4")
    derivs = map_derivatives_at(MethodId(0), f, bigreal(2, 100), 1, 100)
    assert abs(float(derivs[0])) < 1e-6


def test_map_derivatives_newton_on_tanh():
    f = parse("tanh(x-1)")
    derivs = map_derivatives_at(MethodId(0), f, bigreal(1, 250), 5, 250)
    expected = (0.0, 0.0, -4.0, 0.0, -16.0)
    for got, want in zip(derivs, expected):
        if want == 0.0:
            assert abs(float(got)) < 1e-3
        else:
            assert float(got) == pytest.approx(want, rel=0.01)


def test_map_derivatives_through_a_power_of_zero():
    # Newton's map on x^5 + x is x·4x^4/(5x^4 + 1) = 4x^5 - 20x^9 + ..., so
    # at 0, where the series of x^3 in its x^5 has a zero constant term, d_5
    # is 4·5! and d_1..d_4 vanish
    derivs = map_derivatives_at(MethodId(0), parse("x^5+x"), bigreal(0, 30), 5, 30)
    assert [d.value for d in derivs] == [0, 0, 0, 0, 480]


@pytest.mark.parametrize("text,name", [("exp(x)", "exp"), ("sin(x)", "sin"), ("tan(x)", "tan"),
                                       ("tanh(x)", "tanh")])
def test_series_code_guards_a_huge_constant_term(text, name):
    # on z + ε the magnitude guard reads the constant term, so the series
    # code raises where the raw code at z = 3·2^(2^20) does, before any call
    z = (mp.mpf(3) * mp.mpf(2) ** (2 ** 20))._mpf_
    with pytest.raises(Breakdown) as err:
        _eval_series(parse(text), [z, fone, fzero], 1, working_prec(30))
    assert (err.value.kind, str(err.value)) == (
        Breakdown.NONFINITE, f"{name} of an argument too large for the precision")


def _function_of_x(rng):
    """A random function from test_expr's forms whose text names x: most
    constant ones break every map down at once."""
    while True:
        text = _any_op_expr(rng, rng.randint(1, 3))
        if "x" in text:
            return parse(text)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(["t0", "t1", "t2", "t3", "t2_1"]),
    transform=st.booleans(),
    max_order=st.integers(1, 4),
    precision=st.sampled_from([30, 60]),
)
def test_map_derivatives_match_finite_differences(seed, spec, transform, max_order, precision):
    """The series derivatives of t0..t3 and a composition, plain and "+F", on
    random functions at a random z agree with mpmath's central differences
    (``reference_diffs``) within 10^(10 - p) max(1, |d_k|).  Both must
    evaluate the map: the differences sample it around z, the series only at
    z, so either may break down where the other does not.  z comes from the
    seed, since hypothesis favours 0, where many of these functions have a
    zero slope."""
    rng = random.Random(seed)
    f, z = _function_of_x(rng), bigreal(rng.uniform(-3, 3), precision)
    m = MethodId.parse(spec + "+F" * transform)
    try:
        got = map_derivatives_at(m, f, z, max_order, precision)
        expected = reference_map_derivatives(m, f, z, max_order, precision)
    except Breakdown:
        return
    with mp.workdps(3 * precision):
        for a, b in zip(got, expected):
            assert abs(a.value - b.value) <= (
                mp.mpf(10) ** (10 - precision) * max(1, abs(b.value))), (a, b)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from([f"t{n}" for n in range(8)] + ["t2_1", "t4_3"]),
    transform=st.booleans(),
    simpson_seed=st.sampled_from([solver.SEED_TRAPEZOID, SEED_NEWTON]),
    degree=st.integers(1, 3),
    precision=st.sampled_from([30, 60, 700]),
)
def test_series_map_constant_term_is_the_map_bitwise(seed, spec, transform, simpson_seed, degree,
                                                     precision):
    """The map on the series z + ε has the bits of apply_method at z as its
    constant term, or raises its Breakdown, with its message and level: every
    series call makes the raw call on the constant terms.  map_derivatives_at
    runs plain maps so, at the working precision."""
    rng = random.Random(seed)
    f, z = _function_of_x(rng), bigreal(rng.uniform(-3, 3), precision)
    m = MethodId.parse(spec + "+F" * transform, simpson_seed=simpson_seed)
    prec = working_prec(precision)
    bound = solver._default_bound(mpf_abs(z.value._mpf_, prec, round_nearest), prec)
    series_map = solver._method_map(m, f, precision, prec, bound,
                                    (_eval_series, _series_namespace()))
    start = [z.value._mpf_, fone] + [fzero] * (degree - 1)
    assert _map_outcome(lambda: mp.make_mpf(series_map(start)[0])) == _map_outcome(
        lambda: apply_method(m, f, z, precision).value)


def test_map_derivatives_node_outside_the_default_bound_is_diverged():
    # f' = 10^-9 sends the Newton value from 0 to -10^9, and the t1 node with
    # it, outside 10^6 (1 + |z|)
    with pytest.raises(Breakdown) as err:
        map_derivatives_at(MethodId(1), parse("x/10^9+1"), bigreal(0, 30), 2, 30)
    assert (err.value.kind, str(err.value), err.value.level) == (
        Breakdown.DIVERGED, "a ladder node left the divergence bound", 1)


def test_map_derivatives_validation():
    f = parse("x^2-4")
    with pytest.raises(ValueError):
        map_derivatives_at(MethodId(0), f, bigreal(2, 100), 0, 100)
    with pytest.raises(ValueError):
        map_derivatives_at(MethodId(0), f, bigreal(2, 100), 1, 14)


# ------------------------------------------------------- reference roots

def test_bisect_root_sqrt2():
    root = bisect_root(parse("x^2-2"), 1, 2, 60)
    with mp.workdps(80):
        assert abs(root.value - mp.sqrt(2)) < mp.mpf(10) ** -58


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    numerator=st.integers(-10**6, 10**6),
    scale=st.integers(0, 40),
    width=st.integers(1, 10**6),
    root_at_lo=st.booleans(),
    precision=st.sampled_from([15, 30, 300]),
)
def test_bisect_root_returns_an_end_that_is_an_exact_root(numerator, scale, width, root_at_lo,
                                                          precision):
    """A bracket end where f is exactly zero is returned as it is, before the
    sign check: (x - r)(x^2 + 1) with a dyadic r is exactly zero at r alone."""
    r = Fraction(numerator, 2 ** scale)
    other = r + Fraction(width if root_at_lo else -width, 2 ** scale)
    f = parse(f"(x-({numerator})/{2 ** scale})*(x^2+1)")
    root = bisect_root(f, *sorted((r, other)), precision)
    assert root.value == mp.mpf(numerator) / 2 ** scale


def test_bisect_root_stops_where_the_bracket_cannot_be_split():
    # near 1e11 the working precision of 30 digits spaces numbers about 1e-29
    # apart, wider than the 10^-30 target, so bisection stops at two
    # neighbours; the root of x - 10^11 - 1/3 lies between two of them, and
    # f, whose x - 10^11 is exact there, is zero at neither
    root = bisect_root(parse("x-100000000000-1/3"), 100000000000, 100000000001, 30)
    spacing = mp.ldexp(1, 37 - working_prec(30))  # 2^36 < 1e11 < 2^37
    with mp.workdps(80):
        assert 0 < abs(root.value - (10 ** 11 + mp.mpf(1) / 3)) < spacing


def test_bisect_root_needs_sign_change():
    with pytest.raises(ValueError):
        bisect_root(parse("x^2+1"), -1, 1, 30)


def test_bisect_root_rejects_reversed_bracket():
    with pytest.raises(ValueError, match="lo <= hi"):
        bisect_root(parse("x^2-2"), 2, 1, 60)


@pytest.mark.parametrize("lo, hi", [("nan", 2), (1, "inf"), ("-inf", 2)])
def test_bisect_root_rejects_nonfinite_bracket(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        bisect_root(parse("x^2-2"), lo, hi, 30)


@pytest.mark.parametrize("precision", [0, -5, 14])
def test_bisect_root_rejects_precision_below_minimum(precision):
    with pytest.raises(ValueError, match="at least 15"):
        bisect_root(parse("x^2-2"), 1, 2, precision)


@pytest.mark.parametrize("precision", [60, 1000])
@pytest.mark.parametrize("text, fn", [
    pytest.param("x^2-2", lambda x: x**2 - 2, id="x^2-2"),
    pytest.param("x^3+2*x-5", cubic, id="x^3+2*x-5"),
    pytest.param("x^11+4*x^2-10", lambda x: x**11 + 4 * x**2 - 10, id="x^11+4*x^2-10"),
])
def test_bisect_root_agrees_with_plain_bisection(text, fn, precision):
    root = bisect_root(parse(text), 1, 2, precision)
    # bisect_mpf stops at 10^(10 - dps): ask it for 10 more digits
    reference = bisect_mpf(fn, 1, 2, precision + 10)
    with mp.workdps(precision + 20):
        assert abs(root.value - reference) <= mp.mpf(10) ** -precision


def _counting_evals(monkeypatch):
    """The orders of every evaluation of f: values and jets, in bisection,
    certificate and polish alike."""
    calls = []
    for module in (analysis, solver):
        def counting_eval(f, x, order, prec, real_eval=module._eval):
            calls.append(order)
            return real_eval(f, x, order, prec)

        monkeypatch.setattr(module, "_eval", counting_eval)
    return calls


@pytest.mark.parametrize("precision, polish_raises", [(60, False), (300, True)])
def test_bisect_root_falls_back_on_a_triple_root(monkeypatch, precision, polish_raises):
    # Newton's map on F = -f/f' converges quadratically to the triple root
    # x = 1, lands on it exactly and breaks down there, where F is 0/0: the
    # point it broke down at is kept and certified.  When the map breaks down
    # at once, its seed, about 1e-31 off, is not certified, and bisection goes
    # on from the seed bracket.
    outcomes = []
    real_method_map = analysis._method_map

    def recording_method_map(*args):
        step = real_method_map(*args)

        def apply(x):
            try:
                if polish_raises:
                    raise Breakdown(Breakdown.DOMAIN, "no polish")
                outcomes.append(step(x))
            except Breakdown as exc:
                outcomes.append(exc)
                raise
            return outcomes[-1]
        return apply

    monkeypatch.setattr(analysis, "_method_map", recording_method_map)
    root = bisect_root(parse("(x-1)^3*exp(x)"), "0.5", 2, precision)
    *landings, breakdown = outcomes
    assert breakdown.kind == Breakdown.DOMAIN
    with mp.workdps(precision + 10):
        assert abs(root.value - 1) <= mp.mpf(10) ** -precision / 2
        if polish_raises:
            assert landings == []
            assert root.value == bisect_mpf(lambda x: (x - 1)**3 * mp.exp(x), "0.5", 2,
                                            precision + 10)
        else:
            assert mp.make_mpf(landings[-1]) == root.value == 1


@pytest.mark.parametrize("precision", [60, 300, 1000])
@pytest.mark.parametrize("text", ["(x-1)^3*exp(x)", "(x-1)^5"])
def test_bisect_root_multiple_root_evaluation_count(monkeypatch, text, precision):
    # bisection alone takes about 3.3 evaluations of f per digit (1034 at 300
    # digits); the polish, whose order-2 jets F' needs, lands on x = 1, where
    # f and f' both vanish
    calls = _counting_evals(monkeypatch)
    root = bisect_root(parse(text), "0.5", 2, precision)
    assert len(calls) <= 200
    assert 2 in calls
    with mp.workdps(precision + 10):
        assert abs(root.value - 1) <= mp.mpf(10) ** -precision / 2


def _no_root(x):
    raise Breakdown(Breakdown.ZERO_DERIVATIVE, "no root")


def _sqrt2(sign, dps):
    """A polish that lands on sign·sqrt(2), rounded to ``dps`` digits, from any point."""
    landing = mpf_sqrt(from_int(2), dps_to_prec(dps), round_nearest)
    return lambda x: landing if sign > 0 else mpf_neg(landing)


@pytest.mark.parametrize("polish", [
    pytest.param(_no_root, id="raises"),
    # a root with a sign change, but not the bracket's: only the bracket
    # test rejects it
    pytest.param(_sqrt2(-1, 70), id="outside-bracket"),
    # inside the seed bracket, which is 2^-100 wide, but about 1e-41 from the root
    pytest.param(_sqrt2(1, 40), id="uncertified"),
])
def test_bisect_root_falls_back_when_the_polish_fails(monkeypatch, polish):
    monkeypatch.setattr(analysis, "_method_map", lambda *args: polish)
    root = bisect_root(parse("x^2-2"), 1, 2, 60)
    with mp.workdps(70):
        assert abs(root.value - mp.sqrt(2)) <= mp.mpf(10) ** -60 / 2
        assert root.value == bisect_mpf(lambda x: x**2 - 2, 1, 2, 70)


@pytest.mark.parametrize("text,lo,hi,precision,jets", [
    ("x^2-2", 1, 2, 1000, 8),
    ("cos(x)-x", 0, 1, 500, 6),
])
def test_bisect_root_polish_stops_on_a_two_point_cycle(monkeypatch, text, lo, hi, precision,
                                                        jets):
    # at these roots rounding makes the t0+F map alternate between two
    # neighbours of the root; the polish stops once r equals the point two
    # applications back, well before its bound of 20, and keeps the point
    # that 20 applications from the same seed reach
    starts, maps = [], []
    real_method_map = analysis._method_map

    def recording_method_map(*args):
        maps.append(real_method_map(*args))

        def apply(x):
            starts.append(x)
            return maps[-1](x)
        return apply

    monkeypatch.setattr(analysis, "_method_map", recording_method_map)
    calls = _counting_evals(monkeypatch)
    root = bisect_root(parse(text), lo, hi, precision)
    assert calls.count(2) == len(starts) == jets < 20
    r = starts[0]
    for _ in range(20):
        r, last = maps[0](r), r
        if r == last:
            break
    assert r != last  # the map never stops on its argument here
    assert root.value._mpf_ == r


def test_bisect_root_tabpol1_oracle_evaluation_count(monkeypatch):
    # plain bisection to 10^-2640 takes about 8770 evaluations of f
    calls = _counting_evals(monkeypatch)
    bisect_root(parse("x^11+4*x^2-10"), 1, 2, 2640)
    assert 0 < len(calls) <= 300
    assert set(calls) == {0, 2}


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    lo=st.integers(-5, 4),
    width=st.integers(1, 4),
    at=st.fractions(0, 1, max_denominator=10**6).filter(lambda t: 0 < t < 1),
    s_gap=st.fractions(1, 10, max_denominator=100),
    s_above=st.booleans(),
    m=st.sampled_from([1, 3, 5]),
    precision=st.sampled_from([30, 60]),
)
def test_bisect_root_polish_lands_on_simple_and_odd_multiple_roots(
        lo, width, at, s_gap, s_above, m, precision):
    """f = (x - r)^m (x - s) with r inside [lo, hi] and s outside: the polish
    lands within 10^(-precision)/2 of r, with at most 200 evaluations of f
    (values and jets alike), where a fall back to bisection at 60 digits
    takes more than 200.  At 30 digits the seed bracket is already the
    target, and bisection alone must land there."""
    hi = lo + width
    r = lo + width * at
    s = hi + s_gap if s_above else lo - s_gap
    f = parse(f"(x-({r}))^{m}*(x-({s}))")
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_evals(monkeypatch)
        root = bisect_root(f, lo, hi, precision)
    assert len(calls) <= 200
    with mp.workdps(precision + 20):
        assert abs(root.value - mp.mpf(r.numerator) / r.denominator) <= (
            mp.mpf(10) ** -precision / 2)


def test_concurrent_map_derivatives_use_one_context_per_thread(monkeypatch):
    """map_derivatives_at makes no mpmath context and never sets the shared
    one, so every call in every thread finds mpmath's global context as it
    was, and threads at different precisions give the serial bits, also after
    a call that broke down (sqrt(x) at 0, whose slope there is a domain
    error)."""
    cases = [(MethodId(n), parse(text), z, 3, p)
             for n, text, z in ((1, "tanh(x-1)", 1), (2, "x^3-8", 2), (0, "sqrt(x)", 0))
             for p in (30, 120)]
    made = []
    init = mp.ctx_mp.MPContext.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mp.ctx_mp.MPContext, "__init__", counting_init)
    shared = id(mp.mp), mp.mp.prec
    contexts = {}

    def evaluate(case):
        try:
            result = [d.value._mpf_ for d in map_derivatives_at(*case)]
        except Breakdown as exc:
            result = exc.kind, str(exc), exc.level
        contexts.setdefault(threading.get_ident(), set()).add((id(mp.mp), mp.mp.prec))
        return result

    for case in cases[-2:]:
        assert evaluate(case) == (Breakdown.DOMAIN, "derivative of sqrt at 0", 0)
    _assert_threads_match_serial(cases, evaluate, {30: 150, 120: 60})
    assert not made
    assert len(contexts) == 3
    assert all(seen == {shared} for seen in contexts.values())


def test_concurrent_analysis_is_bit_identical_to_serial():
    """bisect_root and map_derivatives_at take their precision as an argument
    and never read or set mpmath's global context, so threads at different
    precisions do not change each other's results."""
    cases = [("bisect", parse("x^11+4*x^2-10"), 1, 2, p) for p in (40, 400)] + [
        ("derivs", MethodId(1), parse("tanh(x-1)"), 1, 3, p) for p in (30, 120)]

    def evaluate(case):
        if case[0] == "bisect":
            return bisect_root(*case[1:]).value._mpf_
        return [d.value._mpf_ for d in map_derivatives_at(*case[1:])]

    # the serial pass runs first, so libmp's cached constants hold 120 digits
    # before the threads start; about as long at each precision
    _assert_threads_match_serial(cases, evaluate, {40: 80, 400: 70, 30: 60, 120: 30})
