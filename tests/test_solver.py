import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_tape import reference_map
from test_expr import _any_op_expr, _assert_threads_match_serial, _random_expr

from cotesroot import (
    Breakdown,
    CotesrootError,
    MethodId,
    ScalarProblem,
    bigreal,
    eval_jet,
    eval_value,
    parse,
)
from cotesroot import solver
from cotesroot.bigreal import working_dps, working_prec
from cotesroot.expr import _eval
from mpmath.libmp import fnan, fninf, fnone, fone, from_int, from_man_exp, fzero
from cotesroot.solver import (
    BREAKDOWN,
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    SEED_NEWTON,
    SEED_TRAPEZOID,
    Termination,
    _log10_abs,
    _method_map,
    _transform_pair,
    apply_method,
    iterate,
)


def close_to_fraction(value, frac, precision, slack=3):
    with mp.workdps(precision + 10):
        target = mp.mpf(frac.numerator) / frac.denominator
        return abs(value.value - target) < mp.mpf(10) ** (slack - precision)


# ------------------------------------------------------------- MethodId

def test_method_parse_roundtrip():
    assert str(MethodId.parse("t3")) == "t3"
    assert str(MethodId.parse("t7_6")) == "t7_6"
    assert str(MethodId.parse("t2+F")) == "t2+F"
    assert str(MethodId.parse("t1_2+F")) == "t1_2+F"
    m = MethodId.parse("t7_6")
    assert m.outer == 7 and m.inner == 6 and not m.transform


@pytest.mark.parametrize("bad", ["", "s2", "t8", "t-1", "tx", "t1_9", "t12"])
def test_method_parse_rejects(bad):
    # an index outside the rules keeps the constructor's range message
    out_of_range = bad in ("t8", "t-1", "t1_9", "t12")
    with pytest.raises(ValueError, match=r"0\.\.7" if out_of_range else "spec"):
        MethodId.parse(bad)


@pytest.mark.parametrize("bad", ["t+1", "t 1", "t1_ 2", "t\u0663", "t1 +F", "t1_2_3", "t1+F+F"])
def test_method_parse_takes_ascii_digits_only(bad):
    # int() would take a sign, spaces and any Unicode digit (t\u0663 is an
    # Arabic-Indic three)
    with pytest.raises(ValueError, match="^bad method spec "):
        MethodId.parse(bad)


def test_method_seed_validation():
    with pytest.raises(ValueError):
        MethodId(2, simpson_seed="midpoint")
    assert replace(MethodId(2), simpson_seed=SEED_NEWTON).simpson_seed == SEED_NEWTON


def test_apply_tn_rejects_out_of_range_index():
    f = parse("x^2-2")
    for n in (-1, 8):
        with pytest.raises(ValueError):
            apply_method(MethodId(n), f, bigreal("1.5", 40), 40)


@pytest.mark.parametrize("outer, inner, bad", [(1.5, None, "1.5"), (2, 0.5, "0.5"), (1.0, None, "1.0"),
                                               (True, None, "True"), (2, False, "False")])
def test_method_index_must_be_an_int(outer, inner, bad):
    # a float index failed in the ladder's range(), and MethodId(True) ran t1
    # but printed "tTrue"
    with pytest.raises(ValueError, match=rf"^map index must be in 0\.\.7, got {bad}$"):
        MethodId(outer, inner=inner)


# ------------------------------------------------------------- one step

def test_newton_step_on_square():
    f = parse("x^2-4")
    x = bigreal(3, 50)
    assert close_to_fraction(apply_method(MethodId(0), f, x, 50), Fraction(13, 6), 50)


def test_newton_step_on_cbrt_doubles_and_flips():
    f = parse("cbrt(x)")
    with mp.workdps(60):
        for a in ("0.7", "-1.3", "4"):
            x = bigreal(a, 50)
            got = apply_method(MethodId(0), f, x, 50)
            assert abs(got.value - (-2 * x.value)) < mp.mpf(10) ** -45


def test_newton_step_exact_on_affine():
    f = parse("3*x-7")
    x = bigreal("11.25", 50)
    assert close_to_fraction(apply_method(MethodId(0), f, x, 50), Fraction(7, 3), 50)


def test_newton_step_zero_derivative():
    f = parse("x^2-4")
    x = bigreal(0, 50)
    with pytest.raises(Breakdown) as err:
        apply_method(MethodId(0), f, x, 50)
    assert err.value.kind == Breakdown.ZERO_DERIVATIVE


def test_apply_method_on_a_transcendental_of_a_huge_value_breaks_down():
    # exp(700000) is about 2^(10^6), far beyond 2^prec at 30 digits: the base
    # jet's tanh has no correct derivative bit there, and raises before libmp
    # reduces the argument with about 10^6 bits (15-18 s)
    start = time.perf_counter()
    with pytest.raises(Breakdown) as err:
        apply_method(MethodId(0), parse("tanh(exp(x))"), bigreal(700000, 30), 30)
    assert time.perf_counter() - start < 1  # about 1 ms
    assert (err.value.kind, str(err.value), err.value.level) == (
        Breakdown.NONFINITE, "tanh of an argument too large for the precision", 0)


@pytest.mark.parametrize("spec,text,x,precision,level", [
    # the outer t2 ladder's level-1 node lands near -10^(2e15), where tanh's
    # f' would ask libmp for an integer of about 2^mag bits
    ("t2_1", "tanh(((x)^3)+(sqrt((3)^2+1)))", 0.02604311589436925, 30, 1),
    # the inner Newton value -1.6e7 is the outer ladder's base point, beyond
    # 10^6 (1 + 10): no jet is taken there
    ("t0_0", "tanh(x-1)", 10, 30, 0),
], ids=["t2_1-node", "t0_0-base-point"])
def test_apply_method_outside_the_default_bound_is_diverged(spec, text, x, precision, level):
    start = time.perf_counter()
    with pytest.raises(Breakdown) as err:
        apply_method(MethodId.parse(spec), parse(text), bigreal(x, precision), precision)
    assert time.perf_counter() - start < 10  # a backstop; about 1 ms
    assert (err.value.kind, str(err.value), err.value.level) == (
        Breakdown.DIVERGED, "a ladder node left the divergence bound", level)


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_apply_method_rejects_nonfinite_x(x):
    with pytest.raises(ValueError, match="x must be finite"):
        apply_method(MethodId(0), parse("x^2-2"), bigreal(x, 40), 40)


def test_domain_error_is_the_domain_breakdown():
    with pytest.raises(Breakdown) as err:
        eval_value(parse("log(x)"), bigreal(-1, 30), 30)
    assert type(err.value) is Breakdown
    assert isinstance(err.value, CotesrootError)
    assert isinstance(err.value, ArithmeticError)
    assert err.value.kind == Breakdown.DOMAIN == "domain"
    assert str(err.value) == "log of nonpositive value -1.0"


def test_two_node_map_on_square():
    # h = -5/6, B = 6 + 13/3 = 31/3, t1 = 3 - 2*5/(31/3) = 63/31
    got = apply_method(MethodId(1), parse("x^2-4"), bigreal(3, 60), 60)
    assert close_to_fraction(got, Fraction(63, 31), 60)


def test_level_zero_reduces_to_newton():
    f = parse("tanh(x-1)")
    x = bigreal("1.37", 50)
    a = apply_method(MethodId(0), f, x, 50)
    jet = eval_jet(f, x, 50)
    with mp.workdps(60):
        assert a.value == x.value - jet.f.value / jet.d1.value


def test_two_node_map_exact_on_affine():
    got = apply_method(MethodId(1), parse("3*x-7"), bigreal(40, 50), 50)
    assert close_to_fraction(got, Fraction(7, 3), 50)


@pytest.mark.parametrize("n", range(8))
def test_slope_evaluation_count(n, monkeypatch):
    # node 0 of every level is the base point, whose slope is evaluated once,
    # so one application takes 1 + n(n+1)/2 evaluations: the plain maps take
    # an order-1 jet at the base point and f' alone (output set ("d1",)) at
    # each node, the "+F" maps order-2 jets throughout for F'
    orders, evaluate = [], solver._eval

    def counting_eval(f, x, order, prec):
        orders.append(order)
        return evaluate(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", counting_eval)
    nodes = n * (n + 1) // 2
    for transform, expected in ((False, [1] + [("d1",)] * nodes), (True, [2] * (1 + nodes))):
        orders.clear()
        apply_method(MethodId(n, transform=transform), parse("x^3+2*x-5"), bigreal("1.4", 50), 50)
        assert len(orders) == 1 + nodes
        assert orders == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_newton_seeding_evaluates_each_distinct_node_once(n, monkeypatch):
    # under the Newton seeding level 2's last node x + 2·((y_0 - x)/2) is
    # level 1's node, bit for bit, and takes level 1's slope: an application
    # takes n(n+1)/2 evaluations, one fewer than the trapezoid seeding
    # (test_raw_map_matches_mpf_operators_bitwise checks the bits against a
    # ladder that evaluates that node twice)
    orders, evaluate = [], solver._eval

    def counting_eval(f, x, order, prec):
        orders.append(order)
        return evaluate(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", counting_eval)
    for transform in (False, True):
        orders.clear()
        apply_method(MethodId(n, transform=transform, simpson_seed=SEED_NEWTON),
                     parse("x^3+2*x-5"), bigreal("1.4", 50), 50)
        assert len(orders) == n * (n + 1) // 2


def test_composed_two_newton_steps():
    # t0(t0(3)) on x^2-4: t0(13/6) = 13/6 - (25/36)/(13/3) = 313/156
    got = apply_method(MethodId(0, inner=0), parse("x^2-4"), bigreal(3, 60), 60)
    assert close_to_fraction(got, Fraction(313, 156), 60)


def test_composition_applies_inner_first():
    f = parse("tanh(x-1)")
    x = bigreal("1.1", 80)
    inner = apply_method(MethodId(6), f, x, 80)
    direct = apply_method(MethodId(7), f, inner, 80)
    composed = apply_method(MethodId(7, inner=6), f, x, 80)
    assert abs(composed.value - direct.value) < mp.mpf(10) ** -75


# ------------------------------------------------------------- transform

def transform_pair(text, x, precision):
    """(F, F') of the +F maps at x, at the working precision of ``precision``."""
    prec = working_prec(precision)
    jet = _eval(parse(text), mp.mpf(x, prec=prec)._mpf_, 2, prec)
    return tuple(mp.make_mpf(v) for v in _transform_pair(prec)(jet))


def test_transform_of_square():
    with mp.workdps(60):
        for x in ("0.8", "-2.5"):
            val, slope = transform_pair("x^2", x, 50)
            assert abs(val - (-mp.mpf(x) / 2)) < mp.mpf(10) ** -45
            assert abs(slope - mp.mpf("-0.5")) < mp.mpf(10) ** -45


def test_transform_of_cbrt_is_minus_3x():
    with mp.workdps(60):
        val, slope = transform_pair("cbrt(x)", "0.5", 50)
        assert abs(val + mp.mpf("1.5")) < mp.mpf(10) ** -45
        assert abs(slope + 3) < mp.mpf(10) ** -45


def test_transform_slope_limit_at_multiple_root():
    # f = sin(x) - x has a triple root at 0; F = -f/f' has slope -> -1/3
    _, slope = transform_pair("sin(x)-x", "1e-8", 60)
    assert abs(slope + mp.mpf(1) / 3) < 1e-14  # magnitude 1/3


def test_transform_errors():
    with pytest.raises(Breakdown) as err:  # f = f' = 0: removable 0/0, not patched
        transform_pair("x^2", 0, 50)
    assert err.value.kind == Breakdown.DOMAIN
    with pytest.raises(Breakdown) as err:  # f' = 0 while f != 0
        transform_pair("x^2-4", 0, 50)
    assert err.value.kind == Breakdown.ZERO_DERIVATIVE


def test_transformed_cbrt_one_application_hits_zero():
    f = parse("cbrt(x)")
    m = MethodId(0, transform=True)
    for x0 in ("0.5", "-3", "100"):
        got = apply_method(m, f, bigreal(x0, 50), 50)
        assert abs(got.value) < mp.mpf(10) ** -50 * abs(mp.mpf(x0))


# ------------------------------------------------------------- ladder guards

def test_zero_denominator_guard(monkeypatch):
    # the slope flips sign away from the base point, so the trapezoid's sum
    # vanishes; the base point takes (f, f'), a node f' alone
    base = bigreal("0.3", 50)

    def flipping_eval(f, x, order, prec):
        slope = fone if x == base.value._mpf_ else fnone
        return slope if order == ("d1",) else (fone, slope)

    monkeypatch.setattr(solver, "_eval", flipping_eval)
    with pytest.raises(Breakdown) as err:
        apply_method(MethodId(1), parse("x"), base, 50)
    assert err.value.kind == Breakdown.ZERO_DENOMINATOR
    assert err.value.level == 1


def _map_outcome(apply):
    """The raw bits of a map value, or the type, kind, text and level of its error."""
    try:
        return apply()._mpf_
    except Breakdown as exc:
        return type(exc), exc.kind, str(exc), exc.level


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from([f"t{n}" for n in range(8)] + ["t2_1", "t7_6"]),
    transform=st.booleans(),
    simpson_seed=st.sampled_from([SEED_TRAPEZOID, SEED_NEWTON]),
    margin=st.none() | st.floats(0.01, 100),
    precision=st.sampled_from([30, 60, 700]),
)
def test_raw_map_matches_mpf_operators_bitwise(seed, spec, transform, simpson_seed, margin,
                                               precision):
    """The libmp map gives the bits, and the Breakdown kind, message and level
    (of a node outside the bound too), of the same ladder on mpf operators,
    with or without the base jet from its caller, under a bound just above
    |x| or the default 10^6 (1 + |x|).  The reference runs under mp.workdps;
    the map runs outside it, at its own precision argument.  x comes from
    the seed, since hypothesis favours 0, where many of these functions have
    a zero slope."""
    rng = random.Random(seed)
    f = parse(_any_op_expr(rng, rng.randint(1, 3)))
    x = rng.uniform(-3, 3)
    m = MethodId.parse(spec + "+F" * transform, simpson_seed=simpson_seed)
    prec = working_prec(precision)
    point = mp.mpf(x, prec=prec)
    with mp.workdps(working_dps(precision)):
        bound = 10**6 * (1 + abs(point)) if margin is None else mp.mpf(abs(x) + margin)
        expected = _map_outcome(lambda: reference_map(m, f, precision, bound)(point))
    raw = _method_map(m, f, precision, prec, bound._mpf_)
    assert _map_outcome(lambda: mp.make_mpf(raw(point._mpf_))) == expected
    try:
        jet = _eval(f, point._mpf_, 2 if transform else 1, prec)
    except Breakdown:
        return
    assert _map_outcome(lambda: mp.make_mpf(raw(point._mpf_, jet))) == expected


def test_concurrent_applications_are_bit_identical_to_serial():
    """apply_method takes its precision as an argument, so threads at
    different precisions do not change each other's results."""
    cases = [(MethodId.parse(spec), parse(text), bigreal(x, precision), precision)
             for spec in ("t7", "t7_6")
             for text, x in (("tanh(x-1)", "1.3"), ("x^11+4*x^2-10", "1.3"))
             for precision in (60, 1000)]

    def evaluate(case):
        return apply_method(*case).value._mpf_

    # the serial pass runs first, so libmp's cached constants (ln 2 and pi for
    # tanh's exponentials), which grow without a lock, hold 1000 digits before
    # the threads start; about as long at each precision
    _assert_threads_match_serial(cases, evaluate, {60: 40, 1000: 3})


# ------------------------------------------------------------- iterate

def test_concurrent_iterates_are_bit_identical_to_serial():
    """ScalarProblem and iterate take their precision as an argument, from
    the start point through the schedule and the outer loop to the records,
    so threads at different precisions do not change each other's runs.

    The serial pass runs first, so that libmp's cached constants (pi, e and
    ln 2), which grow without a lock, hold 1000 digits before the threads
    start: two threads growing one at once may race."""
    cases = [(MethodId.parse(spec), parse(text), x, precision)
             for spec, text, x in (("t7", "tanh(x-1)", "1.3"), ("t4", "x^3+2*x-5", "2"),
                                   ("t5_4", "x*exp(x)-1", "0.6"))
             for precision in (60, 1000)]

    def bits(value):
        return None if value is None else value.value._mpf_

    def evaluate(case):
        m, f, x, precision = case
        traj = iterate(ScalarProblem(f, bigreal(x, precision), precision=precision), m)
        return traj.termination, [(bits(r.x), bits(r.fx), bits(r.step)) for r in traj.iterates]

    # about as long at each precision
    _assert_threads_match_serial(cases, evaluate, {60: 40, 1000: 4})


@pytest.mark.parametrize("spec", [f"t{n}" for n in range(8)] + ["t2_1", "t7_6", "t3+F"])
def test_iterate_jet_counts(spec, monkeypatch):
    # below the schedule's precision each residual is the f of the base jet
    # that the next step reuses: K steps take K + 1 base jets and the nodes
    # of every ladder, plus each composition's outer base jet, and no order-0
    # value; a "+F" map takes order-2 jets throughout, a plain map order-1
    # base jets and f' alone at its nodes
    orders = []
    evaluate = solver._eval

    def counting_eval(f, x, order, prec):
        orders.append(order)
        return evaluate(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", counting_eval)
    m = MethodId.parse(spec)
    problem = ScalarProblem(parse("x^3+2*x-5"), bigreal("1.4", 60), precision=60)
    traj = iterate(problem, m)
    assert traj.termination.kind == CONVERGED
    k = len(traj.steps())
    bases = (k + 1) + k * (m.inner is not None)
    nodes = k * sum(n * (n + 1) // 2 for n in solver._levels(m))
    assert k >= 1
    assert len(orders) == bases + nodes
    assert Counter(orders) == Counter({2: bases + nodes} if m.transform else
                                      {1: bases, ("d1",): nodes})


def test_scheduled_iterate_jet_counts(monkeypatch):
    # at 1000 digits, t4 from 2 takes four reduced passes, the last planned
    # above p/4.  Every residual, at x_0..x_5, is the base jet at p, which
    # the digit estimate reads; the pass from x_4 runs at p and reuses the
    # jet there, and takes one node slope, since its ladder settles at level
    # 1 as x_4 has converged.  Nothing else runs at p, and below p there are
    # only the four reduced passes' ladders, a jet and 10 node slopes each at
    # the pass's own precision
    precision = 1000
    calls = []
    evaluate = solver._eval

    def recording_eval(f, x, order, prec):
        calls.append((order, prec))
        return evaluate(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", recording_eval)
    problem = ScalarProblem(parse("x^3+2*x-5"), bigreal("2", precision), precision=precision)
    traj = iterate(problem, MethodId(4))
    assert traj.termination.kind == CONVERGED
    assert len(traj.steps()) == 5
    full, slopes = working_prec(precision), [("d1",)] * 10
    assert [order for order, prec in calls if prec == full] == [1] * 5 + [("d1",), 1]
    reduced = [(order, prec) for order, prec in calls if prec != full]
    precs = list(dict.fromkeys(prec for _, prec in reduced))
    assert len(precs) == 4
    assert reduced == [(order, prec) for prec in precs for order in [1] + slopes]


# at 600 digits the schedule's digit estimate finds no jet at 0 either, and
# the pass runs at p
@pytest.mark.parametrize("spec,precision", [
    pytest.param(spec, precision, id=spec + ("" if precision == 30 else f"-{precision}"))
    for precision in (30, 600) for spec in ("t0", "t2_1", "t1+F")])
@pytest.mark.parametrize("text,message", [
    ("abs(x)+1", "derivative of abs at 0"),
    ("sqrt(x)+1", "derivative of sqrt at 0"),
    ("sqrt(x)", None),  # f(0) = 0: the run converges before any step
])
def test_iterate_residual_where_only_the_jet_breaks_down(spec, text, message, precision):
    # the base jet at 0 breaks down, f there does not: the residual is f
    # alone, and the step breaks down at level 0 as the ladder's own jet does
    problem = ScalarProblem(parse(text), bigreal(0, precision), precision=precision)
    traj = iterate(problem, MethodId.parse(spec))
    assert [(r.x.value, r.fx.value) for r in traj.iterates] == [(0, 0 if message is None else 1)]
    assert traj.termination == (Termination(CONVERGED, "residual") if message is None else
                                Termination(BREAKDOWN, Breakdown.DOMAIN, message, 0))


@pytest.mark.parametrize("spec", ["t3", "t2+F"])
def test_iterate_step_reuses_a_jet_only_at_its_own_point(spec):
    # the step passes on the residual's base jet only when it starts from
    # the point that jet was taken at; from any other point it takes its own
    m, f = MethodId.parse(spec), parse("x^3+2*x-5")
    residual, step = solver._residual_and_step(m, f, 60, 12, from_int(10**7))
    x, y = bigreal("1.4", 60), bigreal("1.3", 60)
    fx = residual(x.value._mpf_)
    assert step(x.value._mpf_, fx) == apply_method(m, f, x, 60).value._mpf_
    assert step(y.value._mpf_, fx) == apply_method(m, f, y, 60).value._mpf_


def test_iterate_square_root_of_two():
    problem = ScalarProblem(parse("x^2-2"), bigreal("1.5", 60), precision=60)
    traj = iterate(problem, MethodId(0))
    assert traj.termination.kind == CONVERGED
    with mp.workdps(130):
        reference = mp.sqrt(2)  # independent 2x-precision oracle
        assert abs(traj.final.x.value - reference) < mp.mpf(10) ** -49


def test_iterate_records_steps_and_s():
    root = bigreal(1, 40)
    problem = ScalarProblem(
        parse("tanh(x-1)"), bigreal(2, 40), precision=40, known_root=root
    )
    traj = iterate(problem, MethodId(2))
    assert traj.termination.kind == CONVERGED
    xs = [r.x.value for r in traj.iterates]
    with mp.workdps(50 + 10):  # the solver's internal working precision
        for rec in traj.iterates[:-1]:
            assert rec.step is not None
            assert rec.step.value == xs[rec.k + 1] - xs[rec.k]
    s_values = [float(r.s) for r in traj.iterates]
    assert s_values == sorted(s_values)  # monotone error decrease here


def test_iterate_flat_tail_diverges():
    for x0 in (-5, 3):
        problem = ScalarProblem(parse("tanh(x-1)"), bigreal(x0, 30), precision=30)
        traj = iterate(problem, MethodId(0))
        assert traj.termination.kind == DIVERGED


def test_iterate_diverged_iterate_has_no_residual(monkeypatch):
    # t0 on x*exp(x)-1 from -3 jumps to about -6.7e66363, far outside the
    # bound: the run ends there without the residual at that point.  At 30
    # digits each residual is the f of t0's one jet, at the iterate itself.
    bound = mp.mpf(10) ** 6 * 4
    residual_points = []
    real_eval = solver._eval

    def recording_eval(f, x, order, prec):
        residual_points.append(mp.make_mpf(x))
        return real_eval(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", recording_eval)
    problem = ScalarProblem(parse("x*exp(x)-1"), bigreal(-3, 30), precision=30)
    traj = iterate(problem, MethodId(0))
    assert traj.termination == Termination(DIVERGED)
    assert traj.final.fx is None
    assert traj.final.x.decimal(5) == "-6.6852e+66363"
    assert len(residual_points) == len(traj.iterates) - 1
    assert all(abs(x) <= bound for x in residual_points)


@pytest.mark.parametrize("method,x0,level,iterates", [
    # the second iterate, 3.1e6, is inside the default bound 3.5e6, but the
    # next Newton value, and so the trapezoid node, is near -10^(2.7e6), where
    # sech^2 has a 2.7-million-digit argument
    (MethodId(1), "2.477085", 1, 3),
    # the inner Newton step goes to -1.6e7, beyond the bound 1.1e7: the outer
    # ladder takes no slope at its base point
    (MethodId(0, inner=0), "10", 0, 1),
], ids=["t1-node", "t0_0-base-point"])
def test_iterate_ladder_node_outside_bound_diverges(monkeypatch, method, x0, level, iterates):
    bound = mp.mpf(10) ** 6 * (1 + mp.mpf(x0))
    real_eval = solver._eval

    def bounded_eval(f, x, order, prec):
        assert abs(mp.make_mpf(x)) <= bound, "f evaluated outside the divergence bound"
        return real_eval(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", bounded_eval)
    problem = ScalarProblem(parse("tanh(x-1)"), bigreal(x0, 30), precision=30, max_iter=5)
    start = time.perf_counter()
    traj = iterate(problem, method)
    assert time.perf_counter() - start < 10  # a backstop; about 1 ms
    assert traj.termination == Termination(
        DIVERGED, None, "a ladder node left the divergence bound", level)
    assert len(traj.iterates) == iterates
    assert traj.final.fx is not None


@settings(deadline=10_000, max_examples=150, derandomize=True)  # deadline: a backstop
@given(
    seed=st.integers(0, 2**32 - 1),
    method=st.builds(MethodId, st.integers(0, 7), st.none() | st.integers(0, 7),
                     st.booleans(), st.sampled_from([SEED_TRAPEZOID, SEED_NEWTON])),
    x0=st.floats(-10, 10),
)
def test_iterate_ends_without_leaving_the_bound(seed, method, x0):
    # random functions and every map: the run ends with a Termination, and f
    # is never evaluated (value, slope or residual) outside the divergence
    # bound; the derandomized examples include ladder-node divergences
    rng = random.Random(seed)
    f = parse(_random_expr(rng, rng.randint(1, 3)))
    problem = ScalarProblem(f, bigreal(x0, 30), precision=30, max_iter=8)
    points = []
    real_eval = solver._eval

    def recording_eval(f, x, order, prec):
        points.append(mp.make_mpf(x))
        return real_eval(f, x, order, prec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_eval", recording_eval)
        traj = iterate(problem, method)
    assert isinstance(traj.termination, Termination)
    bound = problem.divergence_bound.value
    assert points and all(abs(x) <= bound for x in points)


def test_iterate_repelling_fixed_point_diverges():
    problem = ScalarProblem(parse("cbrt(x)"), bigreal("0.5", 40), precision=40)
    traj = iterate(problem, MethodId(0))
    assert traj.termination.kind == DIVERGED
    # |t0'(0)| = 2: each application doubles the distance
    xs = [r.x.value for r in traj.iterates]
    assert abs(xs[1] + 2 * xs[0]) < mp.mpf(10) ** -35


def test_iterate_transformed_cbrt_converges():
    problem = ScalarProblem(parse("cbrt(x)"), bigreal("0.5", 50), precision=50)
    traj = iterate(problem, MethodId(0, transform=True))
    assert traj.termination.kind == CONVERGED
    assert len(traj.iterates) <= 4
    assert abs(traj.final.x.value) < mp.mpf(10) ** -40


def test_iterate_converged_at_start():
    problem = ScalarProblem(parse("x^2-4"), bigreal(2, 40), precision=40)
    traj = iterate(problem, MethodId(0))
    assert traj.termination == (traj.termination.__class__(CONVERGED, "residual"))
    assert len(traj.iterates) == 1
    assert traj.steps() == []


def test_iterate_domain_exit_records_breakdown():
    problem = ScalarProblem(parse("log(x)"), bigreal(3, 40), precision=40)
    traj = iterate(problem, MethodId(0))
    # the residual at the new iterate leaves the domain: no ladder level
    assert traj.termination == Termination(BREAKDOWN, Breakdown.DOMAIN,
                                           "log of nonpositive value -0.29583687")


def test_iterate_zero_derivative_breakdown():
    problem = ScalarProblem(parse("x^2-4"), bigreal(0, 40), precision=40)
    traj = iterate(problem, MethodId(0))
    assert traj.termination.kind == BREAKDOWN
    assert traj.termination.detail == Breakdown.ZERO_DERIVATIVE
    assert traj.termination.level == 0


def test_iterate_breakdown_records_its_ladder_level():
    # t1 on log(x) from 3: the trapezoid node is the Newton value -0.296
    problem = ScalarProblem(parse("log(x)"), bigreal(3, 40), precision=40)
    traj = iterate(problem, MethodId(1))
    assert traj.termination == Termination(BREAKDOWN, Breakdown.DOMAIN,
                                           "log of nonpositive value -0.29583687", 1)
    # t1 after t0: the inner Newton step lands on -0.296, where the outer
    # ladder's base-point jet breaks down, at level 0
    traj = iterate(problem, MethodId(1, inner=0))
    assert traj.termination.level == 0


def test_iterate_max_iterations():
    problem = ScalarProblem(parse("sin(x)-x"), bigreal("0.1", 40), precision=40,
                            max_iter=3)
    traj = iterate(problem, MethodId(0))
    assert traj.termination.kind == MAX_ITERATIONS
    assert len(traj.iterates) == 4


def test_problem_validation():
    f = parse("x^2-2")
    with pytest.raises(ValueError):
        ScalarProblem(f, bigreal(1, 40), precision=0)
    with pytest.raises(ValueError):
        ScalarProblem(f, bigreal(1, 40), precision=40, max_iter=0)
    with pytest.raises(ValueError):
        ScalarProblem(f, bigreal(1, 40), precision=40,
                      divergence_bound=bigreal("0.5", 40))


def test_problem_rejects_low_precision():
    # at 5 digits the default tolerance 10^(10-p) would stop at the start point
    with pytest.raises(ValueError, match="digits"):
        ScalarProblem(parse("x^2-2"), bigreal(3, 5), precision=5)
    ScalarProblem(parse("x^2-2"), bigreal(3, 15), precision=15)


@pytest.mark.parametrize("precision", [3, 0, -5, 14])
def test_apply_method_rejects_precision_below_minimum(precision):
    # at 3 digits the cancellation trap 10^(5-p)|f'| fires on every slope sum
    with pytest.raises(ValueError, match="at least 15"):
        apply_method(MethodId(1), parse("x^2-2"), bigreal("1.5", 20), precision)


@pytest.mark.parametrize("name", ["step_tol", "residual_tol", "divergence_bound"])
def test_problem_rejects_nan_stop_rule(name):
    with pytest.raises(ValueError, match=name):
        ScalarProblem(parse("1/x"), bigreal(1, 40), precision=40, max_iter=40,
                      **{name: bigreal("nan", 40)})


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_problem_rejects_nonfinite_start(x0):
    with pytest.raises(ValueError, match="x0"):
        ScalarProblem(parse("x^2-2"), bigreal(x0, 40), precision=40)


@pytest.mark.parametrize("root", ["nan", "inf", "-inf"])
def test_problem_rejects_nonfinite_known_root(root):
    with pytest.raises(ValueError, match="^known_root must be finite$"):
        ScalarProblem(parse("x^2-2"), bigreal("1.5", 40), precision=40,
                      known_root=bigreal(root, 40))


# ------------------------------------------------------------- properties

SUPERLINEAR_CASES = [("x^2-4", "2"), ("tanh(x-1)", "1")]


@pytest.mark.parametrize("text,root", SUPERLINEAR_CASES)
@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("d", [5, 10, 20])
def test_one_application_is_superlinear(text, root, n, d):
    precision = 120
    f = parse(text)
    with mp.workdps(precision + 10):
        z = mp.mpf(root)
        x = bigreal(z + mp.mpf(10) ** -d, precision)
        got = apply_method(MethodId(n), f, x, precision)
        assert abs(got.value - z) < mp.mpf(10) ** (-(2 * d - 2))


AFFINE_MAPS = [MethodId(n, transform=plus, simpson_seed=seed)
               for n in range(8) for plus in (False, True)
               for seed in (SEED_TRAPEZOID, SEED_NEWTON)]


@settings(deadline=None, max_examples=25)
@given(
    a=st.integers(-10**4, 10**4).filter(lambda v: v != 0),
    b=st.integers(-10**4, 10**4),
    start=st.integers(-10**4, 10**4),
    precision=st.sampled_from([30, 60]),
)
def test_every_map_is_exact_on_affine_functions(a, b, start, precision):
    # f' is constant, so every level of every ladder, on f or on F = -f/f',
    # lands on the root up to rounding
    f = parse(f"({a})*x+({b})")
    x0 = bigreal(f"{start}e-2", precision)
    for m in AFFINE_MAPS:
        got = apply_method(m, f, x0, precision)
        with mp.workdps(precision + 10):
            z = -mp.mpf(b) / a
            assert abs(got.value - z) <= mp.mpf(10) ** -precision * max(1, abs(z)), str(m)


def test_scaling_function_leaves_iterates_bit_identical():
    # the maps are invariant under f -> c f; for power-of-two c the floating
    # point trajectories agree bit for bit
    base = parse("tanh(x-1)")
    for lam in ("4", "0.25", "-8"):
        scaled = parse(f"{lam}*(tanh(x-1))")
        p1 = ScalarProblem(base, bigreal("1.5", 50), precision=50)
        p2 = ScalarProblem(scaled, bigreal("1.5", 50), precision=50)
        t1 = iterate(p1, MethodId(2))
        t2 = iterate(p2, MethodId(2))
        assert [r.x.decimal() for r in t1.iterates] == [r.x.decimal() for r in t2.iterates]
        assert [r.x.value for r in t1.iterates] == [r.x.value for r in t2.iterates]


def test_iterate_deterministic():
    problem = ScalarProblem(parse("x^3+2*x-5"), bigreal("1.5", 80), precision=80)
    a = iterate(problem, MethodId(3))
    b = iterate(problem, MethodId(3))
    assert [r.x.decimal() for r in a.iterates] == [r.x.decimal() for r in b.iterates]
    assert a.termination == b.termination


@pytest.mark.parametrize("n", range(1, 8))
def test_slope_sum_near_root_approximates_scaled_derivative(n):
    # near the root the weighted slope sum B_n collapses to c_n f'(z): each map
    # fixes z, and from x = z + d its step -c_n f(x)/B_n gives B_n/c_n = 2z + O(d)
    precision, m, f = 60, MethodId(n), parse("x^2-2")
    with mp.workdps(precision + 10):
        z = mp.sqrt(2)
        d = mp.mpf(10) ** -20
        fixed = apply_method(m, f, bigreal(z, precision), precision).value
        assert abs(fixed - z) < mp.mpf(10) ** -precision
        x = z + d
        y = apply_method(m, f, bigreal(x, precision), precision).value
        assert abs((x * x - 2) / (x - y) - 2 * z) < 10 * d


def test_newton_seeded_simpson_matches_alternate_wiring():
    # the published-tables wiring takes the three-node step from the Newton
    # value; check against a direct transcription of that variant
    f = parse("tanh(x-1)")
    x = bigreal("1.1", 60)
    got = apply_method(MethodId(2, simpson_seed=SEED_NEWTON), f, x, 60)
    with mp.workdps(70):
        u = mp.mpf("1.1")
        fx = mp.tanh(u - 1)
        fp = lambda t: mp.sech(t - 1) ** 2
        h = -(fx / fp(u)) / 2
        b = fp(u) + 4 * fp(u + h) + fp(u + 2 * h)
        expected = u - 6 * fx / b
        assert abs(got.value - expected) < mp.mpf(10) ** -55


@st.composite
def _mantissas(draw):
    bits = draw(st.integers(1, 12000))
    return draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(man=_mantissas(), exp=st.integers(-10**6, 10**6), negative=st.booleans())
@example(man=2**12000 - 1, exp=-12000, negative=False)  # just below 1, where the terms cancel
@example(man=1, exp=-1100, negative=True)  # about 7.4e-332: below the float range
@example(man=3, exp=1100, negative=False)  # about 4e331: above it
def test_log10_abs_matches_mpmath(man, exp, negative):
    # the float log of mantissa and exponent against mpmath's log at 60 digits,
    # within a few float roundings of max(1, |log10 v|), which the log of a
    # long mantissa not cut to 53 bits first misses near 1
    v = mp.make_mpf(from_man_exp(-man if negative else man, exp))
    with mp.workdps(60):
        expected = mp.log10(abs(v))
    assert abs(_log10_abs(v._mpf_) - float(expected)) <= 1e-14 * max(1, abs(float(expected)))


def test_log10_abs_special_values():
    assert _log10_abs(fzero) == -math.inf
    assert _log10_abs(fninf) == math.inf
    assert math.isnan(_log10_abs(fnan))


def test_log10_abs_beyond_the_float_range():
    # a binary exponent no float holds: the log is the infinity of the
    # exponent's sign, as a float log of such a value would be
    assert _log10_abs(from_man_exp(3, 10**400)) == math.inf
    assert _log10_abs(from_man_exp(-3, 10**400)) == math.inf
    assert _log10_abs(from_man_exp(2**60 + 1, -10**400)) == -math.inf
