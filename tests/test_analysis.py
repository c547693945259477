import mpmath as mp
import pytest

from conftest import bisect_mpf, cubic
from cotesroot import (
    InsufficientData,
    MethodId,
    RoundoffFloor,
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
from cotesroot import analysis
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


def test_sdigits_one_simpson_application_on_tanh():
    # published-tables wiring; reference row value 5.6
    f = parse("tanh(x-1)")
    got = apply_method(MethodId(2, simpson_seed=SEED_NEWTON), f, bigreal("1.1", 60), 60)
    s = float(significant_digits(got, bigreal(1, 60)))
    assert s == pytest.approx(5.6, abs=0.15)


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
    with pytest.raises(RoundoffFloor):
        estimate_order(traj, bigreal(2, 40))


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
    assert results[0].q.value == results[1].q.value
    assert [r.value for r in results[0].per_pair] == [r.value for r in results[1].per_pair]


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


@pytest.mark.parametrize("precision, polish_raises", [(60, False), (300, True)])
def test_bisect_root_falls_back_on_a_triple_root(monkeypatch, precision, polish_raises):
    # secant on f converges only linearly at a triple root: at 60 digits it
    # stops about 1e-32 short, which the certificate rejects; from 300 digits
    # on (2640 included) findroot raises.  The second polish, of f/f', whose
    # root there is simple, is certified.
    outcomes = []
    real_findroot = mp.findroot

    def recording_findroot(*args):
        try:
            outcomes.append(real_findroot(*args))
        except ValueError as exc:
            outcomes.append(exc)
            raise
        return outcomes[-1]

    monkeypatch.setattr(analysis.mp, "findroot", recording_findroot)
    root = bisect_root(parse("(x-1)^3*exp(x)"), "0.5", 2, precision)
    polish_f, polish_ratio = outcomes
    assert isinstance(polish_f, ValueError) == polish_raises
    with mp.workdps(precision + 10):
        if not polish_raises:
            assert abs(polish_f - 1) > mp.mpf(10) ** -precision
        assert abs(polish_ratio - 1) <= mp.mpf(10) ** -precision / 2
        assert abs(root.value - 1) <= mp.mpf(10) ** -precision / 2


@pytest.mark.parametrize("precision", [60, 300, 1000])
@pytest.mark.parametrize("text", ["(x-1)^3*exp(x)", "(x-1)^5"])
def test_bisect_root_multiple_root_evaluation_count(monkeypatch, text, precision):
    # bisection alone takes about 3.3 evaluations of f per digit (1034 at 300
    # digits); the polish of f/f' lands on x = 1, where f and f' both vanish
    calls = []
    real_eval = analysis._eval

    def counting_eval(f, x, order, prec):
        calls.append(order)
        return real_eval(f, x, order, prec)

    monkeypatch.setattr(analysis, "_eval", counting_eval)
    root = bisect_root(parse(text), "0.5", 2, precision)
    assert len(calls) <= 200
    assert 1 in calls
    with mp.workdps(precision + 10):
        assert abs(root.value - 1) <= mp.mpf(10) ** -precision / 2


def _no_root(f, x0):
    raise ValueError("no root")


@pytest.mark.parametrize("polish", [
    pytest.param(_no_root, id="raises"),
    # a root with a sign change, but not the bracket's: only the bracket
    # test rejects it
    pytest.param(lambda f, x0: -mp.sqrt(2), id="outside-bracket"),
    # inside the seed bracket, which is 2^-100 wide, but no root is near it
    pytest.param(lambda f, x0: x0 + mp.mpf(10) ** -31, id="uncertified"),
])
def test_bisect_root_falls_back_when_the_polish_fails(monkeypatch, polish):
    monkeypatch.setattr(analysis.mp, "findroot", polish)
    root = bisect_root(parse("x^2-2"), 1, 2, 60)
    with mp.workdps(70):
        assert abs(root.value - mp.sqrt(2)) <= mp.mpf(10) ** -60 / 2
        assert root.value == bisect_mpf(lambda x: x**2 - 2, 1, 2, 70)


def test_bisect_root_tabpol1_oracle_evaluation_count(monkeypatch):
    # plain bisection to 10^-2640 takes about 8770 evaluations of f
    calls = []
    real_eval = analysis._eval

    def counting_eval(f, x, order, prec):
        calls.append(order)
        return real_eval(f, x, order, prec)

    monkeypatch.setattr(analysis, "_eval", counting_eval)
    bisect_root(parse("x^11+4*x^2-10"), 1, 2, 2640)
    assert 0 < len(calls) <= 300
    assert set(calls) == {0}
