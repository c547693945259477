"""iterate's precision schedule against fixed-precision reference trajectories.

Below 600 digits and for "+F" maps every pass runs at the full precision, so
there iterate equals a chain of apply_method calls bit for bit.  Above it the
early passes run at a reduced precision; the trajectory must still stop the
same way after the same number of iterations, and each iterate must agree
with the reference to 10 digits more than it has correct.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_abs, round_nearest, to_int

from conftest import certified_root, cubic

from cotesroot import (Breakdown, MethodId, ScalarProblem, bigreal, estimate_order, iterate, parse,
                       solver)
from cotesroot.bigreal import working_prec
from cotesroot.expr import eval_value
from cotesroot.solver import (BREAKDOWN, CONVERGED, DIVERGED, MAX_ITERATIONS, SEED_NEWTON,
                              SEED_TRAPEZOID, Termination, apply_method)

ROOTS = {
    "x^3+2*x-5": lambda dps: certified_root(cubic, 1, 2, dps),
    "x^11+4*x^2-10": lambda dps: certified_root(lambda x: x**11 + 4 * x * x - 10, 1, 2, dps),
    "x*exp(x)-1": lambda dps: certified_root(lambda x: x * mp.exp(x) - 1, 0, 1, dps),
    "tanh(x-1)": lambda dps: mp.mpf(1),
    "sin(x)-x": lambda dps: mp.mpf(0),
}

# the benchmark's highprec op types from their base starts, then cases that
# break looser schedule rules: two reduced passes stopping on their own
# rounding under a cruder digit estimate (the t7_6 run), reduced passes of a "+F" map breaking down, and
# passes that gain more digits than the nominal order plans for (tanh(x-1),
# where f''(1) = 0 makes t0 cubic and t2 quintic)
CASES = [
    ("x^3+2*x-5", "t4", 1000, "2"),
    ("x^3+2*x-5", "t4", 2600, "2"),
    ("x*exp(x)-1", "t5_4", 1000, "1"),
    ("x*exp(x)-1", "t5_4", 2600, "1"),
    ("x^11+4*x^2-10", "t7_6", 2600, "2"),
    ("tanh(x-1)", "t7", 1000, "1.3"),
    ("tanh(x-1)", "t7", 2600, "1.3"),
    ("x^3+2*x-5", "t7_6", 1000, "1.9139"),
    ("sin(x)-x", "t2+F", 1200, "0.268"),
    ("tanh(x-1)", "t0", 1000, "1.5"),
    ("tanh(x-1)", "t2", 1000, "1.5"),
]


def reference_trajectory(f, m, x0, precision, max_iter):
    """Iterates of repeated full-precision apply_method calls, stopped by
    ScalarProblem's default rules, and the stop ("step", "residual" or None)."""
    tol = mp.mpf(10) ** (10 - precision)
    xs = [x0]
    with mp.workdps(precision + 10):
        if abs(eval_value(f, x0, precision).value) < tol:
            return xs, "residual"
        for _ in range(max_iter):
            x = apply_method(m, f, xs[-1], precision).value
            step = x - xs[-1]
            xs.append(x)
            if abs(step) < tol:
                return xs, "step"
            if abs(eval_value(f, x, precision).value) < tol:
                return xs, "residual"
    return xs, None


@pytest.mark.parametrize("text,method,precision,x0", CASES)
def test_schedule_matches_fixed_precision_reference(text, method, precision, x0):
    f = parse(text)
    m = MethodId.parse(method)
    problem = ScalarProblem(f, bigreal(x0, precision), precision=precision)
    traj = iterate(problem, m)
    with mp.workdps(precision + 10):
        xs, stop = reference_trajectory(f, m, mp.mpf(x0), precision, problem.max_iter)
        assert stop is not None
        assert (traj.termination.kind, traj.termination.detail) == (CONVERGED, stop)
        assert len(traj.iterates) == len(xs)
        z = ROOTS[text](precision + 20)
        scale = max(1, abs(z))
        for rec, ref in zip(traj.iterates, xs):
            err = abs(ref - z) / scale
            s = precision if err == 0 else min(-mp.log10(err), precision)
            agreement = mp.mpf(10) ** -min(s + 10, precision) * scale
            assert abs(rec.x.value - ref) <= agreement, f"k={rec.k}, s={mp.nstr(s, 5)}"


@pytest.mark.parametrize("n,q", [(0, 3), (2, 5)])
def test_schedule_keeps_tanh_orders(n, q):
    # f''(1) = 0 lifts Newton to cubic and Simpson to quintic order, above the
    # nominal n+2 the schedule plans with; reduced passes must not cut that short
    precision = 1000
    problem = ScalarProblem(parse("tanh(x-1)"), bigreal("1.5", precision),
                            precision=precision, max_iter=12)
    traj = iterate(problem, MethodId(n))
    assert traj.termination.kind == CONVERGED
    est = estimate_order(traj, bigreal(1, precision))
    assert float(est.q) == pytest.approx(q, abs=0.2)


@pytest.mark.parametrize("text,method,precision,x0", CASES[:5])
def test_last_pass_of_a_budget_runs_at_full_precision(text, method, precision, x0):
    # with max_iter=1 the only pass is the one that reaches the budget
    f = parse(text)
    m = MethodId.parse(method)
    problem = ScalarProblem(f, bigreal(x0, precision), precision=precision, max_iter=1)
    traj = iterate(problem, m)
    assert traj.final.x == apply_method(m, f, problem.x0, precision)


@pytest.mark.parametrize("method", ["t0", "t2", "t7_6"])
def test_below_schedule_precision_iterate_is_a_full_precision_chain(method):
    # at 500 digits no pass is reduced: every iterate equals the reference bit for bit
    precision = 500
    f = parse("x^3+2*x-5")
    m = MethodId.parse(method)
    problem = ScalarProblem(f, bigreal("2", precision), precision=precision)
    traj = iterate(problem, m)
    with mp.workdps(precision + 10):
        xs, stop = reference_trajectory(f, m, mp.mpf(2), precision, problem.max_iter)
    assert (traj.termination.kind, traj.termination.detail) == (CONVERGED, stop)
    assert [rec.x.value for rec in traj.iterates] == xs


@pytest.mark.parametrize("precision", [500, 700])
def test_reduced_pass_correction_beyond_the_float_range(precision):
    # t0 on x*exp(x)-1 from -2.699451 jumps to about -1.1e16591, far outside
    # the bound; at 700 digits that is a reduced pass's result, which is
    # returned without an f there, and the run ends where the 500-digit run,
    # which has no schedule, ends
    problem = ScalarProblem(parse("x*exp(x)-1"), bigreal("-2.699451", precision),
                            precision=precision)
    traj = iterate(problem, MethodId(0))
    assert traj.termination == Termination(DIVERGED)
    assert len(traj.iterates) == 4
    assert traj.final.x.decimal(8) == "-1.0857931e+16591"


@pytest.mark.parametrize("precision", [599, 700])
def test_reduced_result_outside_the_bound_ends_the_run_diverged(precision):
    # Newton on tanh(exp(x)) from 700 jumps to about -4.5e8809507, far outside
    # the bound, where exp overflows libmp; at 700 digits that is a reduced
    # pass's result, which is returned without an f there, and the run ends
    # where the 599-digit run, which has no schedule, ends
    problem = ScalarProblem(parse("tanh(exp(x))"), bigreal(700, precision), precision=precision,
                            max_iter=5)
    traj = iterate(problem, MethodId(0))
    assert traj.termination == Termination(DIVERGED)
    assert len(traj.iterates) == 2
    assert traj.final.fx is None


# the precisions of a 600-digit run and of a reduced pass from an iterate with
# no correct digit (_SCHEDULE_GUARD digits)
FULL, LOW = (working_prec(d) for d in (600, 20))


def _recorded_evaluations(monkeypatch):
    """(order or output set, precision, point) of every evaluation of f."""
    calls, evaluate = [], solver._eval

    def recording_eval(f, x, order, prec):
        calls.append((order, prec, mp.make_mpf(x)))
        return evaluate(f, x, order, prec)

    monkeypatch.setattr(solver, "_eval", recording_eval)
    return calls


# last_reduced: the reduced attempt's evaluation at 1 and every call after it
@pytest.mark.parametrize("spec,iterates,last_reduced", [
    ("t0", [2, 1], [(1, FULL, 1)]),  # the estimate's jet at 1 has f' = 0
    ("t0_0", [2], [(1, LOW, 1), (1, FULL, 1)]),  # its outer base slope at 1 is zero
])
def test_reduced_pass_falls_back_to_a_full_pass(monkeypatch, spec, iterates, last_reduced):
    """Newton on x^3-3x+7 goes from 2 exactly to 1, where f' = 3x^2-3
    vanishes.  t0's reduced pass lands there, and the base jet its digit
    estimate takes there has f' = 0; t0_0's reduced pass breaks down at its
    outer ladder's base point there.  Either pass is redone at the full
    precision from 2 with the residual's jet there, and the run breaks down
    where that pass, or the next one, meets the zero slope: t0's next pass
    starts from the jet the estimate took at 1."""
    calls = _recorded_evaluations(monkeypatch)
    problem = ScalarProblem(parse("x^3-3*x+7"), bigreal(2, 600), precision=600)
    traj = iterate(problem, MethodId.parse(spec))
    assert [rec.x.value for rec in traj.iterates] == iterates
    assert traj.termination == Termination(BREAKDOWN, Breakdown.ZERO_DERIVATIVE,
                                           "f' vanished at the base point", 0)
    assert calls == [(1, FULL, 2), (1, LOW, 2), *last_reduced]


def test_reduced_pass_leaving_the_bound_falls_back_to_a_full_pass(monkeypatch):
    """t1 on tanh(x-1) from 2.477085 reaches 3.1e6, inside the bound 3.5e6,
    but the Newton value there, and so the trapezoid node, is far outside.
    The reduced pass from there leaves the bound after its base jet, and the
    pass is redone at the full precision from the residual's jet there, which
    leaves it too: the run ends diverged, as it does at 30 digits, where no
    pass is reduced."""
    calls = _recorded_evaluations(monkeypatch)
    problem = ScalarProblem(parse("tanh(x-1)"), bigreal("2.477085", 600), precision=600,
                            max_iter=5)
    traj = iterate(problem, MethodId(1))
    assert traj.termination == Termination(DIVERGED, None,
                                           "a ladder node left the divergence bound", 1)
    assert len(traj.iterates) == 3
    last = traj.final.x.value
    assert calls[-2:] == [(1, FULL, last), (1, LOW, last)]
    assert all(abs(x) <= problem.divergence_bound.value for _, _, x in calls)


def test_a_pass_that_leaves_too_few_passes_runs_at_full_precision(monkeypatch):
    """Newton on cos(x)-x from -2 at 1000 digits ends at max_iter=12 before
    it converges.  The eleventh pass, from x_10, is planned above p/4, but
    one pass after it cannot reach p at order 2 from its plan, so it runs
    at p, as the twelfth does, and x_11 and x_12 are apply_method's.  Each
    residual is the base jet at p, which the digit estimate reads and the
    passes from x_10 and x_11 reuse: 13 evaluations at p, and one jet at its
    own precision for each of the ten reduced passes."""
    calls = _recorded_evaluations(monkeypatch)
    f, m = parse("cos(x)-x"), MethodId.parse("t0", simpson_seed=SEED_NEWTON)
    traj = iterate(ScalarProblem(f, bigreal(-2, 1000), precision=1000, max_iter=12), m)
    monkeypatch.undo()
    assert traj.termination == Termination(MAX_ITERATIONS)
    assert len(traj.iterates) == 13
    assert [order for order, prec, _ in calls if prec == working_prec(1000)] == [1] * 13
    assert len(calls) == 13 + 10
    xs = [rec.x for rec in traj.iterates]
    assert xs[11:] == [apply_method(m, f, xs[10], 1000), apply_method(m, f, xs[11], 1000)]


def test_a_reduced_pass_short_of_its_plan_is_redone_at_full_precision(monkeypatch):
    """t7_6 (order 56 under the Newton seeding) on the double root of
    (x^2-2)^2 gains digits linearly.  At 600 digits the second pass, from
    x_1 about 3 digits off, is planned at 186 digits, above p/4; its result
    is short of the 56-fold gain planned, and the pass is redone at p from
    x_1 with the residual's jet there: the base jet the estimate took at the
    short result goes unused."""
    calls = _recorded_evaluations(monkeypatch)
    f, m = parse("(x^2-2)^2"), MethodId.parse("t7_6", simpson_seed=SEED_NEWTON)
    traj = iterate(ScalarProblem(f, bigreal("-0.487433", 600), precision=600, max_iter=4), m)
    monkeypatch.undo()
    assert traj.termination == Termination(MAX_ITERATIONS)
    x1, x2 = (traj.iterates[k].x for k in (1, 2))
    plan = working_prec(186)
    reduced = [call for call in calls if call[1] == plan]
    first = calls.index((1, plan, x1.value))
    # one reduced pass: the base jets of its two ladders and their node slopes
    assert calls[first:first + len(reduced)] == reduced
    assert [order for order, _, _ in reduced].count(1) == 2
    after = calls[first + len(reduced):]
    short = after[0][2]
    assert after[0] == (1, FULL, short) and (1, FULL, x1.value) not in after
    assert all(prec == FULL for _, prec, _ in after)
    assert short != x2.value
    assert x2 == apply_method(m, f, x1, 600)


@pytest.mark.parametrize("text,method,precision,x0,at_p", [
    pytest.param(*case, at_p, id="-".join(map(str, case)))
    for case, at_p in zip(CASES[:7], [7, 12, 7, 9, 36, 6, 6])])
def test_highprec_evaluations_at_full_precision(monkeypatch, text, method, precision, x0, at_p):
    """The benchmark's highprec op types from their base starts: passes
    planned above p/4 run reduced, so only the last one or two passes, and
    the residuals' base jets, which the digit estimate reads and the first
    full pass reuses, evaluate f at p."""
    traj, count = _run_counting_at_p(monkeypatch, parse(text), MethodId.parse(method),
                                     bigreal(x0, precision), precision)
    assert traj.termination.kind == CONVERGED
    assert count == at_p


def test_a_huge_iteration_budget_plans_its_passes(monkeypatch):
    """With max_iter = 10^9 the budget test q·s·q^(max_iter - k) >= p does
    not overflow: t4 from 2 at 1000 digits runs as with 30 iterations, its
    fourth pass reduced at a plan above p/4."""
    f, m = parse("x^3+2*x-5"), MethodId(4)
    traj, at_p = _run_counting_at_p(monkeypatch, f, m, bigreal(2, 1000), 1000, max_iter=10**9)
    budget, at_p_budget = _run_counting_at_p(monkeypatch, f, m, bigreal(2, 1000), 1000)
    assert traj.termination.kind == CONVERGED
    assert (traj.iterates, at_p) == (budget.iterates, at_p_budget) and at_p == 7


def _run_counting_at_p(monkeypatch, f, m, x0, precision, max_iter=30, whole=False):
    """iterate's trajectory and the number of evaluations of f it makes at p;
    with ``whole`` every ladder runs to n (``_ladder_full`` without ``settled``)."""
    calls = _recorded_evaluations(monkeypatch)
    if whole:
        ladder = solver._ladder_full
        monkeypatch.setattr(solver, "_ladder_full", lambda *args: ladder(*args[:9]))
    traj = iterate(ScalarProblem(f, x0, precision=precision, max_iter=max_iter), m)
    monkeypatch.undo()
    return traj, sum(prec == working_prec(precision) for _, prec, _ in calls)


def _assert_a_chain_of_applications(traj, f, m, precision):
    xs = [rec.x for rec in traj.iterates]
    for k, (x, xn) in enumerate(zip(xs, xs[1:])):
        assert xn == apply_method(m, f, x, precision), f"k={k}"


def _near(root, precision, digits=200, side=1):
    """root + side·10^-digits, correct to more than ``precision`` digits."""
    with mp.workdps(precision + digits + 20):
        return bigreal(root + side * mp.mpf(10) ** -digits, precision)


@pytest.mark.parametrize("spec", ["t4", "t7", "t5_4", "t7_6"])
@pytest.mark.parametrize("text", ["x^3+2*x-5", "tanh(x-1)"])
def test_settled_ladders_keep_the_bits_of_whole_ladders(monkeypatch, text, spec):
    """From 10^-520 off the root at 1000 digits the first plan is at least p,
    so every pass runs at p, and its ladders stop at level 1, whose
    correction has settled: each iterate is apply_method of the one before,
    bit for bit, and so is the run with whole ladders, which takes more
    evaluations."""
    precision, f, m = 1000, parse(text), MethodId.parse(spec)
    x0 = _near(ROOTS[text](precision + 20), precision, digits=520)
    traj, at_p = _run_counting_at_p(monkeypatch, f, m, x0, precision)
    whole, at_p_whole = _run_counting_at_p(monkeypatch, f, m, x0, precision, whole=True)
    assert traj.termination.kind == CONVERGED
    assert traj == whole
    assert at_p < at_p_whole
    _assert_a_chain_of_applications(traj, f, m, precision)


def test_a_ladder_settles_past_level_1(monkeypatch):
    """From 10^-360 off the cubic's root at 1000 digits, t4's first pass
    runs at p, and its ladder settles at level 2, since level 1's order 3
    leaves about 1080 digits: with f at x_0 and the base jets at x_0 and
    x_1, 3 node slopes at p, against 10 for the whole ladder, with the whole
    ladder's bits."""
    precision, f, m = 1000, parse("x^3+2*x-5"), MethodId(4)
    x0 = _near(ROOTS["x^3+2*x-5"](precision + 20), precision, digits=360)
    traj, at_p = _run_counting_at_p(monkeypatch, f, m, x0, precision)
    whole, at_p_whole = _run_counting_at_p(monkeypatch, f, m, x0, precision, whole=True)
    assert traj.termination.kind == CONVERGED and len(traj.iterates) == 2
    assert traj == whole
    assert (at_p, at_p_whole) == (2 + 3, 2 + 10)
    _assert_a_chain_of_applications(traj, f, m, precision)


@pytest.mark.parametrize("spec", ["t4", "t7", "t5_4", "t7_6"])
def test_ladders_at_a_root_at_zero_keep_their_bits(monkeypatch, spec):
    """At the simple root 0 of x*exp(x) a correction is about x itself, and
    y_k = x - u_k keeps shrinking with k: corrections that agree to their
    last bit there leave y_n different from y_k, so no ladder may settle on
    them.  A tolerance of 10^-(p + 20) max(1, |x|) moves these runs.  From
    10^-520 the first plan is at least p, so every pass runs at p."""
    precision, f, m = 1000, parse("x*exp(x)"), MethodId.parse(spec)
    x0 = _near(mp.mpf(0), precision, digits=520)
    traj, _ = _run_counting_at_p(monkeypatch, f, m, x0, precision)
    whole, _ = _run_counting_at_p(monkeypatch, f, m, x0, precision, whole=True)
    assert traj.termination.kind == CONVERGED
    assert traj == whole
    _assert_a_chain_of_applications(traj, f, m, precision)


@pytest.mark.parametrize("spec", ["t4", "t7", "t5_4", "t7_6"])
def test_ladders_at_a_double_root_run_to_n(monkeypatch, spec):
    """At the double root of (x^2-2)^2 a plain map converges linearly, and the
    corrections of successive levels differ by a fixed fraction of the
    error, so no ladder settles: the run takes the evaluations of whole
    ladders, and each iterate is apply_method of the one before."""
    precision, f, m = 1000, parse("(x^2-2)^2"), MethodId.parse(spec)
    with mp.workdps(precision + 20):
        x0 = _near(mp.sqrt(2), precision)
    traj, at_p = _run_counting_at_p(monkeypatch, f, m, x0, precision, max_iter=6)
    whole, at_p_whole = _run_counting_at_p(monkeypatch, f, m, x0, precision, 6, whole=True)
    assert traj.termination.kind == MAX_ITERATIONS
    assert (traj, at_p) == (whole, at_p_whole)
    _assert_a_chain_of_applications(traj, f, m, precision)


@pytest.mark.parametrize("text,spec,precision", [
    ("x^3+2*x-5", "t4", 599),  # below the schedule's precision
    ("tanh(x-1)", "t5_4", 599),
    ("(x^2-2)^2", "t4+F", 1000),  # a "+F" map, which the schedule leaves at p
    ("(x^2-2)^2", "t7_6+F", 1000),
])
def test_ladders_outside_the_schedule_run_to_n(monkeypatch, text, spec, precision):
    """Where the schedule does not run, every ladder runs to n."""
    f, m = parse(text), MethodId.parse(spec)
    with mp.workdps(precision + 20):
        x0 = _near(mp.sqrt(2) if text == "(x^2-2)^2" else ROOTS[text](precision + 20), precision)
    traj, at_p = _run_counting_at_p(monkeypatch, f, m, x0, precision)
    whole, at_p_whole = _run_counting_at_p(monkeypatch, f, m, x0, precision, whole=True)
    assert traj.termination.kind == CONVERGED
    assert (traj, at_p) == (whole, at_p_whole)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(
    root=st.integers(-12, 12),
    b=st.integers(-3, 3),
    c=st.integers(1, 6),
    spec=st.sampled_from(["t0", "t1", "t2", "t4", "t7", "t2_1", "t5_4", "t7_6"]),
    simpson_seed=st.sampled_from([SEED_TRAPEZOID, SEED_NEWTON]),
    precision=st.integers(600, 700),
    side=st.sampled_from([-1, 1]),
    data=st.data(),
)
def test_iterate_near_a_simple_root_is_a_chain_of_applications(root, b, c, spec, simpson_seed,
                                                               precision, side, data):
    """(x - r)(x^2 + b x + c'), c' = c + floor(b^2/4) + 1, has the one real
    root r = root/4, a simple one; hypothesis favours 0, where a correction
    is about x itself.  From 10^-digits off it, digits at least 90 and
    (p - 20)/q + 1, q the nominal order, the first plan is at least p, so
    every pass runs at p, and its ladders settle with the bits of whole
    ladders: each iterate is apply_method of the one before."""
    r = mp.mpf(root) / 4
    f = parse(f"(x-({mp.nstr(r, 5)}))*(x^2+({b})*x+{c + b * b // 4 + 1})")
    m = MethodId.parse(spec, simpson_seed=simpson_seed)
    low = max(90, -(-(precision - 20) // solver._nominal_order(m)) + 1)
    digits = data.draw(st.integers(low, max(low, 300)), label="digits")
    traj = iterate(ScalarProblem(f, _near(r, precision, digits, side), precision=precision), m)
    assert traj.termination.kind == CONVERGED
    _assert_a_chain_of_applications(traj, f, m, precision)


# ------------------------------------------------------------ the planner alone

def _stub_planner(log, digits, results=None, breaks=(), scheduled=True):
    """``solver._planner`` at p = 1000, q = 3, max_iter = 6 and the bound 1000,
    on pieces that log their calls.  Points are integers as raw mpfs; an
    evaluation is (x, "evaluation at", x), logged by the x it was taken at.
    ``digits`` maps a point to its estimate; the reduced pass from n gives
    ``results[n]`` (n + 1 by default), or breaks down where n is in
    ``breaks``, and the full pass gives n + 10."""
    def at_p(x):
        log.append(("at_p", to_int(x)))
        return x, "evaluation at", to_int(x)

    def estimate(x, evaluation, factors):
        log.append(("estimate", to_int(x), evaluation[2], factors))
        return digits[to_int(x)]

    def reduced(x, evaluation, work):
        n = to_int(x)
        log.append(("reduced", n, evaluation[2], work))
        if n in breaks:
            raise Breakdown(Breakdown.SINGULAR_MATRIX, "stub")
        return from_int((results or {}).get(n, n + 1)), f"factors from {n}"

    def full(x, evaluation):
        log.append(("full", to_int(x), evaluation[2]))
        return from_int(to_int(x) + 10)

    return solver._planner(1000, 6, 3, scheduled, at_p, estimate, reduced, full,
                           lambda v: mpf_abs(v, 53, round_nearest), from_int(1000))


def _stub_run(residual, step, passes):
    """The outer loop's calls from x0 = 1: the residual at each iterate, then
    a step from it, and the residual at the last iterate where it is inside
    the bound; returns the iterates."""
    xs = [from_int(1)]
    for _ in range(passes):
        residual(xs[-1])
        xs.append(step(xs[-1]))
    if to_int(xs[-1]) <= 1000:
        residual(xs[-1])
    return [to_int(x) for x in xs]


def test_the_planner_carries_an_accepted_estimate_and_latches_at_p():
    """Plans from 10, 30 and 90 digits are 50, 110 and 290, each accepted
    (the last above p/4, and 260 meets its plan 3·90 - 20); the one from 260
    is 800, whose result is as accurate as 800 digits allow, so it is redone
    by the full pass from x_3 with x_3's evaluation, taken before the
    reduced pass, and every later pass is full.  Each point is evaluated
    once, and each estimate is taken once: at x0 with no factors, and at a
    reduced result with that pass's factors, carried into the next plan."""
    log = []
    xs = _stub_run(*_stub_planner(log, {1: 10, 2: 30, 3: 90, 4: 260, 5: 900}), 5)
    assert xs == [1, 2, 3, 4, 14, 24]
    assert log == [
        ("at_p", 1), ("estimate", 1, 1, None), ("reduced", 1, 1, 50),
        ("at_p", 2), ("estimate", 2, 2, "factors from 1"), ("reduced", 2, 2, 110),
        ("at_p", 3), ("estimate", 3, 3, "factors from 2"), ("reduced", 3, 3, 290),
        ("at_p", 4), ("estimate", 4, 4, "factors from 3"), ("reduced", 4, 4, 800),
        ("at_p", 5), ("estimate", 5, 5, "factors from 4"), ("full", 4, 4),
        ("at_p", 14), ("full", 14, 14), ("at_p", 24),
    ]


@pytest.mark.parametrize("results,breaks,xs,tail", [
    # the reduced pass breaks down: redone by the full pass, which latches
    (None, {1}, [1, 11, 21], [("full", 1, 1), ("at_p", 11), ("full", 11, 11), ("at_p", 21)]),
    # the result lies outside the bound: returned with no evaluation or
    # estimate there, and the outer loop ends the run diverged
    ({1: 5000}, (), [1, 5000], []),
], ids=["breakdown", "outside-bound"])
def test_the_planner_falls_back_or_returns_an_unjudged_result(results, breaks, xs, tail):
    log = []
    passes = len(xs) - 1
    assert _stub_run(*_stub_planner(log, {1: 10}, results, breaks), passes) == xs
    assert log == [("at_p", 1), ("estimate", 1, 1, None), ("reduced", 1, 1, 50), *tail]


def test_an_unscheduled_planner_runs_full_passes_only():
    log = []
    assert _stub_run(*_stub_planner(log, {}, scheduled=False), 2) == [1, 11, 21]
    assert log == [("at_p", 1), ("full", 1, 1), ("at_p", 11), ("full", 11, 11), ("at_p", 21)]
