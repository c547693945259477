"""iterate's precision schedule against fixed-precision reference trajectories.

Below 600 digits and for "+F" maps every pass runs at the full precision, so
there iterate equals a chain of apply_method calls bit for bit.  Above it the
early passes run at a reduced precision; the trajectory must still stop the
same way after the same number of iterations, and each iterate must agree
with the reference to 10 digits more than it has correct.
"""

import mpmath as mp
import pytest

from conftest import certified_root, cubic

from cotesroot import (Breakdown, MethodId, ScalarProblem, bigreal, estimate_order, iterate, parse,
                       solver)
from cotesroot.bigreal import working_prec
from cotesroot.expr import eval_value
from cotesroot.solver import BREAKDOWN, CONVERGED, DIVERGED, Termination, apply_method

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


@pytest.mark.parametrize("spec,iterates,last_reduced", [
    ("t0", [2, 1], (("d1",), solver._ESTIMATE_PREC, 1)),  # the estimate's f' at 1 is zero
    ("t0_0", [2], (1, LOW, 1)),  # its outer base slope at 1 is zero
])
def test_reduced_pass_falls_back_to_a_full_pass(monkeypatch, spec, iterates, last_reduced):
    """Newton on x^3-3x+7 goes from 2 exactly to 1, where f' = 3x^2-3
    vanishes.  t0's reduced pass lands there, and its digit estimate's f' is zero;
    t0_0's reduced pass breaks down at its outer ladder's base point there.
    Either pass is redone at the full precision from 2, and the run breaks
    down where that pass, or the next one, meets the zero slope."""
    calls = _recorded_evaluations(monkeypatch)
    problem = ScalarProblem(parse("x^3-3*x+7"), bigreal(2, 600), precision=600)
    traj = iterate(problem, MethodId.parse(spec))
    assert [rec.x.value for rec in traj.iterates] == iterates
    assert traj.termination == Termination(BREAKDOWN, Breakdown.ZERO_DERIVATIVE,
                                           "f' vanished at the base point", 0)
    assert calls == [(0, FULL, 2), (("d1",), solver._ESTIMATE_PREC, 2), (1, LOW, 2),
                     last_reduced, (1, FULL, 2), (1, FULL, 1)]


def test_reduced_pass_leaving_the_bound_falls_back_to_a_full_pass(monkeypatch):
    """t1 on tanh(x-1) from 2.477085 reaches 3.1e6, inside the bound 3.5e6,
    but the Newton value there, and so the trapezoid node, is far outside.
    The reduced pass from there leaves the bound after its base jet, and the
    pass is redone at the full precision, which leaves it too: the run ends
    diverged, as it does at 30 digits, where no pass is reduced."""
    calls = _recorded_evaluations(monkeypatch)
    problem = ScalarProblem(parse("tanh(x-1)"), bigreal("2.477085", 600), precision=600,
                            max_iter=5)
    traj = iterate(problem, MethodId(1))
    assert traj.termination == Termination(DIVERGED, None,
                                           "a ladder node left the divergence bound", 1)
    assert len(traj.iterates) == 3
    last = traj.final.x.value
    assert calls[-2:] == [(1, LOW, last), (1, FULL, last)]
    assert all(abs(x) <= problem.divergence_bound.value for _, _, x in calls)
