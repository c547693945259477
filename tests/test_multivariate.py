import hashlib
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, fone, from_int, from_rational, fzero, mpf_mul,
                          mpf_mul_int, round_nearest)
from comparison_set import DenseSystem
from reference_lu import reference_lu_solve
from test_expr import _assert_threads_match_serial

from cotesroot import (
    Breakdown,
    VectorFunction,
    bigreal,
    demo_system,
    nd_iterate,
    nd_step,
    parse,
    solve_linear,
)
from cotesroot import multivariate
from cotesroot.bigreal import working_dps, working_prec
from cotesroot.expr import eval_jet
from cotesroot.multivariate import _LEVELS, _lu
from cotesroot.solver import (BREAKDOWN, CONVERGED, DIVERGED, MAX_ITERATIONS, MethodId,
                              Termination, _max_norm, apply_method)

KIND_LEVELS = [("newton", 0), ("trapezoidal", 1), ("simpson", 2)]


def scalar_as_vector(text, precision):
    """Embed a scalar expression as a 1-d vector function via its jets."""
    expr = parse(text)

    def residual(p):
        return [eval_jet(expr, bigreal(p[0], precision), precision).f.value]

    def jacobian(p):
        return [[eval_jet(expr, bigreal(p[0], precision), precision).d1.value]]

    return VectorFunction(1, residual, jacobian)


# ------------------------------------------------------------ linear solve

def test_solve_identity():
    x = solve_linear([[1, 0], [0, 1]], [3, 7], 40)
    assert [float(v) for v in x] == [3.0, 7.0]


def test_solve_diagonal():
    x = solve_linear([[2, 0], [0, 4]], [2, 8], 40)
    assert [float(v) for v in x] == [1.0, 2.0]
    # iterators are converted before a length is read
    assert solve_linear(iter([[2, 0], [0, 4]]), iter([2, 8]), 40) == x


@pytest.mark.parametrize("seed", range(6))
def test_solve_random_residual(seed):
    rng = random.Random(seed)
    d, precision = 5, 50
    a = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        a[i][i] += 4.0  # diagonally dominant, well conditioned
    b = [rng.uniform(-2, 2) for _ in range(d)]
    x = solve_linear(a, b, precision)
    with mp.workdps(2 * precision):
        residual = max(
            abs(mp.fsum(mp.mpf(a[i][j]) * x[j].value for j in range(d)) - mp.mpf(b[i]))
            for i in range(d)
        )
        bnorm = max(abs(mp.mpf(v)) for v in b)
        assert residual <= mp.mpf(10) ** -45 * max(bnorm, 1)


def test_solve_singular():
    with pytest.raises(Breakdown) as err:
        solve_linear([[1, 1], [1, 1]], [1, 2], 40)
    assert err.value.kind == Breakdown.SINGULAR_MATRIX == "singular_matrix"
    assert str(err.value) == "pivot below threshold in column 1"


def test_solve_nonfinite_solution_is_a_breakdown():
    # a NaN pivot passes the singularity test, since abs(nan) <= t is false
    with pytest.raises(Breakdown) as err:
        solve_linear([[1, 0], [0, mp.nan]], [1, 1], 30)
    assert err.value.kind == Breakdown.NONFINITE


@pytest.mark.parametrize("matrix", [[[1, 0], [0, mp.inf]], [[mp.inf, 0], [0, 1]]])
def test_solve_infinite_entry_is_a_nonfinite_breakdown(matrix):
    # the largest |entry| scales the pivot threshold: were it infinite, every
    # pivot would be "below" it and the matrix reported singular
    with pytest.raises(Breakdown) as err:
        solve_linear(matrix, [1, 1], 30)
    assert err.value.kind == Breakdown.NONFINITE


def test_solve_needs_pivoting():
    x = solve_linear([[0, 1], [1, 0]], [5, 9], 40)
    assert [float(v) for v in x] == [9.0, 5.0]


def test_solve_tests_each_pivot_against_its_own_row():
    """A pivot is tiny against the largest |entry| of its row, not of the
    matrix: rows 10^30 apart in scale are as regular as they are each, and
    a row that cancels to its rounding is still singular."""
    x = solve_linear([[10**30, 0], [0, 3]], [10**30, 6], 30)
    assert [float(v) for v in x] == [1.0, 2.0]
    with pytest.raises(Breakdown) as err:
        solve_linear([[10**30, 10**30], [1, 1 + mp.mpf(10) ** -45]], [1, 1], 30)
    assert str(err.value) == "pivot below threshold in column 1"


def _lu_case(rng, shape, prec):
    """A seeded d x d system (d from 1 to 6) of raw entries at ``prec`` bits."""
    d = rng.randint(1, 6)

    def entry():
        if shape == "ties":  # equal sizes in every pivot column
            return from_int(rng.choice((-2, -1, 1, 2)))
        if shape == "zero_factor" and rng.random() < 0.5:  # rows with factor 0
            return fzero
        # an infinity in a pivot row shows whether a row with factor 0 is skipped
        if shape in ("special", "zero_factor") and rng.random() < 0.15:
            return rng.choice((fnan, finf, fninf))
        return from_rational(rng.randint(-99, 99), rng.randint(1, 99), prec, round_nearest)

    a = [[entry() for _ in range(d)] for _ in range(d)]
    b = [entry() for _ in range(d)]
    if shape == "scaled":  # rows 10^-60..10^60 apart: regular to the pivot test of each row
        a = [[mpf_mul(v, scale, prec, round_nearest) for v in row]
             for row, scale in ((row, from_rational(10 ** rng.randint(0, 120), 10 ** 60, prec,
                                                    round_nearest)) for row in a)]
    if shape == "singular" and d > 1:  # one row a multiple of another: exactly singular
        i, j = rng.sample(range(d), 2)
        k = rng.choice((1, -1, 2, -2))
        a[i] = [mpf_mul_int(v, k, prec, round_nearest) for v in a[j]]
    return a, b


def _lu_outcome(solve):
    try:
        return "solved", solve()
    except Breakdown as exc:
        return exc.kind, str(exc)


@pytest.mark.parametrize("precision", [30, 60, 1000])
@pytest.mark.parametrize("shape", ["dense", "scaled", "singular", "special", "ties",
                                   "zero_factor"])
def test_raw_lu_matches_mpf_reference_bitwise(shape, precision):
    """The raw LU gives the bits, or the Breakdown kind and message, of the same
    LU on mpf operators under mp.workdps; the raw one runs outside it."""
    rng = random.Random(f"{shape}-{precision}")
    prec = working_prec(precision)
    kinds = set()
    for _ in range(40):
        a, b = _lu_case(rng, shape, prec)
        with mp.workdps(working_dps(precision)):
            expected = _lu_outcome(lambda: [v._mpf_ for v in reference_lu_solve(
                [[mp.make_mpf(v) for v in row] for row in a], [mp.make_mpf(v) for v in b],
                precision)])
        assert _lu_outcome(lambda: _lu(a, precision)(b)) == expected
        kinds.add(expected[0])
    assert kinds >= ({Breakdown.SINGULAR_MATRIX} if shape == "singular" else {"solved"})


def test_concurrent_linear_solves_are_bit_identical_to_serial():
    """solve_linear converts and solves at its own precision argument, so
    threads at different precisions do not change each other's results."""
    rng = random.Random(8)
    cases = []
    for precision in (60, 1000):
        for _ in range(2):
            a = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) + (20 if i == j else 0)
                  for j in range(8)] for i in range(8)]
            cases.append((a, [Fraction(rng.randint(-99, 99), 7) for _ in range(8)], precision))

    def evaluate(case):
        return [v.value._mpf_ for v in solve_linear(*case)]

    _assert_threads_match_serial(cases, evaluate, {60: 200, 1000: 20})


# sha256 of the outcomes of _linear_grid, recorded when the LU was one function
LINEAR_GRID_SHA256 = "a0fe78336d4e70d646c3880c000fc56887d4ea7e5e3333b8c5233e09c97a21c5"


def _linear_grid():
    """Seeded ``solve_linear`` cases, d = 1..8 at 15, 60 and 1000 digits: two
    systems each and, for d > 1, a third with one row a multiple of another.
    About a quarter of the entries are 0, (0, 0) always and (d - 1, 0) never,
    so for d > 1 column 0 swaps rows, and the row that held the zero has
    multiplier 0 there."""
    for d in range(1, 9):
        for precision in (15, 60, 1000):
            rng = random.Random(f"grid-{d}-{precision}")

            def nonzero():
                return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))

            for case in range(3 if d > 1 else 2):
                a = [[Fraction(0) if rng.random() < 0.25 else nonzero() for _ in range(d)]
                     for _ in range(d)]
                a[0][0], a[d - 1][0] = Fraction(0), nonzero()
                if case == 2:
                    i, j = rng.sample(range(d), 2)
                    a[i] = [rng.choice((-3, 2)) * v for v in a[j]]
                yield a, [Fraction(rng.randint(-99, 99), 7) for _ in range(d)], precision


def test_solve_linear_grid_keeps_its_bits():
    """Every LU bit, and every Breakdown kind and message, of the seeded grid
    equals its pin: the solves' results as raw mpf tuples."""
    digest = hashlib.sha256()
    kinds = set()
    for a, b, precision in _linear_grid():
        outcome = _lu_outcome(lambda: [v.value._mpf_ for v in solve_linear(a, b, precision)])
        kinds.add(outcome[0])
        digest.update(repr((precision, outcome)).encode() + b"\n")
    assert kinds == {"solved", Breakdown.SINGULAR_MATRIX}
    assert digest.hexdigest() == LINEAR_GRID_SHA256


# ------------------------------------------------------------ steps

@pytest.mark.parametrize("kind", ["newton", "trapezoidal", "simpson"])
def test_affine_system_one_step_exact(kind):
    precision = 50
    demo = demo_system("affine")
    got = nd_step(kind, demo.function, ["0", "0"], precision)
    with mp.workdps(precision + 10):
        for v, want in zip(got, demo.reference):
            assert abs(v.value - mp.mpf(want)) < mp.mpf(10) ** (8 - precision)


def test_d1_embedding_newton():
    f = scalar_as_vector("x^2-4", 50)
    got = nd_step("newton", f, [3], 50)[0]
    with mp.workdps(60):
        assert abs(got.value - mp.mpf(13) / 6) < mp.mpf(10) ** -45


def test_d1_embedding_trapezoidal():
    f = scalar_as_vector("x^2-4", 50)
    got = nd_step("trapezoidal", f, [3], 50)[0]
    with mp.workdps(60):
        assert abs(got.value - mp.mpf(63) / 31) < mp.mpf(10) ** -45


@pytest.mark.parametrize("kind,n", KIND_LEVELS)
@pytest.mark.parametrize("text,x0", [("x^2-4", "3"), ("x^2-2", "1.5"), ("tanh(x-1)", "1.5")])
def test_d1_embedding_matches_scalar(kind, n, text, x0):
    # the vector steps are levels of the scalar ladder: equal bit for bit
    precision = 50
    got = nd_step(kind, scalar_as_vector(text, precision), [x0], precision)[0]
    want = apply_method(MethodId(n), parse(text), bigreal(x0, precision), precision)
    assert got.value == want.value


@settings(deadline=None, max_examples=40)
@given(
    coeffs=st.tuples(*[st.integers(-9, 9)] * 4).filter(lambda c: c[0] != 0),
    start=st.integers(-300, 300),
    precision=st.sampled_from([30, 60]),
)
def test_d1_embedding_equals_scalar_map_on_cubics(coeffs, start, precision):
    text = "({})*x^3+({})*x^2+({})*x+({})".format(*coeffs)
    x0 = str(start / 100)
    embedded = scalar_as_vector(text, precision)
    for kind, n in KIND_LEVELS:
        try:
            want = apply_method(MethodId(n), parse(text), bigreal(x0, precision), precision)
        except Breakdown:
            assume(False)
        got = nd_step(kind, embedded, [x0], precision)[0]
        assert got.value == want.value


# ------------------------------------------------------------ iteration

def test_affine_iterate_converges_in_one_step():
    demo = demo_system("affine")
    traj = nd_iterate(demo.function, demo.x0, kind="newton", precision=50)
    assert traj.termination.kind == CONVERGED
    assert len(traj.iterates) == 2


def test_circle_line_newton_residual():
    demo = demo_system("circle-line")
    traj = nd_iterate(demo.function, demo.x0, kind="newton", precision=50,
                      step_tol=mp.mpf(10) ** -48, residual_tol=mp.mpf(10) ** -48)
    assert traj.termination.kind == CONVERGED
    assert float(traj.final.residual_norm) < 1e-40
    with mp.workdps(70):
        half_sqrt2 = mp.sqrt(2) / 2  # verified by substitution: x=y, 2x^2=1
        for v in traj.final.x:
            assert abs(v.value - half_sqrt2) < mp.mpf(10) ** -40


def test_circle_line_trapezoidal_order():
    precision = 200
    demo = demo_system("circle-line")
    traj = nd_iterate(demo.function, demo.x0, kind="trapezoidal", precision=precision,
                      step_tol=mp.mpf(10) ** -195, residual_tol=mp.mpf(10) ** -195,
                      max_iter=12)
    with mp.workdps(4 * precision):
        reference = mp.sqrt(2) / 2  # closed form at 4x precision
        errors = []
        for rec in traj.iterates:
            err = max(abs(rec.x[0].value - reference), abs(rec.x[1].value - reference))
            if err == 0 or err < mp.mpf(10) ** (15 - precision):
                break
            errors.append(err)
        ratios = [mp.log(errors[k + 1]) / mp.log(errors[k]) for k in range(1, len(errors) - 1)]
        assert float(ratios[-1]) >= 2.8


def test_rank_deficient_jacobian_breaks_down():
    f = VectorFunction(
        2,
        lambda p: [p[0] * p[0], p[1] * p[1]],
        lambda p: [[2 * p[0], 0], [0, 2 * p[1]]],
    )
    traj = nd_iterate(f, ["0", "0.5"], kind="newton", precision=40)
    assert traj.termination.kind == BREAKDOWN
    assert traj.termination.detail == "singular_matrix"


def test_concurrent_vector_solves_are_bit_identical_to_serial():
    """The callbacks compute on plain mpf at mpmath's global precision, which
    the wrapper sets around each under one lock, so threads at different
    precisions do not change each other's rounding."""
    rng = random.Random(25)

    def dense_system(d=8):
        a = [[rng.randint(-9, 9) + (40 if i == j else 0) for j in range(d)] for i in range(d)]
        b = [rng.randint(-99, 99) for _ in range(d)]

        def residual(p):
            return [sum(c * v for c, v in zip(row, p)) + p[i] ** 3 / 7 - b[i]
                    for i, row in enumerate(a)]

        def jacobian(p):
            return [[c + (3 * p[i] ** 2 / 7 if i == j else 0) for j, c in enumerate(row)]
                    for i, row in enumerate(a)]

        return VectorFunction(d, residual, jacobian)

    cases = [(kind, dense_system(), precision)
             for precision in (30, 60, 400, 1000) for kind in ("newton", "simpson")]

    def evaluate(case):
        kind, func, precision = case
        run = nd_iterate(func, ["0"] * 8, kind=kind, precision=precision)
        return run.termination, [[v.value._mpf_ for v in record.x] for record in run.iterates]

    _assert_threads_match_serial(cases, evaluate, {30: 3, 60: 3, 400: 1, 1000: 1})


# ------------------------------------------------------------ precision schedule

P = 1000  # a scheduled precision: at least solver._SCHEDULE_FROM
AT_P, ESTIMATE = working_dps(P), working_dps(multivariate._ESTIMATE)


def _cubic_system(seed, d):
    """The comparison set's dense system of dimension d, A x + x^3 = b with a
    root r of eighths: (F, r)."""
    system = DenseSystem(random.Random(seed), d)
    return system.function(), system.root


def _recording(func, log):
    """``func`` with its callbacks logging ("F" or "J", mpmath's dps) per call."""
    def residual(p):
        log.append(("F", mp.mp.dps))
        return func.residual(p)

    def jacobian(p):
        log.append(("J", mp.mp.dps))
        return func.jacobian(p)

    return VectorFunction(func.dimension, residual, jacobian)


def _unscheduled(monkeypatch, *args, **kwargs):
    """nd_iterate with the schedule off: every pass nd_step's, at p."""
    with monkeypatch.context() as patch:
        patch.setattr(multivariate, "_SCHEDULE_FROM", 10**9)
        return nd_iterate(*args, **kwargs)


def _assert_within_the_bound(run, reference, precision):
    """The same ending after as many iterates, and final iterates within
    10^-p·max(1, ||x||) of each other in the max norm."""
    assert run.termination == reference.termination
    assert len(run.iterates) == len(reference.iterates)
    with mp.workdps(precision + 30):
        x, y = ([v.value for v in r.final.x] for r in (reference, run))
        bound = mp.mpf(10) ** -precision * max(1, *map(abs, x))
        assert max(abs(a - b) for a, b in zip(x, y)) <= bound


@pytest.mark.parametrize("kind", ["newton", "trapezoidal", "simpson"])
def test_scheduled_dense_run_reduces_its_passes_then_ends_at_p(monkeypatch, kind):
    """From 600 digits the passes run at the precisions their iterates' digit
    estimates plan: the Jacobians of the reduced passes are taken below p,
    at rising precisions, and those of the last pass at p.  The residual is
    taken at p exactly once per iterate.  Only the estimate at x0 takes a
    Jacobian, at 30 digits: the one at a reduced pass's result reuses the
    pass's own LU factors.  The run ends as the unscheduled run does, within
    10^-p of its final iterate."""
    func, root = _cubic_system(11, 8)
    x0 = [str(float(r) + 0.1) for r in root]
    log = []
    run = nd_iterate(_recording(func, log), x0, kind=kind, precision=P)
    assert run.termination == Termination(CONVERGED, "residual")
    assert [dps for what, dps in log if what == "F"] == [AT_P] * len(run.iterates)
    jacobians = [dps for what, dps in log if what == "J"]
    assert jacobians[0] == ESTIMATE and jacobians.count(ESTIMATE) == 1
    passes = jacobians[1:]
    reduced = [dps for dps in passes if dps < AT_P]
    assert passes[:len(reduced)] == reduced == sorted(reduced)
    assert len(set(reduced)) >= 3 and passes[-1] == AT_P
    _assert_within_the_bound(run, _unscheduled(monkeypatch, func, x0, kind=kind, precision=P), P)


DOUBLE_ROOTS = {  # residual, Jacobian and a start 10^-120 off the double root
    "(1, 2)": (lambda p: [(p[0] - 1) ** 2, p[1] - 2], lambda p: [[2 * (p[0] - 1), 0], [0, 1]],
               (1, 1, 2, 0)),
    "(0, 0)": (lambda p: [p[0] ** 2 * (1 + p[1]), p[1] ** 2],
               lambda p: [[2 * p[0] * (1 + p[1]), p[0] ** 2], [0, 2 * p[1]]], (0, 1, 0, -0.3)),
}


@pytest.mark.parametrize("kind", ["newton", "trapezoidal", "simpson"])
@pytest.mark.parametrize("root", DOUBLE_ROOTS)
def test_a_double_root_keeps_the_unscheduled_run(monkeypatch, root, kind):
    """At a double root every kind gains linearly.  On [x^2 (1 + y), y^2],
    10^-120 off (0, 0), the first pass is planned above p/4, its result
    falls short of the plan (an estimate from the pass's own LU factors, no
    Jacobian), and it is redone at p.  On [(x - 1)^2, y - 2],
    10^-120 off (1, 2), x - 1 vanishes at the estimate's 30 digits, so its
    solve finds the Jacobian singular, and the first pass runs at p at once.
    Either way every later pass runs at p, and the run keeps the unscheduled
    run's bits and ending."""
    residual, jacobian, (x, dx, y, dy) = DOUBLE_ROOTS[root]
    func = VectorFunction(2, residual, jacobian)
    with mp.workdps(P + 20):
        x0 = [x + dx * mp.mpf(10) ** -120, y + dy * mp.mpf(10) ** -120]
    log = []
    run = nd_iterate(_recording(func, log), x0, kind=kind, precision=P, max_iter=6)
    assert run == _unscheduled(monkeypatch, func, x0, kind=kind, precision=P, max_iter=6)
    assert run.termination == Termination(MAX_ITERATIONS)
    jacobians = [dps for what, dps in log if what == "J"]
    if root == "(1, 2)":
        assert jacobians[0] == ESTIMATE and set(jacobians[1:]) == {AT_P}
        return
    # the estimate at x0, the reduced pass (a Jacobian per node of its whole
    # ladder, 1 + n(n+1)/2), then passes at p: the estimate at the reduced
    # pass's short result takes that pass's LU factors, with no Jacobian
    n = _LEVELS[kind]
    nodes = 1 + n * (n + 1) // 2
    reduced = jacobians[1:1 + nodes]
    assert len(set(reduced)) == 1 and AT_P < 4 * reduced[0] < 4 * AT_P
    assert jacobians[0] == ESTIMATE
    assert set(jacobians[1 + nodes:]) == {AT_P}


@pytest.mark.parametrize("kind", ["newton", "trapezoidal", "simpson"])
def test_a_badly_scaled_jacobian_keeps_its_schedule(monkeypatch, kind):
    """[10^30 (x - 1) + (x - 1)^3, (y - 2) + (y - 2)^3] from (1.5, 2.5): the
    Jacobian's rows are 10^30 apart, which no pivot test of a row against
    the other's scale would pass at the estimate's 30 digits or a reduced
    pass's few dozen.  Tested each against its own row, the passes before
    the last run below p at rising precisions, and the run ends as the
    unscheduled run does, within 10^-p."""
    def residual(p):
        return [mp.mpf(10) ** 30 * (p[0] - 1) + (p[0] - 1) ** 3, (p[1] - 2) + (p[1] - 2) ** 3]

    def jacobian(p):
        return [[mp.mpf(10) ** 30 + 3 * (p[0] - 1) ** 2, 0], [0, 1 + 3 * (p[1] - 2) ** 2]]

    func, x0, log = VectorFunction(2, residual, jacobian), ["1.5", "2.5"], []
    run = nd_iterate(_recording(func, log), x0, kind=kind, precision=P)
    assert run.termination == Termination(CONVERGED, "residual")
    jacobians = [dps for what, dps in log if what == "J"]
    assert jacobians[0] == ESTIMATE and jacobians.count(ESTIMATE) == 1
    reduced = [dps for dps in jacobians[1:] if dps < AT_P]
    assert jacobians[1:1 + len(reduced)] == reduced == sorted(reduced)
    assert len(set(reduced)) >= 3 and jacobians[-1] == AT_P
    _assert_within_the_bound(run, _unscheduled(monkeypatch, func, x0, kind=kind, precision=P), P)


def test_a_reduced_pass_that_breaks_down_is_redone_at_p(monkeypatch):
    """A Jacobian that breaks down at any precision but p and the estimate's
    30 digits: the first reduced pass breaks down and is redone at p, and so
    is every later pass, so the run keeps the unscheduled run's bits."""
    func, root = _cubic_system(12, 4)
    x0 = [str(float(r) - 0.2) for r in root]
    log = []

    def jacobian(p):
        if mp.mp.dps not in (ESTIMATE, AT_P):
            raise Breakdown(Breakdown.DOMAIN, "no Jacobian below p")
        return func.jacobian(p)

    run = nd_iterate(_recording(VectorFunction(4, func.residual, jacobian), log), x0,
                     precision=P)
    assert run == _unscheduled(monkeypatch, func, x0, precision=P)
    assert run.termination.kind == CONVERGED
    jacobians = [dps for what, dps in log if what == "J"]
    assert jacobians[0] == ESTIMATE and jacobians[1] < AT_P and set(jacobians[2:]) == {AT_P}


def test_ladders_at_p_stop_at_the_settled_level(monkeypatch):
    """From 10^-520 off the root every plan is at least p, so every pass runs
    at p, and its Simpson ladder stops at level 1, whose correction has
    settled in the max norm: two Jacobians per pass, against the four of the
    whole ladder, and the unscheduled run's ending within 10^-p."""
    func, root = _cubic_system(13, 4)
    with mp.workdps(P + 20):
        x0 = [mp.mpf(r.numerator) / r.denominator + mp.mpf(10) ** -520 for r in root]
    log, whole = [], []
    run = nd_iterate(_recording(func, log), x0, kind="simpson", precision=P)
    reference = _unscheduled(monkeypatch, _recording(func, whole), x0, kind="simpson",
                             precision=P)
    _assert_within_the_bound(run, reference, P)
    steps = len(run.iterates) - 1
    assert [dps for what, dps in log if what == "J" and dps != ESTIMATE] == [AT_P] * 2 * steps
    assert [dps for what, dps in whole if what == "J"] == [AT_P] * 4 * steps


@pytest.mark.parametrize("kind", ["newton", "trapezoidal", "simpson"])
def test_below_the_schedule_nd_iterate_is_a_chain_of_nd_steps(kind):
    """At 599 digits no pass is planned: every iterate is nd_step of the one
    before, bit for bit."""
    func, root = _cubic_system(14, 4)
    x0 = [str(float(r) + 0.3) for r in root]
    run = nd_iterate(func, x0, kind=kind, precision=599)
    assert run.termination.kind == CONVERGED
    x = [bigreal(v, 599) for v in x0]
    for record in run.iterates[1:]:
        x = nd_step(kind, func, x, 599)
        assert record.x == tuple(x)


def test_dimension_mismatch_rejected():
    f = VectorFunction(2, lambda p: [p[0]], lambda p: [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        nd_step("newton", f, ["1", "1"], 40)
    with pytest.raises(ValueError):
        nd_iterate(f, ["1"], precision=40)


@pytest.mark.parametrize("jacobian", [
    [[1, 0, 0], [0, 1, 0]],  # 2x3
    [[1, 0], [0, 1], [0, 0]],  # 3x2
    [[1, 0], [0]],  # a short row
], ids=["wide", "tall", "ragged"])
def test_non_square_jacobian_rejected(jacobian):
    f = VectorFunction(2, lambda p: [p[0] - 1, p[1] - 2], lambda p: jacobian)
    for run in (lambda: nd_step("newton", f, ["0", "0"], 40),
                lambda: nd_iterate(f, ["0", "0"], kind="trapezoidal", precision=40)):
        with pytest.raises(ValueError, match="^expected a 2x2 matrix$"):
            run()
    with pytest.raises(ValueError, match="^expected a 2x2 matrix$"):
        solve_linear(jacobian, [1, 2], 40)


def test_unknown_kind_rejected():
    demo = demo_system("affine")
    with pytest.raises(ValueError):
        nd_step("midpoint", demo.function, demo.x0, 40)
    with pytest.raises(ValueError):
        nd_iterate(demo.function, demo.x0, kind="midpoint", precision=40)


def test_nd_iterate_rejects_low_precision():
    # at 8 digits the default tolerance 10^(10-p) would stop at the start point
    demo = demo_system("circle-line")
    with pytest.raises(ValueError, match="digits"):
        nd_iterate(demo.function, demo.x0, precision=8)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_nd_iterate_rejects_empty_budget(max_iter):
    # the same budget rule as ScalarProblem: no run ends without a step
    demo = demo_system("circle-line")
    with pytest.raises(ValueError, match="max_iter"):
        nd_iterate(demo.function, demo.x0, precision=40, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
def test_nd_iterate_max_iter_must_be_an_int(max_iter):
    # as ScalarProblem's: 2.5 used to fail in range() and "3" in a comparison,
    # and True ran as 1
    demo = demo_system("circle-line")
    message = f"max_iter must be an integer, got {max_iter!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        nd_iterate(demo.function, demo.x0, precision=40, max_iter=max_iter)


@pytest.mark.parametrize("dimension", [True, False, 0, -1, 2.0, "2", None])
def test_vector_function_dimension_must_be_a_positive_int(dimension):
    # True used to run as d = 1, and -1 failed later as a vector of length -1
    demo = demo_system("circle-line").function
    message = f"dimension must be an integer of at least 1, got {dimension!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        VectorFunction(dimension, demo.residual, demo.jacobian)


@pytest.mark.parametrize("x0", ["12", b"12", {0.5, 1.0}, {3: "a", 4: "b"}, None, 3])
def test_a_string_is_no_start_point(x0):
    """A str was taken one character at a time: "12" solved from (1, 2).  A
    set ran in its iteration order and a dict as its keys; None or a number
    raised a bare TypeError, from a callback's result too."""
    demo = demo_system("circle-line").function
    name = type(x0).__name__
    with pytest.raises(ValueError, match=f"^x0 must be a sequence of numbers, not {name}$"):
        nd_iterate(demo, x0, precision=40)
    with pytest.raises(ValueError, match=f"^x must be a sequence of numbers, not {name}$"):
        nd_step("newton", demo, x0, 40)
    with pytest.raises(ValueError, match=f"^rhs must be a sequence of numbers, not {name}$"):
        solve_linear([[1, 0], [0, 1]], x0, 40)
    with pytest.raises(ValueError, match=f"^matrix must be a sequence of rows, not {name}$"):
        solve_linear(x0, [1, 2], 40)
    with pytest.raises(ValueError, match=f"^each row of matrix must be a sequence of numbers, "
                                         f"not {name}$"):
        solve_linear([[1, 0], x0], [1, 2], 40)
    with pytest.raises(ValueError, match=f"^the residual must be a sequence of numbers, "
                                         f"not {name}$"):
        nd_iterate(VectorFunction(2, lambda p: x0, demo.jacobian), ["1", "0.5"], precision=40)
    with pytest.raises(ValueError, match=f"^the Jacobian must be a sequence of rows, not {name}$"):
        nd_iterate(VectorFunction(2, demo.residual, lambda p: x0), ["1", "0.5"], precision=40)


@pytest.mark.parametrize("name", ["step_tol", "residual_tol", "divergence_bound"])
def test_nd_iterate_rejects_nan_stop_rule(name):
    demo = demo_system("circle-line")
    with pytest.raises(ValueError, match=name):
        nd_iterate(demo.function, demo.x0, precision=40, **{name: "nan"})


@pytest.mark.parametrize("x0", [["nan", "0.5"], ["0.5", "nan"], ["inf", "0.5"], ["0.5", "-inf"]])
def test_nd_iterate_rejects_nonfinite_start(x0):
    demo = demo_system("circle-line")
    with pytest.raises(ValueError, match="x0"):
        nd_iterate(demo.function, x0, precision=40)


def test_max_norm_propagates_nan():
    assert _max_norm([fone, fnan], 53) == fnan
    assert _max_norm([fnan, fone], 53) == fnan
    assert _max_norm([fone, fninf], 53) == finf
    assert _max_norm([from_int(-3), from_int(2)], 53) == from_int(3)


def _identity_jacobian(p):
    return [[1, 0], [0, 1]]


@pytest.mark.parametrize("bad", [mp.inf, mp.nan])
def test_nd_iterate_nonfinite_start_residual(bad):
    # the bad component comes second, where max() alone would hide a NaN
    f = VectorFunction(2, lambda p: [p[0] - 1, bad], _identity_jacobian)
    traj = nd_iterate(f, ["0", "0.5"], precision=30, max_iter=5)
    assert (traj.termination.kind, traj.termination.detail) == (BREAKDOWN, Breakdown.NONFINITE)
    assert len(traj.iterates) == 1


def test_nd_iterate_residual_becomes_infinite():
    # affine system with root (1, 2), reached by one Newton step from (0, 0);
    # the residual is infinite once x >= 0.5
    def residual(p):
        if p[0] >= mp.mpf("0.5"):
            return [mp.inf, mp.mpf(0)]
        return [3 * p[0] + p[1] - 5, p[0] + 2 * p[1] - 5]

    f = VectorFunction(2, residual, lambda p: [[3, 1], [1, 2]])
    traj = nd_iterate(f, ["0", "0"], precision=30, max_iter=5)
    assert (traj.termination.kind, traj.termination.detail) == (BREAKDOWN, Breakdown.NONFINITE)
    assert len(traj.iterates) == 2
    assert [float(v) for v in traj.final.x] == [1.0, 2.0]
    assert traj.final.residual_norm.value == mp.inf


def test_nd_iterate_nan_iterate_is_kept_without_a_residual():
    calls = []

    def residual(p):
        calls.append(list(p))
        return [p[0] - 1, p[1] - 1]

    f = VectorFunction(2, residual, lambda p: [[1, 0], [0, mp.nan]])
    traj = nd_iterate(f, ["0", "0.5"], precision=30, max_iter=5)
    assert (traj.termination.kind, traj.termination.detail) == (BREAKDOWN, Breakdown.NONFINITE)
    assert len(traj.iterates) == 2
    assert mp.isnan(traj.final.x[1].value)
    assert traj.final.residual_norm is None
    assert all(mp.isfinite(v) for point in calls for v in point)  # never at the NaN iterate


def test_nd_iterate_evaluates_each_residual_once():
    # circle-line Newton at 60 digits records 8 iterates; each step reuses the
    # residual the loop took at its start point
    demo = demo_system("circle-line")
    calls = []

    def residual(p):
        calls.append(list(p))
        return demo.function.residual(p)

    f = VectorFunction(2, residual, demo.function.jacobian)
    traj = nd_iterate(f, demo.x0, kind="newton", precision=60)
    assert traj.termination == Termination(CONVERGED, "residual")
    assert len(traj.iterates) == len(calls) == 8
    # the same bits as a chain of single steps, each taking its own residual
    x = [bigreal(v, 60) for v in demo.x0]
    for rec in traj.iterates[1:]:
        x = nd_step("newton", demo.function, x, 60)
        assert rec.x == tuple(x)
    assert [v.decimal() for v in traj.final.x] == [
        "0.70710678118654752440084436210484903928483593768847403658834"] * 2


def test_nd_iterate_diverged_iterate_has_no_residual():
    # t0 on tanh(x-1) from -5 goes to 4.1e4 and then to -8.7e35335, outside
    # the default bound 6e6
    traj = nd_iterate(scalar_as_vector("tanh(x-1)", 30), ["-5"], precision=30)
    assert traj.termination == Termination(DIVERGED)
    assert len(traj.iterates) == 3
    assert traj.final.residual_norm is None


def test_nd_iterate_ladder_node_outside_bound_diverges():
    # the scalar run of test_iterate_ladder_node_outside_bound_diverges as a
    # d = 1 system: the vector ladder applies the same bound to its nodes
    bound = mp.mpf(10) ** 6 * (1 + mp.mpf("2.477085"))
    f = scalar_as_vector("tanh(x-1)", 30)

    def jacobian(p):
        assert mp.make_mpf(_max_norm([v._mpf_ for v in p], working_prec(30))) <= bound, \
            "Jacobian taken outside the divergence bound"
        return f.jacobian(p)

    traj = nd_iterate(VectorFunction(1, f.residual, jacobian), ["2.477085"],
                      kind="trapezoidal", precision=30, max_iter=5)
    assert traj.termination == Termination(
        DIVERGED, None, "a ladder node left the divergence bound", 1)
    assert len(traj.iterates) == 3


def test_nd_iterate_base_point_jacobian_breakdown_is_level_0():
    # as for a scalar jet at the base point, a Jacobian that breaks down at
    # x itself is ladder level 0
    def jacobian(p):
        raise Breakdown(Breakdown.DOMAIN, "no Jacobian here")

    f = VectorFunction(2, lambda p: [p[0] - 1, p[1] - 1], jacobian)
    traj = nd_iterate(f, ["0", "0.5"], precision=30)
    assert traj.termination == Termination(BREAKDOWN, Breakdown.DOMAIN, "no Jacobian here", 0)
    assert len(traj.iterates) == 1


def test_nd_iterate_infinite_jacobian_entry_is_a_nonfinite_breakdown():
    f = VectorFunction(2, lambda p: [p[0] - 1, p[1] - 1], lambda p: [[1, 0], [0, mp.inf]])
    traj = nd_iterate(f, ["0", "0.5"], precision=30, max_iter=5)
    assert traj.termination == Termination(
        BREAKDOWN, Breakdown.NONFINITE, "a value became NaN or infinite", 0)
    assert len(traj.iterates) == 1


def test_nd_step_nonfinite_result_is_a_breakdown():
    f = VectorFunction(2, lambda p: [p[0] - 1, p[1] - 1], lambda p: [[1, 0], [0, mp.nan]])
    with pytest.raises(Breakdown) as err:
        nd_step("newton", f, ["0", "0.5"], 30)
    assert err.value.kind == Breakdown.NONFINITE


def test_nd_step_node_outside_the_default_bound_is_diverged():
    # a tiny Jacobian that does not fit the residual x + 1: the Newton value
    # from 0 is -10^10, and the trapezoid's node with it, outside 10^6 (1 + |x|)
    points = []

    def jacobian(p):
        points.append(p[0])
        return [[mp.mpf(10) ** -10]]

    f = VectorFunction(1, lambda p: [p[0] + 1], jacobian)
    with pytest.raises(Breakdown) as err:
        nd_step("trapezoidal", f, ["0"], 30)
    assert (err.value.kind, str(err.value), err.value.level) == (
        Breakdown.DIVERGED, "a ladder node left the divergence bound", 1)
    assert points == [0]  # no Jacobian is taken at the node


@pytest.mark.parametrize("x", [["nan", "0"], ["0", "inf"]])
def test_nd_step_rejects_nonfinite_x(x):
    f = demo_system("circle-line").function
    with pytest.raises(ValueError, match="x must be finite"):
        nd_step("newton", f, x, 30)


def test_unknown_demo_system():
    with pytest.raises(ValueError):
        demo_system("spiral")
