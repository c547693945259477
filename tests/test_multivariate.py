import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, fone, from_int, from_rational, fzero, mpf_mul_int,
                          round_nearest)
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
from cotesroot.bigreal import working_dps, working_prec
from cotesroot.expr import eval_jet
from cotesroot.multivariate import _lu_solve
from cotesroot.solver import (BREAKDOWN, CONVERGED, DIVERGED, MethodId, Termination, _max_norm,
                              apply_method)

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
@pytest.mark.parametrize("shape", ["dense", "singular", "special", "ties", "zero_factor"])
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
        assert _lu_outcome(lambda: _lu_solve(a, b, precision)) == expected
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


def test_dimension_mismatch_rejected():
    f = VectorFunction(2, lambda p: [p[0]], lambda p: [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        nd_step("newton", f, ["1", "1"], 40)
    with pytest.raises(ValueError):
        nd_iterate(f, ["1"], precision=40)


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


@pytest.mark.parametrize("x", [["nan", "0"], ["0", "inf"]])
def test_nd_step_rejects_nonfinite_x(x):
    f = demo_system("circle-line").function
    with pytest.raises(ValueError, match="x must be finite"):
        nd_step("newton", f, x, 30)


def test_unknown_demo_system():
    with pytest.raises(ValueError):
        demo_system("spiral")
