import random

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cotesroot import (
    Breakdown,
    SingularMatrix,
    VectorFunction,
    bigreal,
    demo_system,
    nd_iterate,
    nd_step,
    parse,
    solve_linear,
)
from cotesroot.expr import eval_jet
from cotesroot.multivariate import _max_norm
from cotesroot.solver import BREAKDOWN, CONVERGED, NONFINITE, MethodId, apply_method

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
    with pytest.raises(SingularMatrix) as err:
        solve_linear([[1, 1], [1, 1]], [1, 2], 40)
    assert isinstance(err.value, Breakdown)
    assert err.value.kind == "singular_matrix"


def test_solve_needs_pivoting():
    x = solve_linear([[0, 1], [1, 0]], [5, 9], 40)
    assert [float(v) for v in x] == [9.0, 5.0]


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


@pytest.mark.parametrize("x0", [["nan", "0.5"], ["0.5", "nan"], ["inf", "0.5"], ["0.5", "-inf"]])
def test_nd_iterate_rejects_nonfinite_start(x0):
    demo = demo_system("circle-line")
    with pytest.raises(ValueError, match="x0"):
        nd_iterate(demo.function, x0, precision=40)


def test_max_norm_propagates_nan():
    assert mp.isnan(_max_norm([mp.mpf(1), mp.nan]))
    assert mp.isnan(_max_norm([mp.nan, mp.mpf(1)]))
    assert _max_norm([mp.mpf(1), mp.ninf]) == mp.inf
    assert _max_norm([mp.mpf(-3), mp.mpf(2)]) == 3


def _identity_jacobian(p):
    return [[1, 0], [0, 1]]


@pytest.mark.parametrize("bad", [mp.inf, mp.nan])
def test_nd_iterate_nonfinite_start_residual(bad):
    # the bad component comes second, where max() alone would hide a NaN
    f = VectorFunction(2, lambda p: [p[0] - 1, bad], _identity_jacobian)
    traj = nd_iterate(f, ["0", "0.5"], precision=30, max_iter=5)
    assert (traj.termination.kind, traj.termination.detail) == (BREAKDOWN, NONFINITE)
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
    assert (traj.termination.kind, traj.termination.detail) == (BREAKDOWN, NONFINITE)
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
    assert (traj.termination.kind, traj.termination.detail) == (BREAKDOWN, NONFINITE)
    assert len(traj.iterates) == 2
    assert mp.isnan(traj.final.x[1].value)
    assert traj.final.residual_norm is None
    assert all(mp.isfinite(v) for point in calls for v in point)  # never at the NaN iterate


def test_unknown_demo_system():
    with pytest.raises(ValueError):
        demo_system("spiral")
