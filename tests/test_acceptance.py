"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Table-reproduction criteria (2-6) run the maps with the "newton" Simpson
seeding, the wiring that generated the published reference values; the
order-law criteria (7, 10) run the default recursive wiring, and criterion 11
checks the order theorem under both.  See the solver module notes for the
distinction.
"""

import time

import mpmath as mp

from conftest import certified_root, cubic

from cotesroot import (
    MethodId,
    ScalarProblem,
    bigreal,
    builtin_rule,
    check_moments,
    demo_system,
    derive_rule,
    estimate_order,
    iterate,
    map_derivatives_at,
    nd_iterate,
    nd_step,
    parse,
    solve_linear,
)
from cotesroot.expr import eval_jet, eval_value
from cotesroot.multivariate import VectorFunction
from cotesroot.solver import (
    CONVERGED,
    DIVERGED,
    SEED_NEWTON,
    SEED_TRAPEZOID,
    apply_method,
)
from cotesroot.tables import run_table


def finish(num, label, checks, elapsed=None, budget=None):
    failures = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s over the {budget}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[acceptance] criterion {num} ({label}): {status}{timing}", flush=True)
    assert not failures, "; ".join(failures)


def test_criterion_1_weights_exactness():
    start = time.perf_counter()
    checks = []
    for n in range(8):
        built = builtin_rule(n)
        derived = derive_rule(n)
        checks.append((f"derive n={n}", derived == built, f"{derived} != {built}"))
        moments = check_moments(built)
        checks.append((f"moments n={n}", all(moments), str(moments)))
        # symmetric weights make the mirrored identities the same sums
        checks.append((f"symmetry n={n}", built.weights == built.weights[::-1],
                       str(built.weights)))
    finish(1, "exact weights and moment identities", checks,
           time.perf_counter() - start, budget=1.0)


def test_criterion_2_single_application_row():
    start = time.perf_counter()
    report = run_table("tab1nn")
    checks = [
        (f"{row.method} s={row.computed}", row.diff <= 0.15,
         f"reference {row.reference}, diff {row.diff}")
        for row in report.rows
    ]
    finish(2, "one application of t0..t7 on tanh(x-1) from 1.1", checks,
           time.perf_counter() - start, budget=5.0)


def test_criterion_3_composed_rows():
    start = time.perf_counter()
    checks = []
    for table_id in ("tab1nnA", "tab1nnB"):
        for row in run_table(table_id).rows:
            checks.append(
                (f"{table_id}/{row.method} s={row.computed}", row.diff <= 0.3,
                 f"reference {row.reference}, diff {row.diff}")
            )
    finish(3, "composed maps at 200 digits", checks,
           time.perf_counter() - start, budget=30.0)


def test_criterion_4_multiple_root_rows():
    start = time.perf_counter()
    checks = []
    for table_id, tol in (("tabnova1", 0.05), ("tabnova2", 0.2)):
        for row in run_table(table_id).rows:
            checks.append(
                (f"{table_id}/{row.method} s={row.computed}", row.diff <= tol,
                 f"reference {row.reference}, diff {row.diff}")
            )
    finish(4, "sin(x)-x raw and transformed rows", checks,
           time.perf_counter() - start, budget=10.0)


def test_criterion_5_polynomial_composed_run():
    start = time.perf_counter()
    digits = 2600
    # independent root oracle: a certified root of the plain polynomial callable
    root = certified_root(lambda x: x**11 + 4 * x * x - 10, 1, 2, digits + 100)
    f = parse("x^11+4*x^2-10")
    method = MethodId(7, inner=6, simpson_seed=SEED_NEWTON)
    problem = ScalarProblem(
        f, bigreal(2, digits), precision=digits, max_iter=4,
        known_root=bigreal(root, digits + 100),
    )
    traj = iterate(problem, method)
    checks = [("4 outer iterations", len(traj.iterates) == 5, f"{len(traj.iterates)} records")]

    s3 = float(traj.iterates[3].s)
    checks.append(("s after 3 iterations", abs(s3 - 2410.6) <= 2.0, f"s={s3:.2f}"))

    published = ("-0.799781", "-0.0491500", "-2.50444e-44", "-2.75873e-2411")
    steps = traj.steps()
    checks.append(("four steps recorded", len(steps) == 4, f"{len(steps)}"))
    with mp.workdps(digits + 20):
        for k, (got, want) in enumerate(zip(steps, published)):
            target = mp.mpf(want)
            rel = abs(got.value - target) / abs(target)
            checks.append(
                (f"step e_{k} to 5 significant figures", rel < mp.mpf("1e-5"),
                 f"got {mp.nstr(got.value, 8)}, want {want}")
            )

    # full published grid for the same polynomial
    for row in run_table("tabpol1").rows:
        tol = 2.0 if row.method == "t7_6" else 0.15
        checks.append(
            (f"tabpol1/{row.method} s={row.computed}", row.diff <= tol,
             f"reference {row.reference}, diff {row.diff}")
        )
    finish(5, "three iterations of t7_6 on x^11+4x^2-10", checks,
           time.perf_counter() - start, budget=300.0)


def test_criterion_6_derivative_probe():
    start = time.perf_counter()
    f = parse("tanh(x-1)")
    z = bigreal(1, 250)
    checks = []

    derivs = map_derivatives_at(MethodId(0), f, z, 5, 250)
    for got, want in zip(derivs, (0.0, 0.0, -4.0, 0.0, -16.0)):
        if want == 0.0:
            checks.append(("t0 zero derivative", abs(float(got)) < 1e-3, f"{float(got):.2e}"))
        else:
            rel = abs(float(got) - want) / abs(want)
            checks.append((f"t0 derivative {want}", rel < 0.01, f"got {float(got):.6f}"))

    d3 = float(map_derivatives_at(MethodId(1), f, z, 3, 250)[2])
    checks.append(("t1 third derivative -1", abs(d3 + 1.0) < 0.01, f"got {d3:.6f}"))

    d5 = float(map_derivatives_at(MethodId(2, simpson_seed=SEED_NEWTON), f, z, 5, 250)[4])
    checks.append(("t2 fifth derivative 82/3", abs(d5 - 82 / 3) / (82 / 3) < 0.01,
                   f"got {d5:.6f}"))
    finish(6, "fixed-point derivative probe on tanh", checks,
           time.perf_counter() - start, budget=120.0)


ORDER_PRECISION = {0: 800, 1: 800, 2: 800, 3: 1000, 4: 1500, 5: 2600}


def test_criterion_7_order_ladder(cubic_root_10000):
    start = time.perf_counter()
    f = parse("x^3+2*x-5")
    checks = []
    for n, precision in ORDER_PRECISION.items():
        problem = ScalarProblem(f, bigreal("1.5", precision), precision=precision,
                                max_iter=14)
        traj = iterate(problem, MethodId(n))
        est = estimate_order(traj, bigreal(cubic_root_10000, 4 * precision))
        q = float(est.q)
        checks.append((f"t{n} order >= {n + 1.8}", q >= n + 1.8, f"q={q:.3f}"))
        checks.append((f"t{n} order sane", q < n + 4, f"q={q:.3f}"))
    finish(7, "measured orders reach n+2 on a generic simple root", checks,
           time.perf_counter() - start)


def test_criterion_8_negative_and_edge_suite():
    start = time.perf_counter()
    checks = []
    for x0 in (-5, 3):
        problem = ScalarProblem(parse("tanh(x-1)"), bigreal(x0, 30), precision=30)
        traj = iterate(problem, MethodId(0))
        checks.append((f"tanh Newton from {x0} diverges",
                       traj.termination.kind == DIVERGED, traj.termination.kind))

    problem = ScalarProblem(parse("cbrt(x)"), bigreal("0.5", 40), precision=40)
    traj = iterate(problem, MethodId(0))
    checks.append(("raw cbrt diverges (repelling fixed point)",
                   traj.termination.kind == DIVERGED, traj.termination.kind))

    f = parse("cbrt(x)")
    with mp.workdps(70):
        for x0 in ("0.5", "-3"):
            one = apply_method(MethodId(0, transform=True), f, bigreal(x0, 50), 50)
            exact = abs(one.value) < mp.mpf(10) ** -50 * abs(mp.mpf(x0))
            checks.append((f"transformed cbrt one step from {x0} hits zero",
                           exact, one.decimal(5)))
    problem = ScalarProblem(f, bigreal("0.5", 50), precision=50)
    traj = iterate(problem, MethodId(0, transform=True))
    checks.append(("transformed cbrt trajectory converges",
                   traj.termination.kind == CONVERGED and len(traj.iterates) <= 4,
                   f"{traj.termination.kind} after {len(traj.iterates) - 1} steps"))
    finish(8, "divergence traps and the multiple-root transform", checks,
           time.perf_counter() - start)


def test_criterion_9_multivariate_consistency():
    start = time.perf_counter()
    precision = 50
    checks = []

    corpus = [("x^2-4", "3"), ("x^2-2", "1.5"), ("tanh(x-1)", "1.5")]
    for (text, x0) in corpus:
        expr = parse(text)

        def residual(p, expr=expr):
            return [eval_value(expr, bigreal(p[0], precision), precision).value]

        def jacobian(p, expr=expr):
            return [[eval_jet(expr, bigreal(p[0], precision), precision).d1.value]]

        embedded = VectorFunction(1, residual, jacobian)
        for kind, n in (("newton", 0), ("trapezoidal", 1), ("simpson", 2)):
            got = nd_step(kind, embedded, [x0], precision)[0]
            want = apply_method(MethodId(n), expr, bigreal(x0, precision), precision)
            with mp.workdps(precision + 10):
                close = abs(got.value - want.value) <= \
                    mp.mpf(10) ** (5 - precision) * max(1, abs(want.value))
            checks.append((f"d=1 {kind} matches t{n} on {text}", close,
                           f"{got.decimal(20)} vs {want.decimal(20)}"))

    demo = demo_system("affine")
    for kind in ("newton", "trapezoidal", "simpson"):
        got = nd_step(kind, demo.function, demo.x0, precision)
        with mp.workdps(precision + 10):
            residual_norm = max(
                abs(v) for v in demo.function.residual([g.value for g in got])
            )
            ok = residual_norm <= mp.mpf(10) ** (8 - precision)
        checks.append((f"affine exact in one {kind} step", ok, mp.nstr(residual_norm, 5)))
    traj = nd_iterate(demo.function, demo.x0, kind="newton", precision=precision)
    checks.append(("affine converges after 1 iteration",
                   traj.termination.kind == CONVERGED and len(traj.iterates) == 2,
                   f"{len(traj.iterates) - 1} iterations"))

    circle = demo_system("circle-line")
    traj = nd_iterate(circle.function, circle.x0, kind="newton", precision=precision,
                      step_tol=mp.mpf(10) ** -48, residual_tol=mp.mpf(10) ** -48)
    ok = traj.termination.kind == CONVERGED and float(traj.final.residual_norm) < 1e-40
    checks.append(("circle-line residual below 1e-40 at 50 digits", ok,
                   f"|F| = {float(traj.final.residual_norm):.2e}"))

    x = solve_linear([[2, 0], [0, 4]], [2, 8], precision)
    checks.append(("diagonal solve", [float(v) for v in x] == [1.0, 2.0], str(x)))
    finish(9, "d=1 embeddings, affine exactness, circle-line", checks,
           time.perf_counter() - start)


def test_criterion_10_simpson_seeding_matters(cubic_root_10000):
    start = time.perf_counter()
    precision = 800
    f = parse("x^3+2*x-5")
    reference = bigreal(cubic_root_10000, 4 * precision)
    results = {}
    for label, method in (
        ("recursive", MethodId(2)),
        ("newton-seeded", MethodId(2, simpson_seed=SEED_NEWTON)),
    ):
        problem = ScalarProblem(f, bigreal("1.5", precision), precision=precision,
                                max_iter=14)
        est = estimate_order(iterate(problem, method), reference)
        results[label] = float(est.q)
    checks = [
        ("recursive three-node map reaches fourth order",
         results["recursive"] >= 3.8, f"q={results['recursive']:.3f}"),
        ("newton-seeded variant drops to third order",
         results["newton-seeded"] < 3.5, f"q={results['newton-seeded']:.3f}"),
        ("newton-seeded variant is still superlinear",
         results["newton-seeded"] > 2.5, f"q={results['newton-seeded']:.3f}"),
    ]
    finish(10, "step seeding decides the three-node order", checks,
           time.perf_counter() - start)


THEOREM_PRECISION = 60


def _theorem_order(m):
    """The order the theorem gives: n+2 per level, n+1 for Newton-seeded n >= 2."""
    def level(n):
        return n + 1 if m.simpson_seed == SEED_NEWTON and n >= 2 else n + 2
    return level(m.outer) * (1 if m.inner is None else level(m.inner))


def _theorem_checks(text, z, m):
    """Derivatives 1..q-1 of the map vanish at the root z and derivative q does not."""
    p = THEOREM_PRECISION
    q = _theorem_order(m)
    derivs = map_derivatives_at(m, parse(text), bigreal(z, p), q, p)
    label = f"{m} ({m.simpson_seed}) on {text}"
    with mp.workdps(p + 10):
        vanishing = [abs(d.value) / mp.factorial(k) for k, d in enumerate(derivs[:-1], 1)]
        worst = max(vanishing, default=mp.mpf(0))
        leading = abs(derivs[-1].value) / mp.factorial(q)
        return [
            (f"{label}: d_1..d_{q - 1} vanish", worst < mp.mpf(10) ** (10 - p),
             f"max |d_k|/k! = {mp.nstr(worst, 3)}"),
            (f"{label}: d_{q} does not", leading > mp.mpf("1e-6"),
             f"|d_{q}|/{q}! = {mp.nstr(leading, 3)}"),
        ]


def test_criterion_11_order_theorem():
    start = time.perf_counter()
    with mp.workdps(THEOREM_PRECISION + 20):
        simple = {
            "x^3+2*x-5": mp.findroot(cubic, 1.5),
            "x*exp(x)-1": mp.lambertw(1).real,
            "exp(x)-2": mp.log(2),
        }
        double = {"(x^2-2)^2": mp.sqrt(2)}
    checks = []
    for seed in (SEED_TRAPEZOID, SEED_NEWTON):
        for n in range(8):
            for text, z in simple.items():
                checks += _theorem_checks(text, z, MethodId(n, simpson_seed=seed))
            for text, z in double.items():
                checks += _theorem_checks(text, z, MethodId(n, transform=True,
                                                             simpson_seed=seed))
    for outer, inner in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 2)):
        checks += _theorem_checks("x^3+2*x-5", simple["x^3+2*x-5"],
                                  MethodId(outer, inner=inner))
    finish(11, "derivatives 1..q-1 of every map vanish at the root, derivative q not",
           checks, time.perf_counter() - start, budget=15.0)
