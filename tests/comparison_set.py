"""The comparison set: 1260 seeded scalar ``iterate`` runs and 36 vector
``nd_iterate`` runs, one JSON line each, each set followed by its digest.

Run from the repository root:

    PYTHONPATH=src python tests/comparison_set.py

The scalar set crosses 15 functions (the ten benchmark families, abs(x), log(x),
sqrt(x), cbrt(x) and 1/x-2) with ten maps (t0..t7, t2_1, t7_6), each plain
and with "+F", and draws four runs for every pair from its own seeded
generator: the Simpson seeding, a start (an integer in -2..3 or a six-place
decimal in [-3, 3]), 30 or 60 digits, and whether the run knows its root.
A 1000-digit slice follows, where ``iterate``'s precision schedule runs
reduced passes: the 15 functions with the plain maps t0, t4, t7 and t7_6,
one run each, drawn the same way.
Every run has ``max_iter=12`` and the default stop rules.  Each line holds a
run's inputs and, per iterate, x, f(x), the step and s, the numbers as exact
binary values (mantissa in hex, binary exponent), then the termination.  The
line after the scalar runs is the sha256 of all of them, so two versions of
cotesroot that print the same digest gave every run the same bits and the
same ending.  pytest does not collect this file; the known roots come from
``conftest.certified_root``, which does not use cotesroot.

The vector set follows, with its own digest on the last line: the ``affine``
and ``circle-line`` demo systems and four seeded dense systems
(``DenseSystem``), each with the three step kinds at 60 and 1000 digits, one
run each from a start drawn from its own seeded generator, with
``max_iter=12`` and the default stop rules.  Its lines hold, per iterate,
the point's coordinates and the residual's max norm.

To check a change that alters bits, save the output of each version and
compare them:

    PYTHONPATH=src python tests/comparison_set.py --compare OLD NEW

This prints every run that moved: its termination and iterate count on each
side, and how far its final iterates differ against the bound
10^(-p)·max(1, |x|), x the old final iterate and |x| its max norm for a
vector run.  It exits 1 when a run's termination or iterate count changed,
or its final iterates differ by more than the bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

import mpmath as mp

from conftest import certified_root
from cotesroot import (CotesrootError, MethodId, ScalarProblem, VectorFunction, bigreal,
                       demo_system, iterate, nd_iterate, parse)

# function text -> its root in closed form, or f in mpmath and a bracket of the root
FUNCTIONS = {
    "x^3+2*x-5": (lambda x: x**3 + 2 * x - 5, 1, 2),
    "x^11+4*x^2-10": (lambda x: x**11 + 4 * x**2 - 10, 1, 2),
    "tanh(x-1)": lambda: mp.mpf(1),
    "cos(x)-x": (lambda x: mp.cos(x) - x, 0, 1),
    "x*exp(x)-1": (lambda x: x * mp.exp(x) - 1, 0, 1),
    "log(x)+x-2": (lambda x: mp.log(x) + x - 2, 1, 2),
    "sqrt(x)+cbrt(x)-3": (lambda x: mp.sqrt(x) + mp.cbrt(x) - 3, 2, 4),
    "(x^2-2)^2": lambda: mp.sqrt(2),
    "(x-1)^3*exp(x)": lambda: mp.mpf(1),
    "sin(x)-x": lambda: mp.mpf(0),
    "abs(x)": lambda: mp.mpf(0),
    "log(x)": lambda: mp.mpf(1),
    "sqrt(x)": lambda: mp.mpf(0),
    "cbrt(x)": lambda: mp.mpf(0),
    "1/x-2": lambda: mp.mpf("0.5"),
}
MAPS = [f"t{n}" for n in range(8)] + ["t2_1", "t7_6"]
RUNS_PER_PAIR = 4
# the scheduled slice: plain maps only, one run per pair at SCHEDULED_DIGITS
SCHEDULED_MAPS = ["t0", "t4", "t7", "t7_6"]
SCHEDULED_DIGITS = 1000
MAX_ITER = 12
# the vector set: every system with every step kind at both precisions
VECTOR_KINDS = ["newton", "trapezoidal", "simpson"]
VECTOR_DIGITS = [60, 1000]
DENSE_SYSTEMS = 4


def _root(text, digits):
    """The root of ``text``, 20 digits finer than a run at ``digits``."""
    spec = FUNCTIONS[text]
    if callable(spec):
        with mp.workdps(digits + 20):
            return spec()
    return certified_root(*spec, digits + 20)


def _bits(big):
    """An exact, compact text of a BigReal's binary value (None stays None)."""
    if big is None:
        return None
    sign, man, exp, _ = big.value._mpf_
    return f"{'-' * sign}{man:x}p{exp}" if man else mp.nstr(big.value, 1)  # 0, inf or nan


def _draw(rng, digits=None):
    """(Simpson seeding, x0, digits, knows root) of one run, digits 30 or 60 unless given."""
    seeding = rng.choice(["trapezoid", "newton"])
    x0 = str(rng.randint(-2, 3)) if rng.random() < 0.5 else f"{rng.uniform(-3, 3):.6f}"
    return seeding, x0, digits or rng.choice([30, 60]), rng.random() < 0.5


def runs():
    """(index, function, method spec, Simpson seeding, x0, digits, knows root) of every run."""
    index = 0
    for text in FUNCTIONS:
        for spec in MAPS:
            for transform in (False, True):
                rng = random.Random(f"{text}|{spec}|{transform}")
                for _ in range(RUNS_PER_PAIR):
                    yield (index, text, spec + "+F" * transform, *_draw(rng))
                    index += 1
    for text in FUNCTIONS:
        for spec in SCHEDULED_MAPS:
            rng = random.Random(f"{text}|{spec}|{SCHEDULED_DIGITS}")
            yield (index, text, spec, *_draw(rng, SCHEDULED_DIGITS))
            index += 1


def run_line(index, text, method, seeding, x0, digits, knows_root, roots):
    """The JSON line of one run."""
    line = {"run": index, "f": text, "method": method, "simpson_seed": seeding, "x0": x0,
            "digits": digits, "root": knows_root}
    try:
        if knows_root and (text, digits) not in roots:
            roots[text, digits] = _root(text, digits)
        problem = ScalarProblem(parse(text), bigreal(x0, digits), precision=digits,
                                max_iter=MAX_ITER,
                                known_root=bigreal(roots[text, digits], digits)
                                if knows_root else None)
        traj = iterate(problem, MethodId.parse(method, simpson_seed=seeding))
    except (CotesrootError, ValueError) as exc:
        line["error"] = f"{type(exc).__name__}: {exc}"
        return json.dumps(line)
    line["iterates"] = [[_bits(r.x), _bits(r.fx), _bits(r.step), r.s] for r in traj.iterates]
    t = traj.termination
    line["termination"] = [t.kind, t.detail, t.message, t.level]
    return json.dumps(line)


class DenseSystem:
    """F(x) = A x + x^3 - b, the cube taken per coordinate, from a seeded generator.

    A is d x d with 20 on the diagonal and integers in -2..2 off it, and the
    root r has eighths in [-1, 1] as coordinates, so b is exact.
    """

    def __init__(self, rng, d):
        self.a = [[20 if i == j else rng.randint(-2, 2) for j in range(d)] for i in range(d)]
        self.root = [Fraction(rng.randint(-8, 8), 8) for _ in range(d)]
        self.b = [sum(aij * rj for aij, rj in zip(row, self.root)) + ri**3
                  for row, ri in zip(self.a, self.root)]

    def residual(self, x):
        return [mp.fsum(aij * xj for aij, xj in zip(row, x)) + xi**3
                - mp.mpf(bi.numerator) / bi.denominator
                for row, xi, bi in zip(self.a, x, self.b)]

    def jacobian(self, x):
        return [[aij + 3 * x[i] ** 2 if i == j else aij for j, aij in enumerate(row)]
                for i, row in enumerate(self.a)]

    def function(self):
        return VectorFunction(len(self.a), self.residual, self.jacobian)


def vector_systems():
    """name -> (VectorFunction, the point its starts are drawn around, their spread)."""
    systems = {name: (demo.function, demo.x0, 0.5)
               for name, demo in ((n, demo_system(n)) for n in ("affine", "circle-line"))}
    for i in range(DENSE_SYSTEMS):
        rng = random.Random(f"dense|{i}")
        dense = DenseSystem(rng, rng.randint(2, 8))
        systems[f"dense-{i}"] = (dense.function(), [str(float(r)) for r in dense.root],
                                 rng.choice([0.05, 0.5, 2.0]))
    return systems


def vector_runs(start):
    """(index, system, step kind, x0, digits) of every vector run, numbered from ``start``."""
    index = start
    for name, (_, center, spread) in vector_systems().items():
        for kind in VECTOR_KINDS:
            for digits in VECTOR_DIGITS:
                rng = random.Random(f"{name}|{kind}|{digits}")
                x0 = [f"{float(c) + rng.uniform(-spread, spread):.6f}" for c in center]
                yield index, name, kind, x0, digits
                index += 1


def vector_line(index, name, kind, x0, digits, systems):
    """The JSON line of one vector run."""
    line = {"run": index, "f": name, "method": kind, "x0": x0, "digits": digits}
    try:
        traj = nd_iterate(systems[name][0], x0, kind=kind, precision=digits, max_iter=MAX_ITER)
    except (CotesrootError, ValueError) as exc:
        line["error"] = f"{type(exc).__name__}: {exc}"
        return json.dumps(line)
    line["iterates"] = [[[_bits(v) for v in r.x], _bits(r.residual_norm)] for r in traj.iterates]
    t = traj.termination
    line["termination"] = [t.kind, t.detail, t.message, t.level]
    return json.dumps(line)


def _value(text):
    """The mpf of a number as ``_bits`` writes it."""
    if "p" not in text:
        return mp.mpf(text)
    mantissa, exp = text.split("p")
    return mp.mpf((int(mantissa, 16), int(exp)))


def _final(line):
    """The final iterate of a run line as a list of mpfs: one coordinate for a scalar run."""
    x = line["iterates"][-1][0]
    return [_value(v) for v in (x if isinstance(x, list) else [x])]


def _ending(line):
    """(termination or error, iterate count) of a run line."""
    if "error" in line:
        return line["error"], 0
    return tuple(line["termination"]), len(line["iterates"])


def _show(ending):
    termination, iterates = ending
    if isinstance(termination, str):
        return termination
    kind, detail = termination[:2]
    return f"{kind}{f' ({detail})' if detail else ''} after {iterates} iterates"


def compare(old_lines, new_lines):
    """The report lines on the runs that moved between two outputs, and whether
    every moved run kept its termination and iterate count and its final
    iterate within 10^(-p)·max(1, |x|) of the old one, in the max norm."""
    old, new = ({r["run"]: r for r in map(json.loads, filter(lambda t: t.startswith("{"), lines))}
                for lines in (old_lines, new_lines))
    report, ok = [], True
    for index in sorted(old.keys() | new.keys()):
        a, b = old.get(index), new.get(index)
        if a == b:
            continue
        if a is None or b is None:
            report.append(f"run {index}: only in the {'new' if a is None else 'old'} output")
            ok = False
            continue
        head = f"run {index} {a['f']} {a['method']} {a['digits']} digits"
        end_a, end_b = _ending(a), _ending(b)
        sides = f"{_show(end_a)} -> {_show(end_b)}"
        if end_a != end_b or "error" in a:
            report.append(f"{head}: {sides}, ending changed")
            ok = False
            continue
        with mp.workdps(a["digits"] + 30):
            x, y = (_final(r) for r in (a, b))
            diff = max(abs(v - u) for u, v in zip(x, y))
            bound = mp.mpf(10) ** -a["digits"] * max(1, *map(abs, x))
            within = diff <= bound
            report.append(f"{head}: {sides}, final |dx| {mp.nstr(diff, 3)} "
                          f"{'<=' if within else '>'} {mp.nstr(bound, 3)}")
        ok = ok and within
    report.append(f"{len(report)} runs moved; {'all within' if ok else 'NOT all within'} the bound "
                  "with the same endings")
    return report, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="report the runs that moved between two saved outputs")
    args = parser.parse_args(argv)
    if args.compare:
        outputs = []
        for path in args.compare:
            with open(path) as fh:
                outputs.append(fh.read().splitlines())
        report, ok = compare(*outputs)
        print("\n".join(report))
        return 0 if ok else 1
    roots, systems = {}, vector_systems()
    scalar = [run_line(*run, roots) for run in runs()]
    for lines in (scalar, (vector_line(*run, systems) for run in vector_runs(len(scalar)))):
        digest = hashlib.sha256()
        for line in lines:
            print(line, flush=True)
            digest.update(line.encode() + b"\n")
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
