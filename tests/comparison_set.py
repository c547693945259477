"""The scalar comparison set: 1260 seeded ``iterate`` runs, one JSON line each, then a digest.

Run from the repository root:

    PYTHONPATH=src python tests/comparison_set.py

The set crosses 15 functions (the ten benchmark families, abs(x), log(x),
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
last line is the sha256 of all run lines, so two versions of cotesroot that
print the same digest gave every run the same bits and the same ending.
pytest does not collect this file; the known roots come from
``conftest.certified_root``, which does not use cotesroot.

To check a change that alters bits, save the output of each version and
compare them:

    PYTHONPATH=src python tests/comparison_set.py --compare OLD NEW

This prints every run that moved: its termination and iterate count on each
side, and how far its final iterates differ against the bound
10^(-p)·max(1, |x|), x the old final iterate.  It exits 1 when a run's
termination or iterate count changed, or its final iterates differ by more
than the bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

import mpmath as mp

from conftest import certified_root
from cotesroot import CotesrootError, MethodId, ScalarProblem, bigreal, iterate, parse

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


def _value(text):
    """The mpf of a number as ``_bits`` writes it."""
    if "p" not in text:
        return mp.mpf(text)
    mantissa, exp = text.split("p")
    return mp.mpf((int(mantissa, 16), int(exp)))


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
    iterate within 10^(-p)·max(1, |x|) of the old one."""
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
            x, y = (_value(r["iterates"][-1][0]) for r in (a, b))
            diff = abs(y - x)
            bound = mp.mpf(10) ** -a["digits"] * max(1, abs(x))
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
    digest, roots = hashlib.sha256(), {}
    for run in runs():
        line = run_line(*run, roots)
        print(line, flush=True)
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
