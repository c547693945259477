"""Every subcommand's report, in every format it accepts, against recorded outputs.

``tests/golden/cli.json`` holds the exit code, stdout and stderr of each case
below.  Text and CSV must match byte for byte; JSON must parse to the same
value, so its whitespace may differ.  Only the table run times are masked:
the text ``time`` column, the CSV ``runtime_s`` column and the JSON
``runtime`` fields.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from cotesroot.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

ALL = ("text", "csv", "json")

CASES = {
    **{f"weights-n{n}{'-derive' * derive}": (("weights", "--n", str(n))
                                             + ("--derive",) * derive, ALL)
       for n in (0, 4, 7) for derive in (False, True)},
    "solve-converged-root": (("solve", "-f", "tanh(x-1)", "-m", "t2", "--x0", "2.0",
                              "--digits", "60", "--root", "1"), ALL),
    "solve-converged": (("solve", "-f", "x^2-2", "-m", "t1", "--x0", "1.5",
                         "--digits", "40"), ALL),
    "solve-tolerances": (("solve", "-f", "x^2-2", "-m", "t0", "--x0", "1.5",
                          "--digits", "40", "--step-tol", "1e-10",
                          "--residual-tol", "1e-12"), ALL),
    "solve-breakdown": (("solve", "-f", "log(x)", "-m", "t1", "--x0", "3",
                         "--digits", "30"), ALL),
    "solve-diverged": (("solve", "-f", "tanh(x-1)", "-m", "t0", "--x0", "-5",
                        "--digits", "30"), ALL),
    "solve-diverged-700": (("solve", "-f", "tanh(exp(x))", "--x0", "700",
                            "--digits", "700"), ALL),
    "solve-max-iterations": (("solve", "-f", "sin(x)-x", "-m", "t0", "--x0", "0.1",
                              "--digits", "40", "--max-iter", "3"), ALL),
    "solve-at-root": (("solve", "-f", "x^2-4", "-m", "t0", "--x0", "2",
                       "--digits", "40", "--root", "2"), ALL),
    "solve-transform": (("solve", "-f", "sin(x)-x", "-m", "t3+F", "--x0", "0.1",
                         "--digits", "60"), ALL),
    "solve-newton-seed": (("solve", "-f", "tanh(x-1)", "-m", "t2", "--x0", "1.1",
                           "--digits", "60", "--root", "1", "--simpson-seed", "newton",
                           "--max-iter", "1"), ALL),
    "order-root": (("order", "-f", "tanh(x-1)", "-m", "t0", "--x0", "1.5",
                    "--digits", "300", "--root", "1", "--max-iter", "10"), ALL),
    "order-steps": (("order", "-f", "x^2-2", "-m", "t0", "--x0", "1.5",
                     "--digits", "300", "--max-iter", "12"), ALL),
    "order-insufficient": (("order", "-f", "x^2-2", "-m", "t0", "--x0", "1.5",
                            "--digits", "60", "--root", "1.41", "--max-iter", "2"), ALL),
    **{f"table-{tid}": (("table", tid), ALL) for tid in ("tab1", "tab1nn", "tabnova2")},
    "ndsolve-affine": (("ndsolve", "--system", "affine"), ("text", "json")),
    "ndsolve-circle-line-simpson": (("ndsolve", "--system", "circle-line",
                                     "--kind", "simpson"), ("text", "json")),
    "ndsolve-circle-line-trap": (("ndsolve", "--system", "circle-line", "--kind", "trap",
                                  "--max-iter", "2"), ("text", "json")),
}

RUNS = [(f"{name}-{fmt}", (*argv, "--format", fmt))
        for name, (argv, formats) in CASES.items() for fmt in formats]


def _mask_runtimes(out: str) -> str:
    """A table report with its run times replaced by ``*``."""
    out = re.sub(r"(?m) *\d+\.\d\ds$", " *s", out)  # text: the time column
    return re.sub(r"(?m),\d+\.\d{3},(tab\w+)\r$", r",*,\1\r", out)  # csv: runtime_s


def run(argv) -> dict:
    """Exit code, stdout and stderr of one in-process run, table run times masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "table":
        if argv[-1] == "json":
            data = json.loads(stdout)
            for row in data["rows"]:
                row["runtime"] = "*"
            stdout = json.dumps(data, indent=2) + "\n"
        else:
            stdout = _mask_runtimes(stdout)
    return {"code": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(name for name, _ in RUNS)


def _comparable(result: dict, fmt: str) -> dict:
    """``result`` with a JSON report parsed, so that only its value is compared."""
    if fmt == "json" and result["stdout"]:
        return {**result, "stdout": json.loads(result["stdout"])}
    return result


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_cli_output_matches_golden(golden, name, argv):
    assert _comparable(run(argv), argv[-1]) == _comparable(golden[name], argv[-1])
