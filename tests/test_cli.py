import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import cotesroot
from cotesroot import (MethodId, ScalarProblem, bigreal, estimate_order_from_steps, iterate,
                       parse, run_table)
from cotesroot.bigreal import DEFAULT_DIGITS
from cotesroot.cli import main
from cotesroot.tables import TABLE_IDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- weights

def test_weights_text(capsys):
    code, out, _ = run_cli(capsys, "weights", "--n", "4")
    assert code == 0
    assert "7 32 12 32 7" in out
    assert "c = 90" in out


def test_weights_json_derive(capsys):
    code, out, _ = run_cli(capsys, "weights", "--n", "7", "--derive", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == [751, 3577, 1323, 2989, 2989, 1323, 3577, 751]
    assert data["c"] == 17280


def test_weights_csv(capsys):
    code, out, _ = run_cli(capsys, "weights", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "c", "A0", "A1", "A2"]
    assert rows[1] == ["2", "6", "1", "4", "1"]


def test_weights_out_of_range(capsys):
    code, _, err = run_cli(capsys, "weights", "--n", "8")
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------- solve

def test_solve_newton_square(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "x^2-4", "-m", "t0",
                           "--x0", "3", "--digits", "30")
    assert code == 0
    assert "2.1666666" in out
    assert "converged" in out


def test_solve_text_shows_s_against_root(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "x^2-4", "-m", "t0",
                           "--x0", "3", "--digits", "30", "--root", "2")
    assert code == 0
    rows = out.splitlines()[:-1]
    assert all(" s=" in row for row in rows)
    # the first step goes to 13/6, an error of 1/6
    assert float(rows[1].split("s=")[1]) == pytest.approx(float(mp.log10(6)), abs=1e-5)


def test_solve_json_schema(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "tanh(x-1)", "-m", "t2",
                           "--x0", "2.0", "--digits", "60", "--root", "1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"method", "config", "iterates", "termination"}
    assert data["method"] == "t2"
    assert data["config"]["digits"] == 60
    first = data["iterates"][0]
    assert first["k"] == 0 and isinstance(first["x"], str)
    s_values = [float(rec["s"]) for rec in data["iterates"]]
    assert s_values == sorted(s_values)  # rising s column
    assert data["termination"]["kind"] == "converged"


@pytest.mark.parametrize("text,x0,kind,message", [
    # the trapezoid node is the Newton value -0.296, outside the domain of log
    ("log(x)", "3", "domain", "log of nonpositive value -0.29583687"),
    # from 1 the Newton value of x^2+3 is -1, so f'(1) + f'(-1) = 0
    ("x^2+3", "1", "zero_denominator", "weighted slope sum vanished"),
])
def test_solve_json_breakdown_says_why(capsys, text, x0, kind, message):
    code, out, _ = run_cli(capsys, "solve", "-f", text, "-m", "t1", "--x0", x0,
                           "--digits", "30", "--format", "json")
    assert code == 2
    assert json.loads(out)["termination"] == {
        "kind": "breakdown", "detail": kind, "message": message, "level": 1}


def test_solve_csv(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "x^2-2", "-m", "t1",
                           "--x0", "1.5", "--digits", "40", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "x", "fx", "step", "s"]
    assert len(rows) > 2


@pytest.mark.parametrize("flag", ["--x0", "--step-tol", "--residual-tol", "--root"])
def test_solve_non_numeric_flag_names_itself(capsys, flag):
    start = [] if flag == "--x0" else ["--x0", "1.5"]
    code, out, err = run_cli(capsys, "solve", "-f", "x^2-2", *start, flag, "abc")
    assert code == 1 and out == ""
    assert err == f"error: {flag}: could not convert string to float: 'abc'\n"


def test_solve_diverged_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "tanh(x-1)", "-m", "t0",
                           "--x0", "-5", "--digits", "30")
    assert code == 2
    assert "diverged" in out


def test_solve_max_iterations_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "sin(x)-x", "-m", "t0",
                           "--x0", "0.1", "--digits", "40", "--max-iter", "3")
    assert code == 3
    assert "max_iterations" in out


def test_solve_transform_at_a_pole_does_not_converge(capsys):
    # F = -f/f' = x - 2x^2 vanishes at x = 0, a pole of f = 1/x - 2: the steps
    # shrink towards it while |f| grows at every one
    code, out, _ = run_cli(capsys, "solve", "-f", "1/x-2", "-m", "t0+F", "--x0", "-2",
                           "--digits", "60", "--root", "0.5", "--format", "json")
    assert code != 0
    assert json.loads(out)["termination"]["kind"] != "converged"


def test_solve_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "-f", "sin(", "--x0", "1")
    assert code == 1
    assert "error" in err


def test_solve_rejects_tiny_digits(capsys):
    code, _, err = run_cli(capsys, "solve", "-f", "x^2-2", "--x0", "1.5",
                           "--digits", "8")
    assert code == 1
    assert "digits" in err


def test_solve_rejects_nan_tolerances(capsys):
    code, _, err = run_cli(capsys, "solve", "-f", "x^2-2", "--x0", "1",
                           "--step-tol", "nan", "--residual-tol", "nan")
    assert code == 1
    assert "step_tol" in err


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_solve_rejects_nonfinite_start(capsys, x0):
    code, _, err = run_cli(capsys, "solve", "-f", "x^2-2", f"--x0={x0}", "--digits", "30")
    assert code == 1
    assert "x0" in err


@pytest.mark.parametrize("text", ["(" * 1500 + "x" + ")" * 1500, "+".join(["x"] * 3000)])
def test_solve_deep_expression_converges(capsys, text):
    # 1500 nested parentheses, or a flat sum of 3000 terms: no nesting limit
    code, out, _ = run_cli(capsys, "solve", "-f", text, "--x0", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["termination"]["kind"] == "converged"


def test_table_row_reproducible_via_solve(capsys):
    # round-trip: the tab1nn t2 row equals a solve run with the same wiring
    row = [r for r in __import__("cotesroot").run_table("tab1nn").rows
           if r.method == "t2"][0]
    code, out, _ = run_cli(capsys, "solve", "-f", "tanh(x-1)", "-m", "t2",
                           "--x0", "1.1", "--digits", "60", "--root", "1",
                           "--simpson-seed", "newton", "--max-iter", "1",
                           "--format", "json")
    assert code in (0, 3)
    s = float(json.loads(out)["iterates"][1]["s"])
    assert s == pytest.approx(row.computed, abs=1e-4)


def test_solve_default_digits(capsys):
    code, out, _ = run_cli(capsys, "solve", "-f", "x^2-2", "-m", "t0",
                           "--x0", "1.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["digits"] == DEFAULT_DIGITS == 50


# ------------------------------------------------------------- order

def test_order_newton_on_tanh(capsys):
    code, out, _ = run_cli(capsys, "order", "-f", "tanh(x-1)", "-m", "t0",
                           "--x0", "1.5", "--digits", "300", "--root", "1",
                           "--max-iter", "10", "--format", "json")
    assert code == 0
    assert float(json.loads(out)["q"]) == pytest.approx(3.0, abs=0.2)


def test_order_three_point(capsys):
    code, out, _ = run_cli(capsys, "order", "-f", "x^2-2", "-m", "t0",
                           "--x0", "1.5", "--digits", "300",
                           "--max-iter", "12", "--format", "json")
    assert code == 0
    assert float(json.loads(out)["q"]) == pytest.approx(2.0, abs=0.2)


def test_order_without_root_uses_steps(capsys):
    # no --root: the three-point estimate from consecutive steps
    argv = ("order", "-f", "x^2-2", "-m", "t0", "--x0", "1.5", "--digits", "300",
            "--max-iter", "12", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    traj = iterate(ScalarProblem(parse("x^2-2"), bigreal("1.5", 300), precision=300,
                                 max_iter=12), MethodId.parse("t0"))
    expected = estimate_order_from_steps(traj)
    data = json.loads(out)
    assert data["q"] == mp.nstr(mp.mpf(expected.q), 6)
    assert data["samples_used"] == expected.samples_used
    assert float(data["q"]) == pytest.approx(2.0, abs=0.2)


def test_order_csv_and_text_match_json(capsys):
    argv = ("order", "-f", "tanh(x-1)", "-m", "t0", "--x0", "1.5", "--digits", "300",
            "--root", "1", "--max-iter", "10", "--format")
    code, out, _ = run_cli(capsys, *argv, "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["per_pair"]) == 6
    code, out, _ = run_cli(capsys, *argv, "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == (
        [["pair", "q"]] + [[str(i), q] for i, q in enumerate(data["per_pair"])]
        + [["final", data["q"]]])
    code, out, _ = run_cli(capsys, *argv, "text")
    assert code == 0
    assert out.splitlines() == [
        f"estimated order q = 3.002 from {data['samples_used']} iterates",
        "per-pair estimates: 3.513, 3.166, 3.053, 3.017, 3.006, 3.002"]


def test_order_insufficient_data_exit_code(capsys):
    code, _, err = run_cli(capsys, "order", "-f", "x^2-2", "-m", "t0",
                           "--x0", "1.5", "--digits", "60", "--root", "1.41",
                           "--max-iter", "2")
    assert code == 3


# ------------------------------------------------------------- table

def test_table_tab1nn(capsys):
    code, out, _ = run_cli(capsys, "table", "tab1nn")
    assert code == 0
    assert "t7" in out
    last = [line for line in out.splitlines() if line.startswith("max ")][0]
    assert float(last.split("=")[1]) < 0.15


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "tabnova1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "tabnova1"
    assert len(data["rows"]) == 8
    assert all(row["diff"] < 0.05 for row in data["rows"])


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_table_csv_matches_golden(capsys, table_id):
    # every printed figure but the run time, as recorded from a reference run
    code, out, _ = run_cli(capsys, "table", table_id, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        del row["runtime_s"]
    with open(GOLDEN / f"table_{table_id}.csv", newline="") as fh:
        assert rows == list(csv.DictReader(fh))


def test_table_rejects_tiny_digits(capsys):
    code, _, err = run_cli(capsys, "table", "tab1nn", "--digits", "5")
    assert code == 1
    assert "digits" in err


def test_table_unknown_id(capsys):
    with pytest.raises(SystemExit):
        main(["table", "tab9"])


def test_run_table_unknown_id():
    with pytest.raises(ValueError, match="^unknown table id 'nope'; choose from tab1, "):
        run_table("nope")


# ------------------------------------------------------- per-iterate series
# `solve --format csv` is the per-iterate report: the s column against --root,
# and the step column as the error estimate without one.

SQRT2 = "1.4142135623730950488016887242096980785696718753769"


def _solve_csv(capsys, *argv):
    code, out, _ = run_cli(capsys, "solve", *argv, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    return code, rows


def _s_column(capsys, method):
    code, rows = _solve_csv(capsys, "-f", "tanh(x-1)", "-m", method,
                            "--x0", "2.0", "--digits", "60", "--root", "1",
                            "--max-iter", "2", "--residual-tol", "1e-55",
                            "--step-tol", "1e-55")
    assert code in (0, 3)
    return {int(row["k"]): float(row["s"]) for row in rows}


def test_solve_csv_simpson_beats_lower_orders(capsys):
    s = {m: _s_column(capsys, m) for m in ("t0", "t1", "t2")}
    for k in (1, 2):
        assert s["t2"][k] > s["t1"][k] > s["t0"][k]


def test_solve_csv_t4_second_iterate(capsys):
    assert _s_column(capsys, "t4")[2] > 17


def test_solve_csv_start_at_root_is_one_row(capsys):
    code, rows = _solve_csv(capsys, "-f", "x^2-4", "-m", "t0", "--x0", "2",
                            "--digits", "40", "--root", "2")
    assert code == 0
    assert [(row["k"], row["step"], row["s"]) for row in rows] == [("0", "", "40.0")]


def test_solve_csv_step_column_without_root(capsys):
    code, rows = _solve_csv(capsys, "-f", "x^2-2", "-m", "t0", "--x0", "1.5",
                            "--digits", "40")
    assert code == 0
    assert {row["s"] for row in rows} == {""}
    steps = [abs(mp.mpf(row["step"])) for row in rows[:-1]]
    assert rows[-1]["step"] == ""
    assert [mp.nstr(v, 8) for v in steps[:5]] == [
        "0.083333333", "0.0024509804", "2.1238998e-6", "1.5948618e-12", "8.9929283e-25"]
    assert steps == sorted(steps, reverse=True)


def test_solve_csv_s_column_with_root(capsys):
    # Newton on x^2 - 2 from 1.5 roughly doubles s per step; four steps do not
    # reach the 10^-30 stop tolerances
    code, rows = _solve_csv(capsys, "-f", "x^2-2", "-m", "t0", "--x0", "1.5",
                            "--digits", "40", "--max-iter", "4", "--root", SQRT2)
    assert code == 3
    assert [row["s"] for row in rows] == [
        "1.0665814", "2.610284", "5.6728656", "11.797277", "24.046099"]
    # |x_k - z| for k >= 1 from the x column, at 8 significant digits
    with mp.workdps(50):
        errors = [mp.nstr(abs(mp.mpf(row["x"]) - mp.mpf(SQRT2)), 8) for row in rows[1:]]
    assert errors == ["0.0024531043", "2.1239014e-6", "1.5948618e-12", "8.9929283e-25"]


# ------------------------------------------------------------- ndsolve

def test_ndsolve_affine(capsys):
    code, out, _ = run_cli(capsys, "ndsolve", "--system", "affine", "--kind", "newton")
    assert code == 0
    assert "converged" in out


def test_ndsolve_circle_line_simpson_json(capsys):
    code, out, _ = run_cli(capsys, "ndsolve", "--system", "circle-line",
                           "--kind", "simpson", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["termination"]["kind"] == "converged"
    final = data["iterates"][-1]["x"]
    assert float(final[0]) == pytest.approx(0.7071067811865475, abs=1e-12)


def test_ndsolve_rejects_tiny_digits(capsys):
    code, _, err = run_cli(capsys, "ndsolve", "--system", "circle-line", "--digits", "3")
    assert code == 1
    assert "digits" in err


def test_ndsolve_rejects_empty_budget(capsys):
    code, _, err = run_cli(capsys, "ndsolve", "--system", "circle-line", "--max-iter", "0")
    assert code == 1
    assert "max_iter" in err


@pytest.mark.parametrize("argv", [["solve", "-f", "x^2-2", "--x0", "1.5"],
                                  ["ndsolve", "--system", "affine"],
                                  ["table", "tab1"],
                                  ["table", "tab1nn"]])
def test_zero_digits_is_not_the_default(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--digits", "0")
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------- entry point

def test_console_script_runs():
    # the child imports the same cotesroot as this suite, whichever way the
    # suite found it (PYTHONPATH, the pytest pythonpath setting or an install)
    src = str(Path(cotesroot.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cotesroot.cli", "weights", "--n", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "c = 1" in proc.stdout
