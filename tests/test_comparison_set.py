"""``comparison_set.py --compare`` on two small synthetic outputs."""

import json

import pytest

from comparison_set import main


def _line(run, x, termination=("converged", "residual", None, None), iterates=2):
    """A 30-digit run line as ``comparison_set.run_line`` writes it, ending at ``x``."""
    points = [["1p0", "1p0", "1p-1", None]] * (iterates - 1) + [[x, "0.0", None, None]]
    return json.dumps({"run": run, "f": "x^2-2", "method": "t0", "simpson_seed": "trapezoid",
                       "x0": "1", "digits": 30, "root": False, "iterates": points,
                       "termination": list(termination)})


def _above(e):
    """1.5 + 2^-e as ``comparison_set._bits`` writes it."""
    return f"{(3 << (e - 1)) + 1:x}p{-e}"


# two runs that end at 1.5, then the digest line; at 30 digits the bound is
# 10^-30 · 1.5, between 2^-100 and 2^-98
OLD = [_line(0, "3p-1"), _line(1, "3p-1"), "0123abcd"]
RUN = "run 1 x^2-2 t0 30 digits: converged (residual) after 2 iterates -> "


@pytest.mark.parametrize("moved,code,report", [
    (_line(1, "3p-1"), 0, []),
    (_line(1, _above(100)), 0,
     [RUN + "converged (residual) after 2 iterates, final |dx| 7.89e-31 <= 1.5e-30"]),
    (_line(1, _above(98)), 1,
     [RUN + "converged (residual) after 2 iterates, final |dx| 3.16e-30 > 1.5e-30"]),
    (_line(1, "3p-1", iterates=3), 1,
     [RUN + "converged (residual) after 3 iterates, ending changed"]),
    (_line(1, "3p-1", termination=("max_iterations", None, None, None)), 1,
     [RUN + "max_iterations after 2 iterates, ending changed"]),
], ids=["unmoved", "within", "beyond", "iterates", "termination"])
def test_compare_reports_moved_runs_and_fails_changed_endings_and_large_moves(
        tmp_path, capsys, moved, code, report):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(OLD) + "\n")
    new.write_text("\n".join([OLD[0], moved, "4567ef01"]) + "\n")
    assert main(["--compare", str(old), str(new)]) == code
    summary = "all within" if code == 0 else "NOT all within"
    assert capsys.readouterr().out.splitlines() == report + [
        f"{len(report)} runs moved; {summary} the bound with the same endings"]


def _vector_line(run, x):
    """A 30-digit vector run line as ``comparison_set.vector_line`` writes it, ending at ``x``."""
    return json.dumps({"run": run, "f": "circle-line", "method": "newton", "x0": ["1", "0.5"],
                       "digits": 30, "iterates": [[["1p0", "1p-1"], "1p-2"], [x, "0.0"]],
                       "termination": ["converged", "residual", None, None]})


@pytest.mark.parametrize("moved,code,distance", [
    (["3p-1", "-" + _above(100)], 0, "7.89e-31 <= 1.5e-30"),
    ([_above(98), "-3p-1"], 1, "3.16e-30 > 1.5e-30"),
], ids=["within", "beyond"])
def test_compare_bounds_a_vector_run_in_the_max_norm(tmp_path, capsys, moved, code, distance):
    # the final iterate (1.5, -1.5) moves in one coordinate; the bound is
    # 10^-30 · max(1, 1.5), from the max norm of the old final iterate
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(_vector_line(7, ["3p-1", "-3p-1"]) + "\n")
    new.write_text(_vector_line(7, moved) + "\n")
    assert main(["--compare", str(old), str(new)]) == code
    summary = "all within" if code == 0 else "NOT all within"
    assert capsys.readouterr().out.splitlines() == [
        "run 7 circle-line newton 30 digits: converged (residual) after 2 iterates -> "
        f"converged (residual) after 2 iterates, final |dx| {distance}",
        f"1 runs moved; {summary} the bound with the same endings"]
