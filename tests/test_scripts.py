"""The scripts under ``scripts/``: the studies run to the end on tiny inputs,
and the tools' pure parts give what they should on synthetic data."""
import csv
import math
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, argv, out, header", [
    ("decay_rate.py", ["--amplitudes", "1e-3", "--t-end", "0.02"], "decay_rates.csv",
     ["amplitude", "K2_hat", "r_squared", "relative_gap"]),
    ("spectrum_table.py", ["--k-max", "1", "--eps", "0"], None, None),
], ids=["decay_rate", "spectrum_table"])
def test_study_script_runs_on_tiny_inputs(script, argv, out, header, tmp_path, monkeypatch,
                                          capsys):
    # in-process, as ``python scripts/<script> <argv>`` from tmp_path: a
    # usage error would raise SystemExit with a nonzero code
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    printed = capsys.readouterr().out
    if out is None:  # the table: its header and one row, for k = 1 and eps = 0
        lines = printed.splitlines()
        assert lines[0].split()[:2] == ["k", "eps"] and len(lines) == 2
        assert lines[1].split()[:2] == ["1", "0"]
        return
    with open(tmp_path / out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header and len(rows) == 2
    assert f"wrote {out}" in printed


def test_code_lines_counts_code_only(tmp_path, monkeypatch, capsys):
    # blank, comment-only and docstring lines do not count; a line of code
    # with a trailing comment, and each line of a multi-line statement, do
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\n# a comment\nx = (1,  # kept\n     2)\n\n\n'
        'class C:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
        '        return "not a docstring"\n')
    (tmp_path / "b.py").write_text("y = 1\n")
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "code_lines.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == ["a 5", "b 1", "total 6"]
    # the package itself: one row per module, then their total
    monkeypatch.setattr(sys, "argv", ["code_lines.py"])
    runpy.run_path(str(SCRIPTS / "code_lines.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["stepper"] == [name for name, _ in rows if name == "stepper"]
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])


def test_step_counts_prints_the_count_tests_totals(monkeypatch, capsys):
    # its table is ``totals(tally(...))`` of the count test's 16 x 17
    # decay, here of 4 steps (so each total has at most two decimals and
    # prints exactly), then the line naming what the hook cannot see; each
    # part's tally lists its top functions with their callers
    tool = runpy.run_path(str(SCRIPTS / "step_counts.py"))
    want = tool["totals"](tool["tally"](*tool["decay_problem"](), 4), 4)
    monkeypatch.setattr(sys, "argv", ["step_counts.py", "--steps", "4", "--top", "4"])
    runpy.run_path(str(SCRIPTS / "step_counts.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["part", *tool["KINDS"]]
    assert {row[0]: [float(v) for v in row[1:]] for row in map(str.split, lines[1:3])} == {
        part: list(per_step.values()) for part, per_step in want.items()}
    assert lines[3] == tool["UNSEEN"]
    for part in ("step", "report"):
        head = lines.index(f"{part}: top 4 by calls per step (kind, function <- caller)")
        rows = lines[head + 1:head + 5]
        assert len(rows) == 4 and all(" <- " in row for row in rows)


def test_compare_outputs_measures_each_columns_largest_move(monkeypatch):
    # on synthetic bodies, with no subprocess: equal bodies print as
    # cmp-equal; otherwise each column's largest move over the parent's
    # largest magnitude of it, an energy.csv's named columns and a
    # snapshot's rho row and u rows; two empty cells do not move, and an
    # empty cell against a number, or a missing row, is an infinite move
    monkeypatch.syspath_prepend(str(SCRIPTS))  # as ``python scripts/compare_outputs.py`` has it
    tool = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))
    parent = "# config_hash=abc\n# seed=11\nt,E,identity_residual\n0,4,\n0.5,2,\n1,-8,\n"
    change = "# config_hash=abc\n# seed=11\nt,E,identity_residual\n0,4,\n0.5,2.5,\n1,-8,\n"
    assert tool["body_line"]("energy.csv", parent, parent) == "  energy.csv: cmp-equal"
    assert tool["column_moves"](parent, change) == {"t": 0.0, "E": 0.0625,
                                                    "identity_residual": 0.0}
    assert tool["body_line"]("energy.csv", parent, change) == (
        "  energy.csv: differ; largest move / column max: t 0, E 0.0625, identity_residual 0")
    filled = change.replace("2.5,\n", "2.5,1e-3\n")
    assert tool["column_moves"](parent, filled)["identity_residual"] == math.inf
    assert tool["column_moves"](parent, parent.rsplit("1,-8,\n", 1)[0])["t"] == math.inf
    snapshot = "# stefansim snapshot\n# t=1\n0.5,-1\n1,2,4\n-2,0,0\n"
    moved = "# stefansim snapshot\n# t=1\n0.5,-1\n1,2,4\n-2,0,1\n"
    assert tool["column_moves"](snapshot, moved) == {"rho": 0.0, "u": 0.25}
    result = {"checks": [["step count", True, ""], ["decay rate", False, "gap"]]}
    assert tool["checks_line"]("change", result, 0) == (
        "  change checks (2): failed: decay rate; warning lines: 0")


def test_compare_outputs_counts_the_warning_lines_on_stderr(monkeypatch):
    # on synthetic stderr text, with no subprocess: the first line of each
    # warning counts, not its source line or other text
    monkeypatch.syspath_prepend(str(SCRIPTS))
    tool = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))
    stderr = ("bench/workload.py:120: ResolutionWarning: step 0 (t=0.0): interface "
              "under-resolved: top-third spectral energy fraction 1.00e-06 >= 1e-08\n"
              "  res = run(u0, rho0, cfg, t_end)\n"
              "bench/workload.py:12: RuntimeWarning: divide by zero encountered in log\n"
              "a UserWarning: named mid-line\n")
    assert tool["warning_lines"](stderr) == 2
    assert tool["warning_lines"]("") == 0
    assert tool["checks_line"]("parent", {"checks": [["step count", True, ""]]}, 2) == (
        "  parent checks (1): all passed; warning lines: 2")
