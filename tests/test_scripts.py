"""The study scripts under ``scripts/`` run to the end on tiny inputs."""
import csv
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
