#!/usr/bin/env python3
"""Run every benchmark workload in two checkouts and compare their outputs.

    python scripts/compare_outputs.py --parent ../parent --change .

For each checkout and each workload of the change's ``bench/workload.py``
(its WORKLOADS), the checkout's own ``bench/workload.py`` runs once at
``--seed 11`` in a fresh process, with that checkout's ``src`` first on
PYTHONPATH.  The process runs in a temporary directory, which also takes
its artifacts, and writes no bytecode, so both checkouts are only read.

For each workload it prints whether the ``energy.csv`` and
``final_snapshot.csv`` bodies of the two sides are ``cmp``-equal.  For a
body that is not, it prints each column's largest move as a share of that
column's largest magnitude on the parent's side, the measure of
``tests/test_acceptance.py::test_trajectories_match_pinned_rows``.  The
columns of ``energy.csv`` are its named ones (an empty cell reads as nan,
and two nans do not move); a snapshot's are ``rho``, its first data row,
and ``u``, the rows after it.  Last, it prints whether every workload
check of each side passed, and how many warning lines (``<file>:<line>:
<Category>Warning: ...``) each side wrote to stderr, so a change to what
a workload warns about shows beside the verdict.  The exit code is 0
when every body is ``cmp``-equal and every check passed, else 1.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import workloads  # this script's sibling, on sys.path when it runs

SEED = 11
BODIES = ("energy.csv", "final_snapshot.csv")
WARNING_LINE = re.compile(r":\d+: \w*Warning: ")  # the first line of ``warnings.showwarning``


def run_workload(checkout, workload, out_dir):
    """(the RESULT record, the count of ``warning_lines`` on stderr) of
    one ``bench/workload.py`` run of ``checkout``, its artifacts written
    into ``out_dir``."""
    checkout = os.path.abspath(checkout)
    src = os.path.join(checkout, "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(checkout, "bench", "workload.py"), "--workload",
         workload, "--seed", str(SEED), "--root", checkout, "--out", out_dir],
        cwd=out_dir, env=env, capture_output=True, text=True, check=True)
    line = next(line for line in proc.stdout.splitlines() if line.startswith("RESULT "))
    return json.loads(line[len("RESULT "):]), warning_lines(proc.stderr)


def warning_lines(stderr):
    """How many lines of ``stderr`` begin a Python warning."""
    return sum(1 for line in stderr.splitlines() if WARNING_LINE.search(line))


def _cells(line):
    return [float(cell) if cell else math.nan for cell in line.split(",")]


def columns(text):
    """{column: values} of an output body: the named columns of a body
    whose first data line is a header, else a snapshot's ``rho`` (its
    first data row) and ``u`` (the rows after it, flattened).  Comment
    lines (``#``) are skipped; an empty cell is nan."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    try:
        rows = [_cells(line) for line in lines]
    except ValueError:  # a header names the columns
        names, rows = lines[0].split(","), [_cells(line) for line in lines[1:]]
        return {name: np.array([row[j] for row in rows]) for j, name in enumerate(names)}
    return {"rho": np.array(rows[0]), "u": np.array([v for row in rows[1:] for v in row])}


def column_moves(parent_text, change_text):
    """{column: the largest |change - parent| of the column over the
    largest |parent| of it}: 0.0 where the column does not move, inf where
    a value appears on one side only (a nan against a number, or a column
    or row that the other side lacks)."""
    parent, change = columns(parent_text), columns(change_text)
    moves = {}
    for name in dict.fromkeys([*parent, *change]):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None or a.shape != b.shape:
            moves[name] = math.inf
            continue
        both_nan = np.isnan(a) & np.isnan(b)
        move = np.where(both_nan, 0.0, np.nan_to_num(np.abs(b - a), nan=math.inf))
        largest = float(move.max(initial=0.0))
        scale = float(np.nanmax(np.abs(a), initial=0.0))
        moves[name] = largest / scale if scale > 0.0 else (0.0 if largest == 0.0 else math.inf)
    return moves


def body_line(name, parent_text, change_text):
    """One line: whether the two bodies ``name`` are ``cmp``-equal, or
    else the largest move of each column (``column_moves``)."""
    if parent_text == change_text:
        return f"  {name}: cmp-equal"
    moves = column_moves(parent_text, change_text)
    return (f"  {name}: differ; largest move / column max: "
            + ", ".join(f"{col} {share:.3g}" for col, share in moves.items()))


def checks_line(side, result, warnings):
    """One line: whether every workload check of one side's RESULT passed,
    and how many warning lines the side's run wrote."""
    failed = [name for name, ok, _ in result["checks"] if not ok]
    verdict = "all passed" if not failed else "failed: " + ", ".join(failed)
    return f"  {side} checks ({len(result['checks'])}): {verdict}; warning lines: {warnings}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent's checkout")
    ap.add_argument("--change", required=True, help="the change's checkout")
    args = ap.parse_args(argv)
    equal = passed = True
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for workload in workloads(args.change, "workload"):
            print(workload)
            texts, results, warned = {}, {}, {}
            for side, checkout in (("parent", args.parent), ("change", args.change)):
                out_dir = os.path.join(tmp, side, workload)
                os.makedirs(out_dir)
                results[side], warned[side] = run_workload(checkout, workload, out_dir)
                for name in BODIES:
                    with open(os.path.join(out_dir, name)) as fh:
                        texts[side, name] = fh.read()
            for name in BODIES:
                equal &= texts["parent", name] == texts["change", name]
                print(body_line(name, texts["parent", name], texts["change", name]))
            for side, result in results.items():
                passed &= all(ok for _, ok, _ in result["checks"])
                print(checks_line(side, result, warned[side]))
    print(f"every body cmp-equal: {'yes' if equal else 'no'}; "
          f"every workload check passed: {'yes' if passed else 'no'}")
    return 0 if equal and passed else 1


if __name__ == "__main__":
    sys.exit(main())
