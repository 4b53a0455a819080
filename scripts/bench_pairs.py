#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized into a BENCH_<n>.json.

    git worktree add --detach ../parent <parent commit>
    python scripts/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --out BENCH_20.json

Make the parent checkout with ``git worktree add --detach``, as above.
Both checkouts' commit ids are resolved before the first run and
recorded; a checkout without one (a ``git archive`` copy, say) is an
error before any run.

Pair i (1, 2, ...) runs ``bench/run.py --seconds 30 --trace 0 --seed
101*i`` once in each checkout for every workload that ``bench/run.py``
offers (its own WORKLOADS, in their order), the parent first in odd pairs
and the change first in even ones, so a drift of the host over the
session falls on both sides alike.  Every workload's pair i runs before
pair i + 1 starts, so a host state that lasts about as long as one
workload's runs cannot shift all of that workload's pairs.  Then each
side makes one ``--trace 1`` run per workload at ``--seed 11``.  Every
run's final JSON line is kept.

The summary gives, per workload and end-to-end metric, both sides'
medians, the parent's quartiles, the number of pairs in which the change
was lower (``change_lower_in``, "k/n"), the relative change of the
medians and a ``verdict``: ``lower`` when the change was lower in at
least WIN_SHARE of the pairs (9 or more of 10; a tie counts for neither
side) and its median lies below the parent's by more than the parent's
interquartile distance, ``higher`` when the same holds with the change
higher, ``unresolved`` otherwise.

Beside the timings, each workload's summary has a ``work`` entry: the
parent -> change value of every traced ``*.calls`` and ``*.unknowns``
count and of ``stepper.fp_iters_per_step`` and
``stepper.lag_iters_per_solve``, read from the ``--trace 1`` lines.
Unlike the timings, these counts repeat exactly from run to run, so a
move in them is a move in the work the code does; ``work["moved"]`` lists,
in order, the counts whose parent and change values differ.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction

SECONDS = 30
END_TO_END = ("run_s", "step_ms_p50", "setup_s", "peak_rss_mb")
TRACE_SEED = 11
# the traced work counts the summary compares beside the *.calls and *.unknowns counts
PER_STEP_COUNTS = ("stepper.fp_iters_per_step", "stepper.lag_iters_per_solve")
WIN_SHARE = Fraction(9, 10)  # share of the pairs a resolved move must win, exactly


def workloads(checkout):
    """The workloads of ``bench/run.py`` in ``checkout``, from its own WORKLOADS."""
    return subprocess.run(
        [sys.executable, "-B", "-c", "from run import WORKLOADS; print(*WORKLOADS)"],
        cwd=os.path.join(checkout, "bench"), capture_output=True, text=True,
        check=True).stdout.split()


def bench_line(checkout, workload, seed, trace):
    """The final JSON line of one ``bench/run.py`` run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def pair_order(i):
    """The sides of pair i (1-based) in the order they run."""
    return ("parent", "change") if i % 2 else ("change", "parent")


def verdict(parent_median, change_median, parent_quartiles, lower, higher, pairs):
    """``lower``, ``higher`` or ``unresolved``: the rule of the module
    docstring, for both medians, the parent's (q1, q3) and the numbers of
    the ``pairs`` in which the change was lower and higher."""
    q1, q3 = parent_quartiles
    if parent_median - change_median > q3 - q1 and lower >= WIN_SHARE * pairs:
        return "lower"
    if change_median - parent_median > q3 - q1 and higher >= WIN_SHARE * pairs:
        return "higher"
    return "unresolved"


def work_counts(sides):
    """{count: {"parent": value, "change": value}} for every ``*.calls``
    and ``*.unknowns`` metric and each of PER_STEP_COUNTS in the
    ``--trace 1`` lines ``sides`` ({"parent": line, "change": line}), and
    under "moved" the list of those counts whose two values differ."""
    parent, change = sides["parent"]["metrics"], sides["change"]["metrics"]
    work = {name: {"parent": parent[name]["value"], "change": change[name]["value"]}
            for name in parent if name in change
            and (name.endswith((".calls", ".unknowns")) or name in PER_STEP_COUNTS)}
    work["moved"] = [name for name, values in work.items() if values["parent"] != values["change"]]
    return work


def summarize(runs, trace=None):
    """Per workload and metric: medians, the parent's quartiles, the pairs
    (matched by seed) in which the change was lower, the relative change
    of the medians and the ``verdict``.  ``runs`` maps a workload to its
    list of {"side", "seed", "result"} entries.  With ``trace`` (a
    workload's {"parent": line, "change": line} of ``--trace 1`` lines),
    each workload also gets its ``work_counts`` under ``work``."""
    summary = {}
    for workload, entries in runs.items():
        by_seed = {}
        for entry in entries:
            by_seed.setdefault(entry["seed"], {})[entry["side"]] = entry["result"]["metrics"]
        pairs = [sides for sides in by_seed.values() if len(sides) == 2]
        summary[workload] = {}
        for name in END_TO_END:
            parent = [sides["parent"][name]["value"] for sides in pairs]
            change = [sides["change"][name]["value"] for sides in pairs]
            lower = sum(c < p for p, c in zip(parent, change))
            higher = sum(c > p for p, c in zip(parent, change))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) >= 2 else (p_med,) * 3
            summary[workload][name] = {
                "parent_median": p_med,
                "change_median": c_med,
                "parent_quartiles": [q1, q3],
                "change_lower_in": f"{lower}/{len(pairs)}",
                "relative_change": c_med / p_med - 1.0,
                "verdict": verdict(p_med, c_med, (q1, q3), lower, higher, len(pairs)),
            }
        if trace is not None:
            summary[workload]["work"] = work_counts(trace[workload])
    return summary


def git_head(checkout):
    """The commit id of ``checkout``; SystemExit naming it if it has none."""
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        raise SystemExit(f"{checkout}: no git commit id ({exc}); make the checkout with "
                         "`git worktree add --detach`") from None


def host():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    commits = {side: git_head(path) for side, path in checkouts.items()}
    names = workloads(args.change)

    runs = {w: [] for w in names}
    for i in range(1, args.pairs + 1):
        for workload in names:
            for side in pair_order(i):
                result = bench_line(checkouts[side], workload, 101 * i, 0)
                runs[workload].append({"side": side, "seed": 101 * i, "result": result})
                print(workload, i, side, result["metrics"]["run_s"]["value"], flush=True)
    trace = {w: {side: bench_line(checkouts[side], w, TRACE_SEED, 1)
                 for side in ("parent", "change")} for w in names}
    report = {
        "about": (f"bench/run.py --seconds {SECONDS}: the final JSON line of every run, "
                  "parent and change alternated in pairs on one host (which side ran first "
                  "alternates from pair to pair; pair i uses --seed 101*i and runs every "
                  "workload before pair i + 1 starts), then one --trace 1 "
                  f"line per side and workload at --seed {TRACE_SEED}. 'summary' gives each "
                  "end-to-end metric's medians, the parent's quartiles, the number of pairs "
                  "in which the change was lower and a verdict: 'lower' (or 'higher') when "
                  f"the change was lower (higher) in at least {float(WIN_SHARE):.0%} of the "
                  "pairs, a tie counting for neither side, and the medians differ by more "
                  "than the parent's interquartile distance, 'unresolved' otherwise. Each "
                  "workload's 'work' gives the parent and change values of the --trace 1 "
                  "lines' *.calls and *.unknowns counts and of "
                  f"{' and '.join(PER_STEP_COUNTS)}, which repeat exactly from run to run, "
                  "and under 'moved' the names of those whose two values differ."),
        "host": host(),
        "parent": commits["parent"],
        "change": commits["change"],
        "runs": runs,
        "summary": summarize(runs, trace),
        "trace": trace,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
