"""``scripts/bench_pairs.py``: its summary on synthetic result lines and
the order of its runs (no benchmark run), and the workload list it takes
from ``bench/run.py``."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(run_s, rss):
    return {"correct": True, "attempted": 80, "failed": 0,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "step_ms_p50": {"value": 20.0, "unit": "ms"},
                        "setup_s": {"value": 0.25, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_pairs_alternate_which_side_runs_first(bench_pairs):
    assert [bench_pairs.pair_order(i) for i in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_matches_pairs_by_seed(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0]  # lower in pairs 1, 3, 4 and 5
    runs = {"mms-column": []}
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        seed = 101 * i
        sides = {"parent": line(p, 60.0), "change": line(c, 60.0 + i)}
        for side in bench_pairs.pair_order(i):
            runs["mms-column"].append({"side": side, "seed": seed, "result": sides[side]})
    runs["mms-column"].append({"side": "parent", "seed": 999, "result": line(100.0, 60.0)})

    summary = bench_pairs.summarize(runs)["mms-column"]
    assert set(summary) == set(bench_pairs.END_TO_END)
    run_s = summary["run_s"]
    assert run_s["parent_median"] == 3.0 and run_s["change_median"] == 2.5
    assert run_s["parent_quartiles"] == [1.5, 4.5]  # the exclusive method
    assert run_s["change_lower_in"] == "4/5"  # the unpaired seed 999 is left out
    assert run_s["relative_change"] == pytest.approx(2.5 / 3.0 - 1.0)
    rss = summary["peak_rss_mb"]
    assert rss["change_lower_in"] == "0/5" and rss["change_median"] == 63.0
    assert rss["parent_quartiles"] == [60.0, 60.0] and rss["relative_change"] == pytest.approx(0.05)


def traced(values):
    """A --trace 1 line with the given metric values."""
    return {"correct": True, "attempted": 500, "failed": 0,
            "metrics": {name: {"value": value, "unit": "count"} for name, value in values.items()}}


def test_summary_gives_the_exact_work_counts_of_the_traced_lines(bench_pairs):
    # every *.calls and *.unknowns count and the two per-step counts, parent
    # -> change, from the --trace 1 lines; timings and other layers are left out
    common = {"import_s": 0.2, "stepper.bulk_solve.self_s": 0.1, "trace.spans": 9906}
    parent = traced({**common, "stepper.bulk_solve.calls": 1615,
                     "stepper.bulk_solve.unknowns": 3464175, "transform.coefficients.calls": 1029,
                     "stepper.fp_iters_per_step": 2.058, "stepper.lag_iters_per_solve": 1.0836})
    change = traced({**common, "stepper.bulk_solve.calls": 1115,
                     "stepper.bulk_solve.unknowns": 2391675, "transform.coefficients.calls": 1029,
                     "stepper.fp_iters_per_step": 2.058, "stepper.lag_iters_per_solve": 1.0826})
    runs = paired_runs(bench_pairs, PARENT[:2], PARENT[:2])
    summary = bench_pairs.summarize(runs, {"mms-column": {"parent": parent, "change": change}})
    assert summary["mms-column"]["work"] == {
        "stepper.bulk_solve.calls": {"parent": 1615, "change": 1115},
        "stepper.bulk_solve.unknowns": {"parent": 3464175, "change": 2391675},
        "transform.coefficients.calls": {"parent": 1029, "change": 1029},
        "stepper.fp_iters_per_step": {"parent": 2.058, "change": 2.058},
        "stepper.lag_iters_per_solve": {"parent": 1.0836, "change": 1.0826},
        "moved": ["stepper.bulk_solve.calls", "stepper.bulk_solve.unknowns",
                  "stepper.lag_iters_per_solve"],
    }
    assert set(summary["mms-column"]) == set(bench_pairs.END_TO_END) | {"work"}


def test_summary_names_the_work_counts_that_moved(bench_pairs):
    # a layout that doubles the unknowns of the same solves and a roundoff
    # move of the lag iterations are named; equal counts, timings and
    # per-layer times are not, whatever their values
    common = {"stepper.bulk_solve.calls": 785, "stepper.fp_iters_per_step": 5.05,
              "stepper.interior_operator.calls": 986}
    parent = traced({**common, "stepper.bulk_solve.unknowns": 3429665,
                     "stepper.lag_iters_per_solve": 3.881, "stepper.bulk_solve.self_s": 0.1})
    change = traced({**common, "stepper.bulk_solve.unknowns": 6859330,
                     "stepper.lag_iters_per_solve": 4.089, "stepper.bulk_solve.self_s": 0.2})
    runs = paired_runs(bench_pairs, PARENT[:2], PARENT[:2])
    work = bench_pairs.summarize(runs, {"mms-column": {"parent": parent, "change": change}})[
        "mms-column"]["work"]
    assert work["moved"] == ["stepper.bulk_solve.unknowns", "stepper.lag_iters_per_solve"]
    same = bench_pairs.summarize(runs, {"mms-column": {"parent": parent, "change": parent}})
    assert same["mms-column"]["work"]["moved"] == []


def paired_runs(bench_pairs, parent, change):
    """{"mms-column": entries} of pairs i = 1, 2, ... with the given run_s."""
    entries = []
    for i, (p, c) in enumerate(zip(parent, change, strict=True), start=1):
        sides = {"parent": line(p, 60.0), "change": line(c, 60.0)}
        entries += [{"side": side, "seed": 101 * i, "result": sides[side]}
                    for side in bench_pairs.pair_order(i)]
    return {"mms-column": entries}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.98, 1.02


@pytest.mark.parametrize("change, lower_in, want", [
    # median 0.92 below q1, change lower in 10/10
    ([0.92] * 10, "10/10", "lower"),
    # median 0.90 lies 0.10 below, but the change is lower in only 8/10
    ([0.90] * 8 + [1.10] * 2, "8/10", "unresolved"),
    # median below q1, but lower in only 7/10
    ([0.90] * 7 + [1.10] * 3, "7/10", "unresolved"),
    # lower in 10/10, but the median 0.995 lies inside the quartiles
    ([p - 0.005 for p in PARENT], "10/10", "unresolved"),
    # median 1.10 lies 0.10 above, but the change is higher in only 8/10
    ([0.90] * 2 + [1.10] * 8, "2/10", "unresolved"),
    # median above q3, but lower in 3/10
    ([0.90] * 3 + [1.10] * 7, "3/10", "unresolved"),
    # the same code on both sides
    (PARENT, "0/10", "unresolved"),
    # lower in 10/10 and the median 0.965 below q1, but only 0.035 below
    # the parent's median: inside the interquartile distance 0.04
    ([0.965] * 10, "10/10", "unresolved"),
    # median 1.10, higher in 10/10
    ([1.10] * 10, "0/10", "higher"),
    # median 1.10, higher in 8/10 and tied in 2: a tie counts for neither side
    ([1.10] * 8 + PARENT[8:], "0/10", "unresolved"),
])
def test_summary_verdict_needs_the_quartiles_and_the_pairs(bench_pairs, change, lower_in, want):
    run_s = bench_pairs.summarize(paired_runs(bench_pairs, PARENT, change))["mms-column"]["run_s"]
    assert run_s["parent_quartiles"] == pytest.approx([0.98, 1.02])
    assert run_s["change_lower_in"] == lower_in
    assert run_s["verdict"] == want


def test_workloads_come_from_the_benchmark(bench_pairs):
    assert "mms-column" in bench_pairs.workloads(SCRIPT.parents[1], "run")


def test_a_checkout_without_a_commit_id_stops_before_any_run(bench_pairs, tmp_path,
                                                             monkeypatch):
    # the parent is a plain directory (a git archive copy, say): no commit
    # id, so the script stops before it lists workloads or runs a benchmark
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    parent = tmp_path / "parent"
    parent.mkdir()
    commands, real_run = [], bench_pairs.subprocess.run

    def recording_run(cmd, *args, **kwargs):
        commands.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(bench_pairs.subprocess, "run", recording_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match=str(parent)):
        bench_pairs.main(["--parent", str(parent), "--change", str(SCRIPT.parents[1]),
                          "--pairs", "1", "--out", str(out)])
    assert commands and all(cmd[0] == "git" for cmd in commands)
    assert not out.exists()


def test_each_pair_runs_every_workload_before_the_next_pair(bench_pairs, tmp_path, monkeypatch):
    # a host state that lasts one block of runs must not shift all of one
    # workload's pairs: pair i runs every workload, both sides, before pair i + 1
    calls = []

    def fake_bench_line(checkout, workload, seed, trace):
        calls.append((checkout, workload, seed, trace))
        return line(1.0, 60.0)

    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: f"id-{checkout}")
    monkeypatch.setattr(bench_pairs, "workloads", lambda checkout, module: ["w1", "w2"])
    monkeypatch.setattr(bench_pairs, "bench_line", fake_bench_line)
    monkeypatch.setattr(bench_pairs, "host", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", "P", "--change", "C", "--pairs", "2", "--out", str(out)])

    assert calls == [
        ("P", "w1", 101, 0), ("C", "w1", 101, 0), ("P", "w2", 101, 0), ("C", "w2", 101, 0),
        ("C", "w1", 202, 0), ("P", "w1", 202, 0), ("C", "w2", 202, 0), ("P", "w2", 202, 0),
        ("P", "w1", 11, 1), ("C", "w1", 11, 1), ("P", "w2", 11, 1), ("C", "w2", 11, 1)]
    report = json.loads(out.read_text())
    assert [(e["side"], e["seed"]) for e in report["runs"]["w1"]] == [
        ("parent", 101), ("change", 101), ("change", 202), ("parent", 202)]
    assert set(report["summary"]) == {"w1", "w2"}
    assert report["summary"]["w2"]["run_s"]["change_lower_in"] == "0/2"
    assert report["summary"]["w2"]["work"] == {"moved": []}  # the stand-in lines trace no counts
