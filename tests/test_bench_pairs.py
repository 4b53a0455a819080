"""``scripts/bench_pairs.py``: its summary on synthetic result lines (no
benchmark run), and the workload list it takes from ``bench/run.py``."""
import importlib.util
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


def test_workloads_come_from_the_benchmark(bench_pairs):
    assert "mms-column" in bench_pairs.workloads(SCRIPT.parents[1])
