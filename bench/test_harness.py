"""Self-tests of the benchmark harness (not part of the package's suite).

    python3 -m pytest bench
"""
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from tracer import Tracer, _package_modules, self_times  # noqa: E402
import workload  # noqa: E402

workload.import_package()

# short runs: enough steps to reach every layer of each workload
SHORT_T_END = {"decay-k1": 0.01, "rough-mass-diag": 0.005, "mms-column": 0.02}


def _bindings():
    from stefansim.oracles import ManufacturedProblem
    table = {(m.__name__, k): v for m in _package_modules() for k, v in vars(m).items()}
    table[("ManufacturedProblem", "at")] = ManufacturedProblem.__dict__["at"]
    return table


def _traced_counts(name, tmp_path, tag):
    wl, _ = workload.build(name, seed=7, root=ROOT, t_end=SHORT_T_END[name])
    out = tmp_path / tag
    out.mkdir()
    tracer = Tracer(run_id=7)
    run = workload.execute(wl, str(out), tracer)
    layers = workload.layer_metrics(tracer)
    layers["io.bytes"] = (run["io_bytes"], "B")
    return {k: v for k, (v, unit) in layers.items() if unit != "s"}


def test_self_time_nested_tree():
    spans = [
        ("A", 0.0, 10.0, -1, 0),
        ("B", 1.0, 4.0, 0, 0),
        ("C", 2.0, 3.0, 1, 0),
        ("D", 5.0, 9.0, 0, 0),
        ("C", 6.0, 7.0, 3, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"A": 3.0, "B": 2.0, "C": 2.0, "D": 3.0})


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        ("P", 0.0, 10.0, -1, 0),
        ("X", 1.0, 5.0, 0, 0),
        ("X", 3.0, 7.0, 0, 0),
        ("X", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)["P"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_manual_spans_nest_and_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, o0, o1, o_parent, _), = [s for s in tracer.spans if s[0] == "outer"]
    (inner, i0, i1, i_parent, _), = [s for s in tracer.spans if s[0] == "inner"]
    assert o_parent == -1 and i_parent == 0
    assert o0 <= i0 <= i1 <= o1
    assert tracer.counts["outer.calls"] == tracer.counts["inner.calls"] == 1


@pytest.mark.parametrize("name", ["decay-k1", "mms-column"])
def test_wrappers_removed_after_traced_run(name, tmp_path):
    before = _bindings()
    wl, _ = workload.build(name, seed=3, root=ROOT, t_end=SHORT_T_END[name])
    (tmp_path / "traced").mkdir()
    (tmp_path / "plain").mkdir()
    tracer = Tracer()
    workload.execute(wl, str(tmp_path / "traced"), tracer)
    recorded = len(tracer.spans)
    assert recorded > 0
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    # an untraced run afterwards reaches none of the tracer's wrappers
    workload.execute(wl, str(tmp_path / "plain"))
    assert len(tracer.spans) == recorded


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_count_metrics_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path, "a")
    second = _traced_counts(name, tmp_path, "b")
    assert first == second
    assert first["stepper.fixed_point_step.calls"] > 0
    assert first["stepper.bulk_solve.unknowns"] > 0


def test_every_layer_is_reached_on_some_workload(tmp_path):
    reached = set()
    for name in workload.WORKLOADS:
        counts = _traced_counts(name, tmp_path, name)
        reached |= {k for k, v in counts.items() if k.endswith(".calls") and v > 0}
    expected = {f"{layer}.calls" for layer in workload.SPAN_LAYERS}
    assert expected - reached == set()
