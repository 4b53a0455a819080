"""Benchmark entry point: time-to-solution and per-layer cost of the stepper
and diagnostics on three workloads.

    python3 bench/run.py --workload decay-k1 --seed 1 --seconds 30 --trace 0

Each round is one fresh process (``bench/workload.py``) that imports the
package from ``src/``, sets up the workload, runs it to its end, writes its
artifacts and checks them.  The number of rounds follows from ``--seconds``
and each workload's nominal round cost, so every run repeats whole rounds
of the same work.  Extra set-up-only processes bring the set-up samples of
a run to SETUP_SAMPLES.  With ``--trace 1`` the run makes one untraced and
one traced round and prints the per-layer metrics instead.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from calibrate import NUMERIC_REFERENCE_S, PYTHON_REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "workload.py")

WORKLOADS = ("decay-k1", "rough-mass-diag", "mms-column")
# approximate seconds per untraced round on a 2-core host
NOMINAL_ROUND_S = {"decay-k1": 14.0, "rough-mass-diag": 15.0, "mms-column": 15.0}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


class Setup(NamedTuple):
    wall_s: float
    scaled_s: float


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit_id(root):
    """HEAD commit read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


class Rounds:
    """Launches rounds one after another under a common deadline."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"deadline of {DEADLINE_S:.0f} s exceeded")
        return left

    def launch(self, trace=0, setup_only=False):
        """Run one worker process; returns (Setup, report or None)."""
        out_dir = tempfile.mkdtemp(prefix="round-", dir=OUT_ROOT)
        cmd = [sys.executable, WORKER, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--root", ROOT, "--out", out_dir,
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, text=True)
            try:
                first = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                rest, _ = proc.communicate(timeout=self._remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("round exceeded the deadline") from None
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            ready = first.split()
            if proc.returncode != 0 or len(ready) != 3 or ready[0] != "READY":
                raise BenchError(f"worker exited with code {proc.returncode}")
            # leave the two reference-kernel runs out and scale to reference speed
            before, after = float(ready[1]), float(ready[2])
            setup_s = Setup(setup_s - before - after,
                            (setup_s - before - after) * PYTHON_REFERENCE_S / ((before + after) / 2))
            if setup_only:
                return setup_s, None
            result = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
            if not result:
                raise BenchError("worker printed no RESULT line")
            report = json.loads(result[-1][len("RESULT "):])
            spans = os.path.join(out_dir, "spans.csv")
            if os.path.exists(spans):
                os.replace(spans, os.path.join(OUT_ROOT, f"spans-{self.args.workload}.csv"))
            return setup_s, report
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stefansim", "__init__.py")):
        print(f"bench: no stefansim sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)

    import numpy
    import scipy
    print("# env " + json.dumps({
        "nproc": nproc(), "threads_cap": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit_id(ROOT),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace}), flush=True)

    rounds = Rounds(args)
    plan = [1, 0] if args.trace else \
        [0] * max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    try:
        setups = []
        for _ in range(max(0, SETUP_SAMPLES - len(plan)) if not args.trace else 0):
            setups.append(rounds.launch(setup_only=True)[0])
        reports = []
        for trace in plan:
            setup_s, report = rounds.launch(trace=trace)
            setups.append(setup_s)
            reports.append(report)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    correct = True
    for i, rep in enumerate(reports):
        for name, ok, detail in rep["checks"]:
            correct = correct and ok
            print(f"# round {i} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)

    median = statistics.median
    kernels = [k for r in reports for k in r["kernel_s"]]
    print(f"# host speed: reference kernel median {1e3 * median(kernels):.3f} ms over "
          f"{len(kernels)} runs (reference {1e3 * NUMERIC_REFERENCE_S:.3f} ms)")
    if args.trace:
        traced, untraced = reports
        metrics = {name: metric(value, unit) for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = metric(traced["run_s"] - untraced["run_s"], "s")
    else:
        steps = [s for r in reports for s in r["step_s"]]
        metrics = {
            "run_s": metric(median(r["run_s"] for r in reports), "s"),
            "step_ms_p50": metric(1e3 * median(steps), "ms"),
            "setup_s": metric(median(s.scaled_s for s in setups), "s"),
            "peak_rss_mb": metric(median(r["peak_rss_mb"] for r in reports), "MB"),
        }
        wall_steps = [s for r in reports for s in r["step_wall_s"]]
        print(f"# samples: {len(reports)} rounds, {len(steps)} step intervals, "
              f"{len(setups)} set-ups")
        print(f"# wall (unscaled): run_s {median(r['run_wall_s'] for r in reports):.4f}, "
              f"step_ms_p50 {1e3 * median(wall_steps):.4f}, "
              f"setup_s {median(s.wall_s for s in setups):.4f}; rounds run_s scaled/wall: "
              + ", ".join(f"{r['run_s']:.3f}/{r['run_wall_s']:.3f}" for r in reports))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
