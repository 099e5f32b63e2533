#!/usr/bin/env python3
"""Self-test of the repo benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that
  1. every metric name matches [A-Za-z0-9_.-]+, is unique, carries a unit,
     and BENCHMARK.json lists the same names and units;
  2. the span-report parser and the self-time / unattributed arithmetic agree
     with a hand-made Chrome trace;
  3. a farm variant made to fail with --fault=variant_run:<i>:throw counts as
     1 failed of N attempted runs (builds the benchmark first).
The fault is armed only here, never in a measured run.
"""

import json
import os
import re
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_names(root):
    metrics = run.END_TO_END + run.PER_LAYER
    names = [n for n, _ in metrics]
    check(all(run.NAME_RE.match(n) and len(n) <= 64 for n in names), "metric names are well formed")
    check(len(set(names)) == len(names), "metric names are unique")
    check(all(UNIT_RE.match(u) for _, u in metrics), "every metric carries a unit")
    check(all(run.NAME_RE.match(w) for w in run.WORKLOADS), "workload names are well formed")
    path = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(path):
        with open(path) as f:
            doc = json.load(f)
        listed = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
        check(listed == dict(metrics), "BENCHMARK.json lists the emitted names and units")
        check(sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS),
              "BENCHMARK.json lists the benchmark's workloads")


def test_span_report():
    # Two threads. Times in microseconds.
    #   sim:    driver.barrier [0,100] > gemm.sgemm [10,30]
    #           loop.aggregate [150,200] > gemm.sgemm [160,170]
    #   lane-0: worker.local_update [0,80] > gemm.sgemm [5,45] > conv.forward [10,20]
    events = [
        {"ph": "M", "name": "thread_name", "tid": 1, "args": {"name": "sim"}},
        {"ph": "M", "name": "thread_name", "tid": 2, "args": {"name": "lane-0"}},
        {"ph": "X", "tid": 1, "name": "driver.barrier", "ts": 0, "dur": 100},
        {"ph": "X", "tid": 1, "name": "gemm.sgemm", "ts": 10, "dur": 20},
        {"ph": "X", "tid": 1, "name": "loop.aggregate", "ts": 150, "dur": 50},
        {"ph": "X", "tid": 1, "name": "gemm.sgemm", "ts": 160, "dur": 10},
        {"ph": "i", "tid": 1, "name": "eventq.pop", "ts": 120},
        {"ph": "X", "tid": 2, "name": "worker.local_update", "ts": 0, "dur": 80},
        {"ph": "X", "tid": 2, "name": "gemm.sgemm", "ts": 5, "dur": 40},
        {"ph": "X", "tid": 2, "name": "conv.forward", "ts": 10, "dur": 10},
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)
        stats, covered = run.span_report(*run.load_trace(path))
    us = 1e-6
    check(stats["gemm.sgemm"]["count"] == 3, "span count")
    check(close(stats["gemm.sgemm"]["total_s"], 70 * us), "span total time")
    check(close(stats["gemm.sgemm"]["self_s"], 60 * us), "self time excludes nested spans")
    check(close(stats["driver.barrier"]["self_s"], 80 * us), "self time of a parent")
    check(close(stats["worker.local_update"]["self_s"], 40 * us),
          "self time subtracts direct children only")
    check(close(covered, 150 * us), "sim-thread coverage is the union of top-level spans")
    check(run.percentile([4, 1, 3, 2], 50) == 2 and run.percentile([4, 1, 3, 2], 99) == 4,
          "nearest-rank percentiles")

    # A 250 us Mechanism::run on the sim thread: 150 us covered -> 0.4.
    traced = {"runs": [{"key": "v/m", "run_s": 250 * us, "metrics": {"counters": {
        "pool.lanes": 2, "pool.busy_ns": 100000}}}],
        "wall_s": 1.1, "variants": 1, "out_bytes": 0, "dropped": 0}
    m = run.per_layer_metrics(traced, {"build_s": 0.0}, [{"wall_s": 1.0}], stats, covered, {}, 1)
    check(close(m["obs.unattributed_frac"], 0.4), "unattributed share of Mechanism::run")
    check(close(m["obs.trace_overhead_frac"], 0.1), "trace overhead share")
    check(close(m["util.pool_busy_frac"], 0.2), "pool busy share of lanes x run time")
    check(close(m["ml.gemm_self_s"], 60 * us) and m["fl.aggregations"] == 1,
          "per-layer metrics read the span report")


def test_fault(root):
    paths, _ = run.build(root)
    work = os.path.join(root, ".bench_runs", "selftest-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        schema = run.spec_schema(paths["cli"])
        src = os.path.join(run.WORKLOAD_DIR, "farm_studies", "seed_robustness_study.json")
        with open(src) as f:
            spec = run.seeded(json.load(f), 0, schema)
        os.makedirs(os.path.join(work, "specs"))
        files = [os.path.join(work, "specs", "seed_robustness_study.json")]
        with open(files[0], "w") as f:
            json.dump(spec, f)
        deadline = time.monotonic() + 120
        setup = run.setup_pass(paths, files, work, "setup", deadline)
        p = run.farm_pass(paths, files, work, "fault", deadline, setup["runs"], 2,
                          extra=["--fault=variant_run:1:throw"])
        attempted, failed, _ = run.check_runs([p])
        check(attempted == len(setup["runs"]) == 3 and failed == 1,
              "a thrown variant counts as 1 failed of %d (got %d of %d)"
              % (len(setup["runs"]), failed, attempted))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def main():
    root = os.getcwd()
    test_names(root)
    test_span_report()
    test_fault(root)
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
