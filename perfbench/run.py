#!/usr/bin/env python3
"""Repo benchmark of the Air-FedGA simulator (documented in perfbench/README.md).

    python3 perfbench/run.py --workload fig05_cnn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the simulator library,
airfedga_cli and the benchmark's own harness/probes (perfbench/CMakeLists.txt)
into .bench_build/, writes the workload's specs with the seed, then:

  1. one traced pass: the reference digests, the local-update count and the
     per-layer span report;
  2. untraced passes, each in its own process, until --seconds have passed
     (at least MIN_PASSES): the end-to-end metrics are their medians;
  3. with --trace 1, the single-threaded layer probes.

Every mechanism run of every pass is checked: it fails if it throws, ends
with a non-finite loss or accuracy, is quarantined by the farm, or its
digest differs from the other runs of the same variant and mechanism. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import glob
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Untraced passes per run, at least; more are made while --seconds allow.
MIN_PASSES = 3
# A run must end within 180 s of its start (after the build).
RUN_DEADLINE_S = 170.0

# name -> how the workload is run. "harness" workloads run in-process through
# perfbench_harness (scenario::build + Mechanism::run timed per call);
# "farm" workloads go through `airfedga_cli run-dir` (the crash-safe farm),
# with scenario::build timed by separate `perfbench_harness setup` passes.
WORKLOADS = {
    "fig05_cnn": {"kind": "harness", "specs": ["fig05_cnn.json"]},
    "population_1e6": {"kind": "harness", "specs": ["population_1e6.json"]},
    "farm_studies": {"kind": "farm", "specs": ["farm_studies/*.json"], "jobs": 2},
}

# Spec knobs the roadmap plans to delete once their alternative is the only
# choice. A workload sets them only while the spec schema (as printed by
# `airfedga_cli dump`) still has them, so it runs unchanged afterwards.
OPTIONAL_KNOBS = [("run", "worker_state"), ("run", "event_queue")]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [
    ("scenario.build_s", "s"),
    ("scenario.variants", "count"),
    ("scenario.farm_other_s", "s"),
    ("scenario.out_bytes", "bytes"),
    ("data.generate_s", "s"),
    ("data.partition_s", "s"),
    ("ml.gemm_self_s", "s"),
    ("ml.gemm_calls", "count"),
    ("ml.conv_forward_self_s", "s"),
    ("ml.conv_backward_self_s", "s"),
    ("ml.train_step_ms", "ms"),
    ("fl.run_s", "s"),
    ("fl.local_updates", "count"),
    ("fl.local_update_self_s", "s"),
    ("fl.local_update_ms_p50", "ms"),
    ("fl.local_update_ms_p99", "ms"),
    ("fl.barrier_wait_s", "s"),
    ("fl.eval_s", "s"),
    ("fl.evals", "count"),
    ("fl.aggregations", "count"),
    ("fl.aggregate_self_s", "s"),
    ("fl.aggregate_ms_p50", "ms"),
    ("fl.aggregate_ms_p75", "ms"),
    ("fl.warm_hits", "count"),
    ("fl.cold_replays", "count"),
    ("util.pool_tasks", "count"),
    ("util.pool_busy_frac", "ratio"),
    ("util.cohort_sample_ms", "ms"),
    ("channel.gains_ms", "ms"),
    ("channel.aircomp_ms", "ms"),
    ("core.grouping_ms", "ms"),
    ("core.power_control_us", "us"),
    ("sim.eventq_pops", "count"),
    ("sim.eventq_pending_max", "count"),
    ("sim.substrate_dropouts", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.unattributed_frac", "ratio"),
    ("obs.dropped_events", "count"),
]

PROBES = ["data", "ml", "util", "channel", "core"]


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build failure...)."""


# ----------------------------------------------------------------- build --

def build(root):
    """Builds harness, CLI and probes; returns (paths, available probe names)."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("no simulator sources (CMakeLists.txt, src/) in " + root)
    bdir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))

    def cmake(args):
        with open(log_path, "a") as log:
            return subprocess.call(["cmake"] + args, stdout=log, stderr=subprocess.STDOUT)

    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if cmake(["-S", BENCH_DIR, "-B", bdir, "-G", "Unix Makefiles",
                  "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            raise BenchError("cmake configure failed; see " + log_path)
    if cmake(["--build", bdir, "-j", jobs, "--target", "perfbench_harness", "airfedga_cli"]) != 0:
        raise BenchError("build failed; see " + log_path)
    probes = [p for p in PROBES
              if cmake(["--build", bdir, "-j", jobs, "--target", "probe_" + p]) == 0]
    paths = {
        "harness": os.path.join(bdir, "perfbench_harness"),
        "cli": os.path.join(bdir, "airfedga", "airfedga_cli"),
    }
    for p in probes:
        paths["probe_" + p] = os.path.join(bdir, "probe_" + p)
    return paths, probes


# ----------------------------------------------------------------- specs --

def spec_schema(cli):
    """The (section, key) pairs the spec schema has, from a dumped preset."""
    first = subprocess.run([cli, "list"], capture_output=True, text=True, check=True)
    for line in first.stdout.splitlines():
        name = line.split()[0] if line.split() else ""
        dumped = subprocess.run([cli, "dump", name], capture_output=True, text=True)
        if dumped.returncode == 0:
            spec = json.loads(dumped.stdout)
            return {(section, key) for section in spec if isinstance(spec[section], dict)
                    for key in spec[section]}
    raise BenchError("airfedga_cli dump printed no preset")


def seeded(spec, seed, schema):
    """The spec with every seed offset by the workload seed (seed 0 keeps the
    checked-in values) and the optional knobs the schema lacks removed."""
    spec = json.loads(json.dumps(spec))
    run = spec.setdefault("run", {})
    run["seed"] = run.get("seed", 42) + seed
    dataset = spec.setdefault("dataset", {})
    dataset["seed"] = dataset.get("seed", 1) + seed
    for path in ("run.seed", "dataset.seed"):
        if path in spec.get("sweeps", {}):
            spec["sweeps"][path] = [v + seed for v in spec["sweeps"][path]]
    for section, key in OPTIONAL_KNOBS:
        if (section, key) not in schema:
            spec.get(section, {}).pop(key, None)
    return spec


def write_specs(workload, seed, schema, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for pattern in WORKLOADS[workload]["specs"]:
        for src in sorted(glob.glob(os.path.join(WORKLOAD_DIR, pattern))):
            with open(src) as f:
                spec = seeded(json.load(f), seed, schema)
            dst = os.path.join(out_dir, os.path.basename(src))
            with open(dst, "w") as f:
                json.dump(spec, f, indent=1)
            files.append(dst)
    return files


# ---------------------------------------------------------------- passes --

def run_child(cmd, log_prefix, deadline):
    """Runs cmd to completion; returns (exit code, stdout, wall s, peak RSS MiB).
    The child is killed at `deadline` (time.monotonic()). A child that fails
    has the tail of its stderr echoed to ours."""
    t0 = time.perf_counter()
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_prefix + ".out") as f:
        stdout = f.read()
    if proc.returncode != 0:
        with open(log_prefix + ".err") as f:
            sys.stderr.write(f.read()[-2000:])
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def harness_pass(paths, files, work, tag, deadline, trace_path=None):
    cmd = [paths["harness"], "run"] + (["--trace=" + trace_path] if trace_path else []) + files
    code, stdout, wall, rss = run_child(cmd, os.path.join(work, tag), deadline)
    out = last_json(stdout) if code == 0 else None
    if out is None:
        raise BenchError("harness pass %s failed (exit %d)" % (tag, code))
    runs = [dict(r, key=r["variant"] + "/" + r["mechanism"]) for r in out["runs"]]
    return {"wall_s": wall, "rss_mib": rss, "build_s": out["build_s"], "runs": runs,
            "variants": out["variants"], "dropped": out["dropped_events"], "out_bytes": 0}


def setup_pass(paths, files, work, tag, deadline):
    code, stdout, _, _ = run_child([paths["harness"], "setup"] + files,
                                   os.path.join(work, tag), deadline)
    out = last_json(stdout) if code == 0 else None
    if out is None:
        raise BenchError("setup pass %s failed (exit %d)" % (tag, code))
    return out


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def farm_pass(paths, files, work, tag, deadline, expected, jobs, trace_path=None, extra=()):
    """One `airfedga_cli run-dir` batch over the study files. `expected` is the
    setup pass's runs[]; a run without a record (quarantined variant) fails."""
    study_dir = os.path.dirname(files[0])
    out_dir = os.path.join(work, tag + "_out")
    cmd = [paths["cli"], "run-dir", study_dir, "--jobs=%d" % jobs, "--threads=1",
           "--out=" + out_dir, "--no-progress"] + list(extra)
    if trace_path:
        cmd.append("--trace=" + trace_path)
    code, stdout, wall, rss = run_child(cmd, os.path.join(work, tag), deadline)
    if code not in (0, 3):  # 3 = some variants quarantined
        raise BenchError("farm pass %s failed (exit %d)" % (tag, code))
    records = {}
    with open(os.path.join(out_dir, "results.jsonl")) as f:
        for line in f:
            r = json.loads(line)
            records[r["scenario"] + "/" + r["mechanism"]] = r
    runs = []
    for e in expected:
        key = e["variant"] + "/" + e["mechanism"]
        r = records.get(key)
        if r is None:
            runs.append({"key": key, "error": "no record (variant quarantined)"})
        else:
            runs.append({"key": key, "digest": r["digest"], "run_s": r["wall_seconds"],
                         "final_loss": r["final_loss"], "final_accuracy": r["final_accuracy"],
                         "metrics": r.get("metrics", {})})
    m = re.search(r"\((\d+) events dropped", stdout)
    return {"wall_s": wall, "rss_mib": rss, "runs": runs, "dropped": int(m.group(1)) if m else 0,
            "out_bytes": dir_bytes(out_dir), "variants": len({e["variant"] for e in expected})}


# --------------------------------------------------------------- checking --

def check_runs(passes):
    """Marks failed runs in place; returns (attempted, failed, digests) where
    digests maps each run key to its reference digest."""
    by_key = {}
    for p in passes:
        for r in p["runs"]:
            if "digest" in r:
                by_key.setdefault(r["key"], []).append(r["digest"])
    reference = {}
    for key, ds in by_key.items():
        # The most common digest; the traced pass (first) breaks ties.
        reference[key] = max(ds, key=lambda d: (ds.count(d), d == ds[0]))
    attempted = failed = 0
    for p in passes:
        for r in p["runs"]:
            attempted += 1
            if "error" not in r:
                if not all(isinstance(r.get(k), (int, float)) and math.isfinite(r[k])
                           for k in ("final_loss", "final_accuracy")):
                    r["error"] = "non-finite loss or accuracy"
                elif r["digest"] != reference[r["key"]]:
                    r["error"] = "digest %s differs from %s" % (r["digest"], reference[r["key"]])
            failed += "error" in r
    return attempted, failed, reference


# ------------------------------------------------------------ span report --

def load_trace(path):
    """Chrome trace-event JSON -> (spans, thread names). A span is
    (tid, name, begin_us, dur_us)."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    names = {e["tid"]: e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    spans = [(e["tid"], e["name"], float(e["ts"]), float(e.get("dur", 0.0)))
             for e in events if e.get("ph") == "X"]
    return spans, names


def span_report(spans, names, sim_thread="sim"):
    """Per span name: count, total_s, self_s and the span durations (ms).
    Self time excludes the time of spans nested inside it on the same thread.
    Also returns covered_s: the time sim-thread spans cover (their union)."""
    stats = {}
    covered_us = 0.0
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s[0], []).append(s)
    for tid, ts in by_tid.items():
        ts.sort(key=lambda s: (s[2], -s[3]))
        stack = []  # [end_us, stat entry]
        top_end = None
        for _, name, begin, dur in ts:
            end = begin + dur
            while stack and stack[-1][0] <= begin:
                stack.pop()
            st = stats.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "durs_ms": []})
            st["count"] += 1
            st["total_s"] += dur * 1e-6
            st["self_s"] += dur * 1e-6
            st["durs_ms"].append(dur * 1e-3)
            if stack:
                parent = stack[-1]
                parent[1]["self_s"] -= (min(end, parent[0]) - begin) * 1e-6
            elif names.get(tid) == sim_thread:
                # Top-level span of a sim thread: add what it adds to the union.
                start = begin if top_end is None else max(begin, top_end)
                if end > start:
                    covered_us += end - start
                top_end = end if top_end is None else max(top_end, end)
            stack.append([end, st])
    return stats, covered_us * 1e-6


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    v = sorted(values)
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


# ---------------------------------------------------------------- metrics --

def counter(r, name):
    return r.get("metrics", {}).get("counters", {}).get(name, 0)


def counter_sum(runs, name):
    return sum(counter(r, name) for r in runs)


def pending_hist(r):
    return r.get("metrics", {}).get("histograms", {}).get("eventq.pending")


def pending_max(runs):
    best = 0.0
    for r in runs:
        h = pending_hist(r)
        if not h:
            continue
        nonzero = [i for i, c in enumerate(h["counts"]) if c]
        if nonzero:
            i = nonzero[-1]
            best = max(best, h["bounds"][min(i, len(h["bounds"]) - 1)])
    return best


def pass_run_s(p):
    return sum(r.get("run_s", 0.0) for r in p["runs"])


def end_to_end_metrics(untraced, setups, local_updates):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(s["build_s"] for s in setups),
        "updates_per_s": statistics.median(local_updates / pass_run_s(p) for p in untraced),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in untraced),
    }


def per_layer_metrics(traced, traced_setup, untraced, stats, covered_s, probes, jobs):
    def span(name, field):
        return stats.get(name, {}).get(field, 0)

    def durs(name):
        return stats.get(name, {}).get("durs_ms") or [0.0]

    runs = [r for r in traced["runs"] if "error" not in r]
    run_s = pass_run_s(traced)
    lane_ns = sum(counter(r, "pool.lanes") * r["run_s"] * 1e9 for r in runs)
    m = {
        "scenario.build_s": traced_setup["build_s"],
        "scenario.variants": traced["variants"],
        "scenario.farm_other_s": traced["wall_s"] - (traced_setup["build_s"] + run_s) / jobs,
        "scenario.out_bytes": traced["out_bytes"],
        "ml.gemm_self_s": span("gemm.sgemm", "self_s"),
        "ml.gemm_calls": span("gemm.sgemm", "count"),
        "ml.conv_forward_self_s": span("conv.forward", "self_s"),
        "ml.conv_backward_self_s": span("conv.backward", "self_s"),
        "fl.run_s": run_s,
        "fl.local_updates": span("worker.local_update", "count"),
        "fl.local_update_self_s": span("worker.local_update", "self_s"),
        "fl.local_update_ms_p50": percentile(durs("worker.local_update"), 50),
        "fl.local_update_ms_p99": percentile(durs("worker.local_update"), 99),
        "fl.barrier_wait_s": span("driver.barrier", "total_s"),
        "fl.eval_s": span("driver.eval", "total_s"),
        "fl.evals": span("driver.eval", "count"),
        "fl.aggregations": span("loop.aggregate", "count"),
        "fl.aggregate_self_s": span("loop.aggregate", "self_s"),
        "fl.aggregate_ms_p50": percentile(durs("loop.aggregate"), 50),
        "fl.aggregate_ms_p75": percentile(durs("loop.aggregate"), 75),
        "fl.warm_hits": counter_sum(runs, "pool.warm_hits"),
        "fl.cold_replays": counter_sum(runs, "pool.cold_replays"),
        "util.pool_tasks": counter_sum(runs, "pool.tasks"),
        "util.pool_busy_frac": counter_sum(runs, "pool.busy_ns") / lane_ns if lane_ns else 0.0,
        "sim.eventq_pops": sum((pending_hist(r) or {}).get("count", 0) for r in runs),
        "sim.eventq_pending_max": pending_max(runs),
        "sim.substrate_dropouts": counter_sum(runs, "substrate.dropouts"),
        "obs.trace_overhead_frac":
            traced["wall_s"] / statistics.median(p["wall_s"] for p in untraced) - 1.0,
        "obs.unattributed_frac": 1.0 - covered_s / run_s if run_s else 0.0,
        "obs.dropped_events": traced["dropped"],
    }
    m.update(probes)
    return m


def run_probes(paths, available, files, work, deadline):
    out = {}
    for p in available:
        code, stdout, _, _ = run_child([paths["probe_" + p]] + files,
                                       os.path.join(work, "probe_" + p), deadline)
        values = last_json(stdout) if code == 0 else None
        if values:
            out.update(values)
    return out


# ------------------------------------------------------------------- main --

def measure(args, root):
    paths, probes = build(root)
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    spec = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_runs", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        files = write_specs(args.workload, args.seed, spec_schema(paths["cli"]),
                            os.path.join(work, "specs"))
        farm = spec["kind"] == "farm"
        jobs = spec.get("jobs", 1)
        trace_path = os.path.join(work, "trace.json")

        def one_pass(tag, traced):
            tp = trace_path if traced else None
            if farm:
                setup = setup_pass(paths, files, work, tag + "_setup", deadline)
                p = farm_pass(paths, files, work, tag, deadline, setup["runs"], jobs, tp)
                return p, setup
            p = harness_pass(paths, files, work, tag, deadline, tp)
            return p, {"build_s": p["build_s"]}

        traced, traced_setup = one_pass("traced", True)
        untraced, setups = [], []
        t0 = time.monotonic()
        while True:
            before = time.monotonic()
            p, s = one_pass("pass%d" % len(untraced), False)
            untraced.append(p)
            setups.append(s)
            took = time.monotonic() - before
            done = time.monotonic() - t0 >= args.seconds and len(untraced) >= MIN_PASSES
            if done or time.monotonic() + took > deadline - 10.0:
                break

        attempted, failed, digests = check_runs([traced] + untraced)
        stats, covered_s = span_report(*load_trace(trace_path))
        local_updates = stats.get("worker.local_update", {}).get("count", 0)
        correct = failed == 0 and traced["dropped"] == 0 and local_updates > 0

        for key in sorted(digests):
            print("digest %-60s %s" % (key, digests[key]))
        for p in [traced] + untraced:
            for r in p["runs"]:
                if "error" in r:
                    print("FAILED %s: %s" % (r["key"], r["error"]))
        print("error_rate %d/%d = %.6f" % (failed, attempted, failed / attempted))
        print("passes: 1 traced + %d untraced, %d local updates per pass"
              % (len(untraced), local_updates))
        print("untraced wall_s: " + " ".join("%.3f" % p["wall_s"] for p in untraced))
        print("untraced setup_s: " + " ".join("%.3f" % s["build_s"] for s in setups))

        if args.trace:
            probe_values = run_probes(paths, probes, files, work, deadline)
            values = per_layer_metrics(traced, traced_setup, untraced, stats, covered_s,
                                       probe_values, jobs)
            units = PER_LAYER
        else:
            values = end_to_end_metrics(untraced, setups, max(local_updates, 1))
            units = END_TO_END
        metrics = {}
        for name, unit in units:
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print("%-28s %16.6f %s" % (name, values[name], unit))
            else:
                print("%-28s %16s (probe unavailable)" % (name, "missing"))
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args, os.getcwd())
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
