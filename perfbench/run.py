#!/usr/bin/env python3
"""Benchmark command: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runner (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build on first use, then runs repetitions of
the workload -- each its own process, pinned to one CPU -- until S seconds
are spent. Every repetition does the same seeded work, so virtual-time
metrics must repeat bit for bit; host-time metrics are the median over
repetitions, scaled to a nominal host speed (see PROBE_NOMINAL_S). The
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 repetitions alternate untraced and traced, and the metrics are
the per-layer ones. Exit status is 0 only when every output was checked
correct. --tiny and --corrupt serve smoke_test.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics measured on the host clock: medians of the untraced
# repetitions (sim.*) or of the traced ones (span wall times). Every other
# per-layer metric is a count or virtual time and must repeat exactly.
HOST_LAYERS = {"sim.ns_per_event", "sim.ctx_switches", "sim.cpu_user_s",
               "sim.cpu_sys_s"}
SPAN_WALL_LAYERS = {"mpi.commit.wall_us", "cuda.malloc.wall_us",
                    "cuda.memcpy.wall_us"}
TRACE_OVERHEAD = "sim.trace_overhead_s"
REP_TIMEOUT_S = 60

# Host seconds are reported at a fixed host speed. Each repetition times a
# simulator-independent probe (perfbench::host_speed_probe: run-token
# hand-offs plus cache-missing memory updates) right before its set-up,
# and its host times are scaled by PROBE_NOMINAL_S / probe. On a shared
# host the raw times drift together with the probe by up to 1.7x over
# minutes; the scaled ones do not. PROBE_NOMINAL_S is the probe's typical
# time on the 4-vCPU Xeon VM the bounds were set on; raw times and the
# probe are reported among the per-layer metrics.
PROBE_NOMINAL_S = 0.04


def scaled(rep, key):
    return rep[key] * PROBE_NOMINAL_S / rep["probe_s"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure once, then (re)build the runner. Returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def run_rep(runner, args, cpu, trace_out):
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--cpu", str(cpu)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "repetition hung past %d s" % REP_TIMEOUT_S
    lines = done.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "runner exited %d without a result: %s" % (
            done.returncode, done.stderr.strip()[-500:])
    if done.returncode != 0 and not rep["errors"]:
        rep["errors"] = ["runner exited %d" % done.returncode]
    return rep, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (numbers are not comparable)")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one delivered byte; the run must fail")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(names)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    runner = build(out)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_out = os.path.join(out, "traces", "%s-seed%d.json" % (
            args.workload, args.seed))

    # One CPU for every repetition: the last one this process may use.
    cpu = sorted(os.sched_getaffinity(0))[-1]
    print("pinned to cpu %d; nproc %d" % (cpu, os.cpu_count()))

    reps, errors = [], []
    failed_reps = 0
    start = time.monotonic()
    longest = 0.0
    min_reps = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        rep, err = run_rep(runner, args, cpu, trace_out if traced else None)
        longest = max(longest, time.monotonic() - t0)
        if rep is None:
            errors.append(err)
            failed_reps += 1
            break
        reps.append(rep)
        errors.extend(rep["errors"])
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + longest > args.seconds:
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failed_reps:
        # A repetition that died or hung counts all its ops as failed.
        per_rep = reps[0]["attempted"] if reps else 1
        attempted += per_rep * failed_reps
        failed += per_rep * failed_reps

    metrics = {}
    if reps:
        first = reps[0]
        for key in ("virt_us", "virt_gbps"):
            if any(r[key] != first[key] for r in reps):
                errors.append("%s differs between repetitions of seed %d" % (
                    key, args.seed))
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        if args.trace:
            values = layer_values(plain, traced, errors)
        else:
            values = {k: statistics.median(scaled(r, k) for r in plain)
                      for k in ("sim_wall_s", "setup_s")}
            values["peak_rss_mb"] = statistics.median(
                r["peak_rss_mb"] for r in plain)
            values["virt_us"] = first["virt_us"]
            values["virt_gbps"] = first["virt_gbps"]
        for m in wanted:
            if m["name"] not in values:
                errors.append("metric %s was not measured" % m["name"])
                continue
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        if traced:
            check_trace(trace_out, errors)
        print("%s seed %d: %d repetitions (%d traced), %d ops each "
              "(virt_us is their mean)" % (args.workload, args.seed,
                                           len(reps), len(traced),
                                           first["ops"]))
    print("fail_ratio %d/%d" % (failed, attempted))
    for e in errors[:10]:
        print("error: " + e)
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_values(plain, traced, errors):
    """Per-layer metrics of a --trace 1 run (see the *_LAYERS sets)."""
    values = {}
    if not plain or not traced:
        errors.append("a traced run needs untraced and traced repetitions")
        return values
    for name, value in traced[0]["layers"].items():
        if name in HOST_LAYERS:
            values[name] = statistics.median(r["layers"][name] for r in plain)
        elif name in SPAN_WALL_LAYERS:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            values[name] = value
            others = [r["layers"].get(name) for r in plain + traced]
            if any(v is not None and v != value for v in others):
                errors.append("%s differs between repetitions" % name)
    values[TRACE_OVERHEAD] = (
        statistics.median(scaled(r, "sim_wall_s") for r in traced) -
        statistics.median(scaled(r, "sim_wall_s") for r in plain))
    values["sim.wall_raw_s"] = statistics.median(r["sim_wall_s"] for r in plain)
    values["sim.host_probe_s"] = statistics.median(r["probe_s"] for r in plain)
    return values


def check_trace(path, errors):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        if not events or any(e.get("ph") != "X" for e in events):
            errors.append("trace %s holds no complete events" % path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        errors.append("trace %s does not parse: %s" % (path, e))


if __name__ == "__main__":
    sys.exit(main())
