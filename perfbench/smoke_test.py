#!/usr/bin/env python3
"""Smoke check of the benchmark itself (tiny sizes, a few seconds).

    python3 perfbench/smoke_test.py

For every workload: an untraced and a traced run print every metric of
BENCHMARK.json with its unit and pass their checks; a run with one
delivered byte flipped (--corrupt) fails and exits non-zero. Also: every
per-layer metric is described once in layers.json, and the command fails
without a result in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, trace, *extra, root=ROOT, env=None):
    """Run the benchmark command from `root`; (exit code, result, output)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, result, done.stdout + done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        groups = json.load(f)["groups"]
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    described = [m for g in groups for m in g["metrics"]]
    names = [m["name"] for m in spec["per_layer"]]
    expect(sorted(described) == sorted(names),
           "layers.json describes each per-layer metric exactly once")

    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, res, out = bench(w, trace)
            good = rc == 0 and res is not None and res["correct"]
            expect(good, "%s --trace %d passes its checks" % (w, trace))
            if not good:
                print(out[-2000:])
                continue
            got = res["metrics"]
            expect(set(got) == {m["name"] for m in wanted} and all(
                got[m["name"]]["unit"] == m["unit"] and
                isinstance(got[m["name"]]["value"], (int, float))
                for m in wanted),
                "%s --trace %d prints every metric with its unit" % (w, trace))
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   "%s --trace %d counts its ops" % (w, trace))
        rc, res, out = bench(w, 0, "--corrupt")
        expect(rc != 0 and res is not None and not res["correct"] and
               res["failed"] >= 1,
               "%s with a corrupted byte fails the run" % w)

    # The command must fail, without a result, where the sources are absent.
    parent = os.path.join(ROOT, ".bench_build")
    os.makedirs(parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="smoke-bare-", dir=parent)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        rc, res, _ = bench(spec["workloads"][0]["name"], 0, root=scratch,
                           env=env)
        expect(rc != 0 and res is None,
               "without the sources the command fails and prints no result")
    finally:
        shutil.rmtree(scratch)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
