#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 e2ebench/smoke.py

It builds the harness through run.py, then checks, for all three workloads
and both modes, that a run exits 0 with every output check passed, zero
failed operations and exactly the metrics BENCHMARK.json lists; that a
second run of the same seed reproduces the recorded work; that a tampered
work ledger fails the run; and that run.py refuses, without a result, a
directory that holds only the benchmark. Takes about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(ROOT, ".bench_build", "smoke")
BINARY = os.path.join(ROOT, ".bench_build", "fats_e2ebench")


def fail(message):
    sys.exit("smoke: FAIL: " + message)


def harness(workload, trace, seed=7):
    """Runs the built harness at tiny sizes; returns (exit code, stdout)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", "--state-dir", STATE],
        capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shutil.rmtree(STATE, ignore_errors=True)

    # Build, through the benchmark's own command line.
    build = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "train_cnn", "--seed", "1", "--seconds", "1", "--trace", "0",
         "--tiny"], capture_output=True, text=True, timeout=900)
    if build.returncode != 0:
        fail("run.py exited %d: %s" % (build.returncode, build.stderr[-2000:]))
    result_of(build.stdout)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = harness(workload, trace)
            if code != 0:
                fail("%s trace=%d exited %d:\n%s" % (workload, trace, code,
                                                    out[-3000:]))
            res = result_of(out)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: unexpected result keys %s" % (workload, sorted(res)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail("%s trace=%d: %s" % (workload, trace, res))
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != expected[trace]:
                fail("%s trace=%d: metrics differ from BENCHMARK.json" %
                     (workload, trace))
            for name, metric in res["metrics"].items():
                value = metric["value"]
                if not math.isfinite(value) or (trace == 0 and value <= 0):
                    fail("%s: %s = %r" % (workload, name, value))
            # trace=1 repeats the seed of trace=0: same work, same model.
            if trace == 1 and "identical to the recorded run" not in out:
                fail("%s: the traced run did not reproduce the work" % workload)
        print("smoke: %s ok" % workload)

    # A run whose work differs from the recorded one must fail.
    ledger = os.path.join(STATE, "ledger")
    for name in os.listdir(ledger):
        with open(os.path.join(ledger, name), "w") as f:
            f.write("00000000\n")
    code, out = harness("unlearn_stream", 0)
    if code == 0 or result_of(out)["correct"]:
        fail("a tampered work ledger was not detected")
    print("smoke: ledger mismatch detected")

    # Only BENCHMARK.json and the benchmark's own files: no result, exit != 0.
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, "e2ebench", "run.py"),
         "--workload", "train_cnn", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a bare benchmark directory produced a result")
    print("smoke: bare directory refused")
    shutil.rmtree(STATE, ignore_errors=True)
    print("smoke: all passed")


if __name__ == "__main__":
    main()
