#!/usr/bin/env python3
"""Builds and runs the FATS end-to-end benchmark (one workload per call).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload unlearn_stream --seed 3 --seconds 30 --trace 0

The first call configures and builds the library and the harness (Release)
into .bench_build/; later calls rebuild only what changed. The harness's
report goes to standard output and its last line is the JSON result. Exits
non-zero, without a result, when the sources are missing, the build fails,
a check fails or the run overruns.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_cnn", "million_clients", "unlearn_stream")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds fats_e2ebench; returns its path."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to " + HERE)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "fats_e2ebench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("run.py: build failed (see %s)" % log_path)
    return os.path.join(build_dir, "fats_e2ebench")


def code_digest(root):
    """Digest of the library and benchmark sources: the work ledger keys on
    it, so a run is only ever compared with runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", os.path.join(build_dir, "e2e"),
               "--code", code_digest(os.path.dirname(HERE))]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the run overran %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
