#!/usr/bin/env python3
"""Build and run the ftcf request-level benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads T] [--smoke]

The first call configures and builds the library and the `perfbench` runner
(Release) under .bench_build/; later calls only re-check the build. The
runner's output is passed through: a `meta {...}` line, then, last, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the spans are also written to .bench_build/traces/.

Exits non-zero, without a result line, when the sources or the build are
missing or broken, or when the runner fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["design_sweep", "certify_jobs_1944", "churn_648", "sim_fig2_1944"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the runner; all tool output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("no ftcf sources next to %s; run from a full checkout" % HERE)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch in the checkout
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        cache = os.path.join(BUILD, "CMakeCache.txt")
        ok = os.path.isfile(cache) or subprocess.run(
            configure, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0
        if ok:
            ok = subprocess.run(
                ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                 str(min(4, os.cpu_count() or 1))],
                stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0
        if ok:
            return
        # A cache from another checkout location cannot be reused: start over.
        shutil.rmtree(BUILD, ignore_errors=True)
    fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--threads", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.threads is not None:
        command += ["--threads", str(args.threads)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("runner exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
