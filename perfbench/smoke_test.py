#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny fabrics.

    python3 perfbench/smoke_test.py

For every workload: the untraced and traced runs print exactly the metrics
BENCHMARK.json names, every request verifies, the output digest is the same
at 1 and 4 threads, and an unknown workload is refused. Takes about a
minute, most of it the first build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, threads):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--threads", str(threads), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d failed:\n%s" %
                             (workload, trace, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    meta = json.loads(lines[-2][len("meta "):])
    return meta, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = set()
        for trace, threads in [(0, 1), (0, 4), (1, 2)]:
            meta, result = run(workload, trace, threads)
            assert result["correct"] and result["failed"] == 0, \
                (workload, meta["failures"])
            assert result["attempted"] >= 1
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            digests.add(meta["digest"])
        assert len(digests) == 1, (workload, digests)
        print("ok  %-18s digest %s" % (workload, digests.pop()))
    bad = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    assert bad.returncode != 0 and not bad.stdout.strip()
    print("ok  unknown workload refused")


if __name__ == "__main__":
    main()
