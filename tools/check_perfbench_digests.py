#!/usr/bin/env python3
"""Pin the perfbench output digests.

Run from anywhere inside a checkout:

    python3 tools/check_perfbench_digests.py [--update] [--workload NAME]

perfbench prints an FNV-1a digest over the verified outputs of its first
round (certificate JSON, simulator counters, churn deltas, the final
incremental certificate). This script runs `perfbench/run.py` once per
(workload, size, seed) listed in tools/perfbench_digests.json -- `--smoke`
at two seeds and one full-size round at two seeds -- and fails when a
digest differs from the committed value or a run fails. `--update` rewrites
the file with the digests just measured; say in the change why they moved.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER = os.path.join(ROOT, "perfbench", "run.py")
DIGESTS = os.path.join(HERE, "perfbench_digests.json")
# A full-size run stops at the first round boundary after the runner's
# minimum request count; the digest covers the first round only.
FULL_SECONDS = 0.001


def measure(workload, size, seed):
    command = [sys.executable, RUNNER, "--workload", workload, "--seed",
               str(seed), "--trace", "0", "--threads", "2"]
    command += ["--seconds", "1", "--smoke"] if size == "smoke" else \
               ["--seconds", repr(FULL_SECONDS)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s %s seed %d: runner exited with code %d" %
                         (workload, size, seed, proc.returncode))
    meta = json.loads(lines[-2][len("meta "):])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("%s %s seed %d: unverified requests: %s" %
                         (workload, size, seed, meta["failures"]))
    return meta["digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed digests")
    parser.add_argument("--workload", help="check one workload only")
    args = parser.parse_args()

    with open(DIGESTS) as f:
        pinned = json.load(f)
    if args.workload is not None and args.workload not in pinned:
        raise SystemExit("unknown workload '%s'" % args.workload)
    mismatches = 0
    for workload, sizes in sorted(pinned.items()):
        if args.workload not in (None, workload):
            continue
        for size, seeds in sorted(sizes.items()):
            for seed, expected in sorted(seeds.items(), key=lambda kv: int(kv[0])):
                got = measure(workload, size, int(seed))
                ok = got == expected
                print("%-4s %-18s %-5s seed %-4s %s%s" %
                      ("ok" if ok else "FAIL", workload, size, seed, got,
                       "" if ok else " (pinned %s)" % expected), flush=True)
                if not ok:
                    mismatches += 1
                    seeds[seed] = got
    if args.update:
        with open(DIGESTS, "w") as f:
            json.dump(pinned, f, indent=2, sort_keys=True)
            f.write("\n")
        print("rewrote %s" % os.path.relpath(DIGESTS, ROOT))
    elif mismatches:
        raise SystemExit("%d digest(s) differ from %s" %
                         (mismatches, os.path.relpath(DIGESTS, ROOT)))


if __name__ == "__main__":
    main()
