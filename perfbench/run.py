#!/usr/bin/env python3
"""Campaign benchmark: netlist file -> five-class fault campaign -> report.

Builds perfbench/campaign_bench against the repository's cpsinw library
(CMake, Release, into .bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload alu16_default --seed 3 \\
        --seconds 20 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.  The line before it records the host.  Run from the
repository root.

    python3 perfbench/run.py --write-golden

regenerates perfbench/golden.json, the stable-report digest of every
workload at every input seed.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")

WORKLOADS = ["alu16_default", "alu128_packed", "alu4_bridges", "alu4_atpg"]
# Seed n runs input stream n mod INPUT_SEEDS; golden.json holds one digest
# per workload and input stream.
INPUT_SEEDS = 32
CHILD_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no cpsinw sources next to perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
              "-j", jobs]]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(workload, input_seed, extra):
    cmd = [BINARY, "--workload", workload, "--seed", str(input_seed),
           "--work-dir", WORK_DIR] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    if proc.returncode != 0:
        fail("%s exited with %d" % (workload, proc.returncode))
    return proc.stdout.strip().splitlines()


def write_golden():
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = []
        for s in range(INPUT_SEEDS):
            digests[workload].append(
                run_binary(workload, s, ["--digest"])[-1])
            print(workload, s, digests[workload][-1], file=sys.stderr)
    with open(GOLDEN, "w") as f:
        json.dump({"input_seeds": INPUT_SEEDS, "digests": digests}, f,
                  indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.write_golden:
        write_golden()
        return

    with open(GOLDEN) as f:
        golden = json.load(f)
    input_seed = args.seed % golden["input_seeds"]
    expect = golden["digests"][args.workload][input_seed]
    lines = run_binary(args.workload, input_seed,
                       ["--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--expect", expect])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    host = json.loads(lines[-2])["host"]
    host.update(workload=args.workload, seed=args.seed,
                input_seed=input_seed, trace=args.trace)
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
