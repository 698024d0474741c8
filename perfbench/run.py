#!/usr/bin/env python3
"""Entry point of the host-cost benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. On first use it configures and builds
perfbench/ (the library sources under src/ plus the relfab_perf driver) in
Release mode under .bench_build/perfbench; later runs only re-check the
build. Each call then runs one fresh relfab_perf process and passes its
output through. The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}.

Workloads: fig5_scan, tpch_sql, shard_point_mixed. --trace 1 selects the
traced run (per-layer metrics; spans are written to .bench_build/spans).
Whatever --seed is, every run also pins the simulated cycles: before any
timing, the driver builds each workload it runs from the seed recorded in
golden_cycles.json, runs one op-stream round and checks its summed cycles
against the stored value.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "relfab_perf")
GOLDEN = os.path.join(HERE, "golden_cycles.json")
WORKLOADS = ("fig5_scan", "tpch_sql", "shard_point_mixed")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under %s/src; run from a full "
            "checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "relfab_perf"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if "RELFAB_FAULTS" in os.environ:
        die("$RELFAB_FAULTS is set; the benchmark runs only with fault "
            "injection unarmed")
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    with open(GOLDEN) as f:
        golden = json.load(f)
    cmd += ["--pin-seed", str(golden["seed"])]
    for workload, cycles in sorted(golden["round_cycles"].items()):
        cmd += ["--expect-round-cycles", "%s=%d" % (workload, cycles)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-dir", SPANS_DIR]

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        die("relfab_perf exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        die("relfab_perf printed no JSON result")


if __name__ == "__main__":
    main()
