#!/usr/bin/env python3
"""Steadiness check for the host-cost benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 30] [--first-seed 100]

Runs perfbench/run.py --trace 0 once per seed (seeds first-seed ..
first-seed+runs-1) for each of the three workloads, fresh process per
run, and prints every end-to-end metric's
median, first and third quartile (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    for workload in ("fig5_scan", "tpch_sql", "shard_point_mixed"):
        values = {}
        units = {}
        failed = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s: %d runs of %d s, %d failures" %
              (workload, args.runs, args.seconds, failed))
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-36s median %12.6g  Q1 %12.6g  Q3 %12.6g  spread %6.3f %s"
                  % (name, med, q1, q3, spread, units[name]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
