#!/usr/bin/env python3
"""Tier-1 golden gate for one bench binary (ctest bench_golden_<bench>).

Usage: run_bench_golden.py <bench-binary> <golden.json>

Runs the bench twice and diffs each --json report's simulated cycles
against the committed golden with tools/compare_bench_json.py:

  1. fast simulation path, --threads 4
  2. reference path (RELFAB_SIM_FAST_PATH=0), --threads 1

The two runs differ in both sim mode and host thread count, so one pass
pins the determinism contract (cycles bit-identical across sim modes and
host threads) and the golden itself. Exits 0 when both reports match.
"""

import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
COMPARE = os.path.join(REPO_ROOT, "tools", "compare_bench_json.py")

RUNS = [
    ("fast", "1", 4),
    ("ref", "0", 1),
]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, golden = argv[1], argv[2]
    ok = True
    with tempfile.TemporaryDirectory(prefix="relfab_bench_golden_") as tmp:
        for label, fast_path, threads in RUNS:
            report = os.path.join(tmp, f"{label}.json")
            env = dict(os.environ, RELFAB_SIM_FAST_PATH=fast_path)
            proc = subprocess.run(
                [bench, "--threads", str(threads), "--json", report],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"FAIL {label}: {bench} exited {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            cmp = subprocess.run([sys.executable, COMPARE, golden, report],
                                 capture_output=True, text=True)
            print(f"[{label}: RELFAB_SIM_FAST_PATH={fast_path} "
                  f"--threads {threads}]")
            print(cmp.stdout + cmp.stderr, end="")
            if cmp.returncode != 0:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
