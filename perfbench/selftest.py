#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload of BENCHMARK.json twice untraced and once traced, at a
small scale and with one seed, and fails unless:
  - every run exits 0 with zero failed operations;
  - the exact-count guards are identical across the three runs;
  - the printed metrics are exactly BENCHMARK.json's end_to_end list
    (untraced) or per_layer list (traced), with the same units, and every
    end-to-end value is positive.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("guard ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        guards = []
        for trace in (0, 0, 1):
            try:
                result, run_guards = run(workload, trace)
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                problems.append(f"{workload} trace={trace}: {e}")
                continue
            guards.append(run_guards)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
        if not guards or not guards[0] or any(g != guards[0] for g in guards):
            problems.append(f"{workload}: exact-count guards differ between runs: {guards}")
        else:
            print(f"{workload}: ok, {len(guards[0])} guards identical over {len(guards)} runs")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
