"""Run-to-run spread of the end-to-end metrics, next to their bounds.

Usage (from the root of a source checkout):

    python3 bench/steady.py

Runs `bench/run.py` on every workload once per seed, seeds 1 to 10, one run
at a time, each for BENCHMARK.json's run_seconds, and prints for each
workload and end-to-end metric its unit, the median over the runs and the
spread: the distance between the first and third quartiles
(`statistics.quantiles`, n=4) as a share of the median, beside the metric's
bound in BENCHMARK.json.  It also prints each workload's fail_ratio over all
its runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"git rev {git_rev()}", flush=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in SEEDS:
            results.append(one_run(workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4f}" for k, m in results[-1]["metrics"].items()),
                flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload}: {len(SEEDS)} runs of {seconds} s")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<14} {unit:<6} {statistics.median(values):>12.6f} "
                  f"{spread(values):>8.4f} {bound:>6}")
        print(f"  {'fail_ratio':<14} {'ratio':<6} {failed / attempted:>12.6f} "
              f"({failed} of {attempted} ops)")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
