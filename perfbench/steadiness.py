"""Steadiness report: repeat each workload and print every metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--workloads serve_hot,batch_hot]
        [--runs 10] [--first-seed 1] [--trace 0]

Runs ``run.py`` once per seed (a new seed each run, as the acceptance
check does) and prints, per workload and metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
relative spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  ``steady`` means the spread is under a third of the
bound.  The header names the host's CPU count, the Python version and
the commit, so the figures the bounds rest on can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# nproc={os.cpu_count()} python={platform.python_version()} commit={commit()} "
          f"run_seconds={spec['run_seconds']} runs={args.runs} trace={args.trace}")
    for name in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        walls: List[float] = []
        for i in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.first_seed + i), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - started)
            if proc.returncode:
                print(f"{name}: run {i} failed (exit {proc.returncode})\n{proc.stderr}")
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in out["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"\n{name}  (wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s)")
        print(f"  {'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(metric)
            flag = "" if bound is None else ("  steady" if spread < bound / 3 else "  NOISY")
            print(f"  {metric:<34}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}"
                  f"{'' if bound is None else format(bound, '>7.2f')}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
