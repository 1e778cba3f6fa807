"""Daemon benchmark: one workload, one seed, checked against the oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Builds fresh tenants from the fixed corpus, starts ``repro.server``'s
daemon in its own process, drives the workload's seeded operations as a
closed loop, checks every answer against the BruteForce oracle, and
prints each metric by name and unit on stderr.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ladder (see
``ladder.py``) with ``--trace 1``.  Exits non-zero on a wrong answer or
when the repository's ``src/repro`` is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The daemon's trace-sampling seed: the same requests are sampled every run.
TRACE_SEED = 1
#: Throughput is the median rate over this many equal-count windows.
RATE_WINDOWS = 20
#: Scan-oracle answers also held to repro's BruteForce index, per run.
CROSS_CHECK_QUERIES = 100

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "write_p50_ms": "ms",
    "ok_share": "ratio",
    "rss_mb": "MiB",
    "disk_mb": "MiB",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    return parser.parse_args(argv)


# ------------------------------------------------------------------ helpers
def quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windowed_rate(loop, windows: int = RATE_WINDOWS) -> float:
    """Median completed-operations rate over equal-count windows of the loop."""
    events = sorted((r.done_s, r.ops) for recs in loop.records for r in recs)
    k = min(windows, len(events))
    bounds = [round(i * len(events) / k) for i in range(k + 1)]
    rates, prev = [], loop.started_s
    for i in range(k):
        chunk = events[bounds[i] : bounds[i + 1]]
        end = chunk[-1][0]
        rates.append(sum(n for _, n in chunk) / (end - prev))
        prev = end
    return statistics.median(rates)


def segment_budget(workload, shape) -> Optional[int]:
    """history_cold's segment cache holds about half of its segment bytes."""
    return shape.segment_bytes // 2 if workload.cold else None


def setup_once(workload, corpus, root: Path, *, metrics: bool = False):
    """Build a tenant, start the daemon, wait for a ``ping``: ``(s, shape, daemon)``."""
    from loadgen import DaemonProcess
    from workloads import build_tenant, now

    started = now()
    shape = build_tenant(workload, corpus, root)
    daemon = DaemonProcess(
        root,
        trace_seed=TRACE_SEED,
        segment_cache_bytes=segment_budget(workload, shape),
        metrics=metrics,
    )
    try:
        with daemon.client() as client:
            client.ping()
    except BaseException:
        daemon.close()
        raise
    return now() - started, shape, daemon


# -------------------------------------------------------------------- oracle
def expected_answers(workload, corpus, plan) -> List[List[object]]:
    """Per timed stream: the oracle's answer for every operation."""
    from workloads import ScanOracle, expected_reads, replay_brute

    if workload.name == "ingest_mixed":
        replayed = replay_brute(corpus, [plan.warmup[0] + plan.timed[0]])[0]
        return [replayed[len(plan.warmup[0]) :]]
    oracle = ScanOracle(corpus)
    return [expected_reads(oracle, stream) for stream in plan.timed]


def cross_check_mismatches(corpus, plan) -> int:
    """Scan oracle vs repro's BruteForce on a sample of the run's queries."""
    from repro.indexes.brute import BruteForce
    from workloads import ScanOracle, cross_check

    specs = []
    for stream in plan.timed:
        for op in stream:
            if op[0] == "query":
                specs.append(tuple(op[1:]))
            elif op[0] == "batch":
                specs.extend(op[1])
    step = max(1, len(specs) // CROSS_CHECK_QUERIES)
    brute = BruteForce.build(corpus.collection())
    return cross_check(ScanOracle(corpus), brute, specs[::step][:CROSS_CHECK_QUERIES])


def check(corpus, plan, loop, expected) -> Tuple[int, int]:
    """``(wrong answers, failed operations)`` of one measured loop."""
    wrong = cross_check_mismatches(corpus, plan)
    for records, answers in zip(loop.records, expected):
        if len(records) != len(answers):
            wrong += abs(len(records) - len(answers))
        wrong += sum(
            r.ok and want is not None and r.answer != want
            for r, want in zip(records, answers)
        )
    failed = sum(r.ops for recs in loop.records for r in recs if not r.ok)
    return wrong, failed


# ------------------------------------------------------------------ the run
def end_to_end(loop, setup_s: float, rss_mb: float, disk_bytes: int):
    """``(metrics, read samples, write samples, attempted operations)``."""
    every = [r for recs in loop.records for r in recs]
    reads = [r.latency_s * 1000.0 for r in every if r.verb in ("query", "batch")]
    writes = [r.latency_s * 1000.0 for r in every if r.verb in ("insert", "delete")]
    attempted = sum(r.ops for r in every)
    succeeded = sum(r.ops for r in every if r.ok)
    return {
        "setup_s": setup_s,
        "ops_per_s": windowed_rate(loop),
        "query_p50_ms": statistics.median(reads),
        "query_p90_ms": quantile(reads, 0.90),
        "write_p50_ms": statistics.median(writes),
        "ok_share": succeeded / attempted,
        "rss_mb": rss_mb,
        "disk_mb": disk_bytes / 2**20,
    }, len(reads), len(writes), attempted


def run_untraced(workload, corpus, seed: int, seconds: float, work: Path) -> dict:
    from loadgen import closed_loop
    from workloads import du_bytes, make_plan

    setups: List[float] = []
    for k in range(SETUPS):
        took, shape, daemon = setup_once(workload, corpus, work / f"tenants{k}")
        setups.append(took)
        if k < SETUPS - 1:
            daemon.close()
    try:
        plan = make_plan(workload, corpus, shape, seed, seconds)
        expected = expected_answers(workload, corpus, plan)
        loop = closed_loop(daemon, plan.warmup, plan.timed)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.close()
    metrics, n_reads, n_writes, attempted = end_to_end(
        loop, statistics.median(setups), rss, du_bytes(work / f"tenants{SETUPS - 1}")
    )
    wrong, failed = check(corpus, plan, loop, expected)
    report(workload, metrics, UNITS, {
        "query samples": n_reads, "write samples": n_writes,
        "setups": SETUPS, "wrong answers": wrong, "failed ops": failed,
    })
    return result(wrong, attempted, failed, metrics, UNITS)


def report(workload, metrics: Dict[str, float], units: Dict[str, str], notes: Dict[str, object]) -> None:
    print(f"# {workload.name}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {units[name]}", file=sys.stderr)
    for name, value in notes.items():
        print(f"  ({name}: {value})", file=sys.stderr)


def result(wrong: int, attempted: int, failed: int, metrics, units) -> dict:
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from loadgen import pin_load_generator
    from workloads import WORKLOADS, make_corpus

    pin_load_generator()
    workload = WORKLOADS[args.workload]
    corpus = make_corpus(args.size)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        if args.trace:
            from ladder import run_traced

            out = run_traced(workload, corpus, args.seed, args.seconds, work)
        else:
            out = run_untraced(workload, corpus, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
