"""The benchmark's own tests, at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import loadgen
import run
from workloads import WORKLOADS, TenantShape, make_corpus, make_plan

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.3", "--size", "tiny"]


def bench(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    proc, out = bench("ingest_mixed", 5, trace)
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name, unit in want.items():
        assert any(name in line and line.endswith(unit) for line in proc.stderr.splitlines())


def test_injected_wrong_answer_fails_the_run(monkeypatch, capsys):
    real_outcome = loadgen.outcome
    state = {"seen": 0, "corrupted": False}

    def corrupting_outcome(op, response):
        ok, answer = real_outcome(op, response)
        state["seen"] += 1
        # Past the warm-up, whose answers are not checked: one wrong id.
        if op[0] == "query" and state["seen"] > 40 and not state["corrupted"]:
            state["corrupted"] = True
            answer = list(answer) + [999_999]
        return ok, answer

    monkeypatch.setattr(loadgen, "outcome", corrupting_outcome)
    code = run.main(["--workload", "history_cold", "--seed", "2", "--trace", "0", *TINY])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert state["corrupted"] and code != 0 and out["correct"] is False


def _shape():
    return TenantShape(newest_lo=66_000_000, segment_bytes=0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_operations_other_seed_other_inputs(name):
    corpus = make_corpus("tiny")
    a = make_plan(WORKLOADS[name], corpus, _shape(), 11, 0.5)
    b = make_plan(WORKLOADS[name], corpus, _shape(), 11, 0.5)
    c = make_plan(WORKLOADS[name], corpus, _shape(), 12, 0.5)
    assert a == b
    assert a.timed != c.timed


def test_queries_do_not_repeat_within_a_run():
    corpus = make_corpus("tiny")
    plan = make_plan(WORKLOADS["serve_hot"], corpus, _shape(), 3, 2.0)
    specs = [
        (op[1], op[2], tuple(op[3]))
        for ops in plan.warmup + plan.timed for op in ops if op[0] == "query"
    ]
    assert len(specs) == len(set(specs))


def test_same_seed_repeats_counts_exactly():
    counted = [
        "storage.blocks_decoded_per_query", "storage.blocks_skipped_per_query",
        "storage.cache_hit_rate", "storage.cache_evictions",
        "service.wal_bytes_per_write", "cluster.shards_per_query",
    ]
    runs = [bench("history_cold", 4, 1)[1]["metrics"] for _ in range(2)]
    assert runs[0]["storage.blocks_decoded_per_query"]["value"] > 0
    for name in counted:
        assert runs[0][name] == runs[1][name], name
    # Segment files pickle their directory, whose bytes vary by a few with
    # the interpreter's string-hash seed; the size per entry barely moves.
    sizes = [r["ir.segment_bytes_per_entry"]["value"] for r in runs]
    assert sizes[0] == pytest.approx(sizes[1], rel=1e-3)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
