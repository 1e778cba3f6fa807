"""The traced run: per-layer metrics for one workload (``--trace 1``).

Two daemons serve the same freshly built tenant shape with the same
seeded operations, each for half of ``--seconds``: one untraced, one with
the metrics registry enabled.  Their throughput difference is
``trace.overhead_share``; the traced one also yields the ``server.*``
round trips.  Then the run replays the same operations, in the bench
process, through each layer's public entry point on a third fresh
tenant, timing every call:

==========  =====================================================  ==============================
layer       entry point                                            moves (workload/metric)
==========  =====================================================  ==============================
server      round trips of ping and the run's requests, codec      serve_hot/query_p50_ms, ops_per_s
cluster     ``TemporalCluster.query_partial``                       batch_hot/ops_per_s
storage     the same tenant with its bounded shards demoted and    history_cold/query_p50_ms, ops_per_s
            a half-size segment cache; ``SegmentReader`` open
ir          ``codec.decode_block`` over those segments' blocks     history_cold/query_p50_ms, disk_mb
service     ``DurableIndexStore`` query/insert/delete (fsync WAL)   ingest_mixed/write_p50_ms
indexes     bare ``irhint-perf`` index                              batch_hot/ops_per_s, ingest_mixed/write_p50_ms
intervals   ``Hint.range_query`` / ``Hint.insert``                  indexes.query_us → batch_hot/ops_per_s
==========  =====================================================  ==============================

Every µs figure is the median per operation (per query inside a batch),
except the ungated tails ``server.query_p99_us`` (per request) and
``service.write_p99_us``.  The storage rung's block and cache counts
come from the metrics registry, enabled around that rung only; with one
thread and no timers they repeat exactly for a seed.  Answers from the
daemon, cluster, store and bare index are all checked against the oracle.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

LADDER_UNITS = {
    "server.ping_rtt_us": "us",
    "server.query_rtt_us": "us",
    "server.query_p99_us": "us",
    "server.overhead_us": "us",
    "server.encode_us": "us",
    "server.decode_us": "us",
    "cluster.query_us": "us",
    "cluster.shards_per_query": "count",
    "service.store_query_us": "us",
    "service.insert_us": "us",
    "service.delete_us": "us",
    "service.wal_bytes_per_write": "B",
    "service.write_p99_us": "us",
    "indexes.query_us": "us",
    "indexes.insert_us": "us",
    "indexes.delete_us": "us",
    "intervals.hint_range_us": "us",
    "intervals.hint_insert_us": "us",
    "ir.decode_block_us": "us",
    "ir.segment_bytes_per_entry": "B",
    "storage.cold_query_us": "us",
    "storage.segment_open_us": "us",
    "storage.blocks_decoded_per_query": "count",
    "storage.blocks_skipped_per_query": "count",
    "storage.block_skip_share": "ratio",
    "storage.cache_hit_rate": "ratio",
    "storage.cache_evictions": "count",
    "trace.overhead_share": "ratio",
}

PINGS = 500
#: Read workloads replay at most this many timed queries through the
#: in-process rungs (the first operations of each stream, in order).
LADDER_QUERIES = 2000
#: Caps on the calls timed by the storage rungs (taken evenly from the run).
SEGMENT_QUERIES = 600
DECODED_BLOCKS = 3000
OPEN_ROUNDS = 20


def _us(seconds: float) -> float:
    return seconds * 1e6


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(items: Sequence, cap: int) -> List:
    return list(items[:: max(1, len(items) // cap)])[:cap]


# --------------------------------------------------------------- op replay
class Replay:
    """Per-call timings of one layer replaying the run's operations."""

    def __init__(self) -> None:
        self.query_us: List[float] = []
        self.insert_us: List[float] = []
        self.delete_us: List[float] = []
        self.wrong = 0


def replay(
    plan,
    expected: Optional[Sequence[Sequence[object]]],
    *,
    query: Callable[[tuple], object],
    insert: Callable[[tuple], None],
    delete: Callable[[tuple], None],
) -> Replay:
    """Warm-up ops untimed, then the timed streams, every call timed.

    ``expected`` (per timed stream) checks every answer; ``None`` skips
    checking, for layers that do not answer the IR query.
    """
    from workloads import now

    out = Replay()
    streams = [(ops, None, False) for ops in plan.warmup]
    for i, ops in enumerate(plan.timed):
        streams.append((ops, None if expected is None else expected[i], True))
    for ops, answers, timed in streams:
        for k, op in enumerate(ops):
            if op[0] in ("query", "check", "batch"):
                specs = op[1] if op[0] == "batch" else [tuple(op[1:])]
                got = []
                for spec in specs:
                    t0 = now()
                    got.append(query(spec))
                    if timed and op[0] != "check":
                        out.query_us.append(_us(now() - t0))
                if answers is not None:
                    out.wrong += got != (answers[k] if op[0] == "batch" else [answers[k]])
                continue
            t0 = now()
            (insert if op[0] == "insert" else delete)(op)
            if timed:
                (out.insert_us if op[0] == "insert" else out.delete_us).append(_us(now() - t0))
    return out


def ladder_plan(workload, plan):
    """The plan the in-process rungs replay: reads trimmed to ``LADDER_QUERIES``.

    Each stream keeps its first reads and every probe operation.
    ``ingest_mixed`` is replayed whole: its state depends on every write.
    """
    from workloads import Plan, count_ops

    if workload.name == "ingest_mixed":
        return plan
    budget = LADDER_QUERIES // len(plan.timed)
    timed = []
    for ops in plan.timed:
        kept, reads = [], 0
        for op in ops:
            if op[0] in ("query", "batch"):
                if reads >= budget:
                    continue
                reads += count_ops([op])
            kept.append(op)
        timed.append(kept)
    return Plan([ops[: max(1, len(ops) // 10)] for ops in plan.warmup], timed)


def _q(spec):
    from repro.core.model import make_query

    return make_query(*spec)


def _obj(op):
    from repro.core.model import make_object

    return make_object(*op[1:])


# ------------------------------------------------------------------ rungs
def cluster_rung(plan, expected, root: Path, budget) -> Dict[str, float]:
    """Replay through the cluster router of the run's tenant."""
    from repro.cluster import TemporalCluster

    extra = {} if budget is None else {"segment_cache_bytes": budget}
    planned: List[int] = []
    with TemporalCluster.open(root / "bench", wal_fsync=True, cache_size=0, **extra) as cluster:

        def query(spec):
            partial = cluster.query_partial(_q(spec))
            planned.append(partial.shards_planned)
            return partial.ids

        run = replay(
            plan, expected, query=query,
            insert=lambda op: cluster.insert(_obj(op)),
            delete=lambda op: cluster.delete(op[1]),
        )
    return {
        "wrong": run.wrong,
        "cluster.query_us": _median(run.query_us),
        "cluster.shards_per_query": statistics.fmean(planned),
    }


def storage_rung(plan, root: Path) -> Dict[str, float]:
    """The run's reads through the tenant with every bounded shard cold.

    Bounded shards still hot are demoted first; the segment cache holds
    half of the segment bytes, as on ``history_cold``.  Block and cache
    counts come from the metrics registry, enabled for this rung only.
    """
    from repro.cluster import TemporalCluster
    from repro.obs.registry import isolated_registry
    from workloads import now

    specs = [tuple(op[1:]) for ops in plan.timed for op in ops if op[0] == "query"]
    specs += [spec for ops in plan.timed for op in ops if op[0] == "batch" for spec in op[1]]
    query_us: List[float] = []
    with TemporalCluster.open(root / "bench", wal_fsync=True, cache_size=0) as cluster:
        for spec in cluster.table.shards:
            if spec.hi is not None and not cluster.tier_state.is_cold(spec.shard_id):
                cluster.demote(spec.shard_id)
        segments = (root / "bench" / "segments").glob("*.seg")
        cluster.segment_cache.budget_bytes = sum(p.stat().st_size for p in segments) // 2
        with isolated_registry() as registry:
            for spec in _spread(specs, SEGMENT_QUERIES):
                t0 = now()
                cluster.query_partial(_q(spec))
                query_us.append(_us(now() - t0))

            def get(name: str) -> float:
                return registry.sample_value(f"repro_storage_{name}_total")

            cold, decoded, skipped = get("cold_queries"), get("blocks_decoded"), get("blocks_skipped")
            hits, misses = get("cache_hits"), get("cache_misses")
            evictions = get("cache_evictions")
    return {
        "storage.cold_query_us": _median(query_us),
        "storage.blocks_decoded_per_query": decoded / cold if cold else 0.0,
        "storage.blocks_skipped_per_query": skipped / cold if cold else 0.0,
        "storage.block_skip_share": skipped / (decoded + skipped) if decoded + skipped else 0.0,
        "storage.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "storage.cache_evictions": evictions,
    }


def service_rung(corpus, plan, expected, directory: Path) -> Dict[str, float]:
    from repro.service.store import DurableIndexStore
    from workloads import INDEX_KEY, INDEX_PARAMS

    store = DurableIndexStore.open(directory, index_key=INDEX_KEY, index_params=INDEX_PARAMS)
    try:
        store.bootstrap(corpus.collection(), INDEX_KEY, **INDEX_PARAMS)

        def wal_bytes() -> int:
            return sum(p.stat().st_size for p in directory.glob("wal-*.log"))

        before = wal_bytes()
        run = replay(
            plan, expected,
            query=lambda spec: store.query(_q(spec)),
            insert=lambda op: store.insert(_obj(op)),
            delete=lambda op: store.delete(op[1]),
        )
        writes = run.insert_us + run.delete_us
        # Warm-up writes (ingest_mixed) land in the WAL too.
        n_writes = sum(op[0] in ("insert", "delete") for ops in plan.warmup for op in ops)
        n_writes += len(writes)
        from run import quantile

        return {
            "wrong": run.wrong,
            "service.store_query_us": _median(run.query_us),
            "service.insert_us": _median(run.insert_us),
            "service.delete_us": _median(run.delete_us),
            "service.wal_bytes_per_write": (wal_bytes() - before) / n_writes,
            "service.write_p99_us": quantile(writes, 0.99),
        }
    finally:
        store.close()


def index_rung(corpus, plan, expected) -> Dict[str, float]:
    from repro.indexes.registry import build_index
    from workloads import INDEX_KEY, INDEX_PARAMS

    index = build_index(INDEX_KEY, corpus.collection(), **INDEX_PARAMS)
    run = replay(
        plan, expected,
        query=lambda spec: index.query(_q(spec)),
        insert=lambda op: index.insert(_obj(op)),
        delete=lambda op: index.delete(op[1]),
    )
    return {
        "wrong": run.wrong,
        "indexes.query_us": _median(run.query_us),
        "indexes.insert_us": _median(run.insert_us),
        "indexes.delete_us": _median(run.delete_us),
    }


def hint_rung(corpus, plan) -> Dict[str, float]:
    """HINT alone on the same intervals (deletes are not replayed: no answers checked)."""
    from repro.intervals.hint.cost_model import choose_num_bits
    from repro.intervals.hint.index import Hint

    records = list(zip(corpus.ids.tolist(), corpus.sts.tolist(), corpus.ends.tolist()))
    domain = (min(r[1] for r in records), max(r[2] for r in records))
    hint = Hint.build(records, num_bits=choose_num_bits(records, domain=domain))
    run = replay(
        plan, None,
        query=lambda spec: hint.range_query(spec[0], spec[1]),
        insert=lambda op: hint.insert(op[1], op[2], op[3]),
        delete=lambda op: None,
    )
    return {
        "intervals.hint_range_us": _median(run.query_us),
        "intervals.hint_insert_us": _median(run.insert_us),
    }


def segment_rungs(seg_dir: Path) -> Dict[str, float]:
    """Block decode and segment open over the segments in ``seg_dir``."""
    from repro.ir.codec import decode_block
    from repro.storage.reader import SegmentReader
    from workloads import now

    paths = sorted(seg_dir.glob("*.seg"))
    blocks, entries, total_bytes = [], 0, 0
    for path in paths:
        data = path.read_bytes()
        total_bytes += len(data)
        reader = SegmentReader(path)
        try:
            for descriptors in reader.directory.terms.values():
                for desc in descriptors:
                    offset, length = desc[0], desc[1]
                    blocks.append(data[offset : offset + length])
                    entries += desc[7]
        finally:
            reader.close()
    decode_us = []
    for block in _spread(blocks, DECODED_BLOCKS):
        t0 = now()
        decode_block(block)
        decode_us.append(_us(now() - t0))
    open_us = []
    for _ in range(OPEN_ROUNDS):
        for path in paths:
            t0 = now()
            SegmentReader(path).close()
            open_us.append(_us(now() - t0))
    return {
        "ir.decode_block_us": _median(decode_us),
        "ir.segment_bytes_per_entry": total_bytes / max(1, entries),
        "storage.segment_open_us": _median(open_us),
    }


# ------------------------------------------------------------ daemon side
def codec_timings(plan, loop) -> Dict[str, float]:
    """``encode_frame`` on the run's requests, ``decode_payload`` on its replies."""
    from repro.server import protocol
    from workloads import now

    def request(op) -> dict:
        if op[0] == "batch":
            queries = [{"start": s, "end": e, "elements": d} for s, e, d in op[1]]
            return {"id": 1, "verb": "batch", "tenant": "bench", "queries": queries}
        return {"id": 1, "verb": "query", "tenant": "bench", "start": op[1], "end": op[2],
                "elements": op[3]}

    encode_us, decode_us = [], []
    for ops, records in zip(plan.timed, loop.records):
        for op, rec in zip(ops, records):
            if op[0] not in ("query", "batch"):
                continue
            t0 = now()
            protocol.encode_frame(request(op))
            encode_us.append(_us(now() - t0) / rec.ops)
            if op[0] == "batch":
                result = {"results": [{"ids": ids, "count": len(ids), "complete": True}
                                      for ids in rec.answer], "complete": True}
            else:
                result = {"ids": rec.answer, "count": len(rec.answer), "complete": True}
            body = json.dumps(protocol.ok_response(1, result), separators=(",", ":")).encode()
            t0 = now()
            protocol.decode_payload(body)
            decode_us.append(_us(now() - t0) / rec.ops)
    return {"server.encode_us": _median(encode_us), "server.decode_us": _median(decode_us)}


def ping_rtt_us(daemon) -> float:
    from workloads import now

    rtts = []
    with daemon.client() as client:
        for _ in range(PINGS):
            t0 = now()
            client.ping()
            rtts.append(_us(now() - t0))
    return _median(rtts)


# ------------------------------------------------------------------ the run
def run_traced(workload, corpus, seed: int, seconds: float, work: Path) -> dict:
    """The ladder; the daemon loops run half of ``seconds`` each."""
    from loadgen import closed_loop
    from run import (
        check, end_to_end, expected_answers, quantile, report, result, segment_budget,
        setup_once,
    )
    from workloads import build_tenant, make_plan

    # Untraced and traced daemons, each over its own fresh tenant.
    rates, wrong, failed, attempted = [], 0, 0, 0
    for k, traced in enumerate((False, True)):
        _, shape, daemon = setup_once(workload, corpus, work / f"tenants{k}", metrics=traced)
        try:
            plan = make_plan(workload, corpus, shape, seed, seconds / 2)
            expected = expected_answers(workload, corpus, plan)
            loop = closed_loop(daemon, plan.warmup, plan.timed)
            if traced:
                ping_us = ping_rtt_us(daemon)
        finally:
            daemon.close()
        metrics, _, _, n = end_to_end(loop, 0.0, 0.0, 0)
        rates.append(metrics["ops_per_s"])
        w, f = check(corpus, plan, loop, expected)
        wrong, failed, attempted = wrong + w, failed + f, attempted + n

    ladder: Dict[str, float] = {"server.ping_rtt_us": ping_us}
    timed = [r for recs in loop.records for r in recs if r.verb in ("query", "batch")]
    ladder["server.query_rtt_us"] = _median([_us(r.latency_s) / r.ops for r in timed])
    ladder["server.query_p99_us"] = quantile([_us(r.latency_s) for r in timed], 0.99)
    ladder.update(codec_timings(plan, loop))

    # In-process rungs on a third fresh tenant, replaying the same operations.
    root = work / "tenants2"
    shape = build_tenant(workload, corpus, root)
    plan = ladder_plan(workload, plan)
    expected = expected_answers(workload, corpus, plan)
    for rung in (
        lambda: cluster_rung(plan, expected, root, segment_budget(workload, shape)),
        lambda: storage_rung(plan, root),
        lambda: segment_rungs(root / "bench" / "segments"),
        lambda: service_rung(corpus, plan, expected, work / "store"),
        lambda: index_rung(corpus, plan, expected),
        lambda: hint_rung(corpus, plan),
    ):
        out = rung()
        wrong += int(out.pop("wrong", 0))
        ladder.update(out)
    ladder["server.overhead_us"] = ladder["server.query_rtt_us"] - ladder["cluster.query_us"]
    ladder["trace.overhead_share"] = (rates[0] - rates[1]) / rates[0]
    ladder = {name: ladder[name] for name in LADDER_UNITS}
    report(workload, ladder, LADDER_UNITS, {"wrong answers": wrong, "failed ops": failed})
    return result(wrong, attempted, failed, ladder, LADDER_UNITS)
