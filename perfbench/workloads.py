"""Inputs of the daemon benchmark: corpus, tenants, seeded operation plans, oracle.

Everything the program under test receives is generated here, from
constants (the corpus) and from ``--seed`` (the operations).  The corpus
is fixed so every run starts from the same freshly built tenant; the
seed only changes which operations are sent.

An operation is a plain tuple:

* ``("query", st, end, elements)``
* ``("batch", [(st, end, elements), ...])``
* ``("insert", object_id, st, end, elements)``
* ``("delete", object_id)``
* ``("check", st, end, elements)``: a query of the write probe, sent as
  ``query`` but kept out of the read-latency figures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# --------------------------------------------------------------- the corpus
#: The synthetic shape of the paper's Table 4 at the repo's "small" scale:
#: zipf durations (alpha 1.2), normal midpoints (sigma 8M over a 128M
#: domain), 10 zipf-popular elements (zeta 1.25) from a 3000-word dictionary.
CORPUS_SEED = 7
DOMAIN = 128_000_000
SIGMA = 8_000_000.0
ALPHA = 1.2
ZETA = 1.25
DESC_SIZE = 10

#: ``--size`` → (objects, dictionary words).  ``tiny`` exists for the
#: benchmark's own tests.
SIZES = {"full": (8_000, 3_000), "tiny": (1_500, 600)}

INDEX_KEY = "irhint-perf"
INDEX_PARAMS: Dict[str, object] = {"num_bits": None}

#: Narrow queries cover 1 % of the domain.
NARROW = 0.01 * DOMAIN

#: Ids handed to inserted objects start here (bootstrap ids are < this).
FRESH_ID_BASE = 10_000_000

#: Write probe spread evenly through the first connection of read-only
#: workloads, so ``write_p50_ms`` is measured everywhere: this many
#: (insert, check, delete) triples on objects in the newest hot shard
#: tagged with an element no read query names, so read answers are
#: unchanged.  Spreading them, rather than a burst after the loop, makes
#: their fsyncs sample the whole run.
PROBE_WRITES = 50
PROBE_ELEMENT = "probe"

Spec = Tuple[int, int, List[str]]  # (st, end, elements)


@dataclass(frozen=True)
class Corpus:
    ids: np.ndarray
    sts: np.ndarray
    ends: np.ndarray
    descriptions: List[List[str]]

    def __len__(self) -> int:
        return len(self.ids)

    def objects(self):
        from repro.core.model import make_object

        return [
            make_object(int(i), int(s), int(e), d)
            for i, s, e, d in zip(self.ids, self.sts, self.ends, self.descriptions)
        ]

    def collection(self):
        from repro.core.collection import Collection

        return Collection(self.objects())


def make_corpus(size: str = "full") -> Corpus:
    n, dict_size = SIZES[size]
    rng = np.random.default_rng(CORPUS_SEED)
    durations = np.minimum(rng.zipf(ALPHA, size=n), DOMAIN - 1).astype(np.int64)
    mids = rng.normal(DOMAIN / 2.0, SIGMA, size=n)
    sts = np.clip(np.rint(mids - durations / 2.0).astype(np.int64), 0, DOMAIN - 1 - durations)
    weights = np.arange(1, dict_size + 1, dtype=np.float64) ** (-ZETA)
    weights /= weights.sum()
    draws = rng.choice(dict_size, size=(n, 3 * DESC_SIZE), p=weights)
    descriptions = []
    for row in draws:
        words = list(dict.fromkeys(row.tolist()))[:DESC_SIZE]
        descriptions.append(sorted(f"e{w}" for w in words))
    return Corpus(np.arange(n, dtype=np.int64), sts, sts + durations, descriptions)


# ------------------------------------------------------------ the workloads
@dataclass(frozen=True)
class Workload:
    name: str
    shards: int
    #: Demote every bounded shard to a segment and cap the segment cache.
    cold: bool
    connections: int
    #: Operations per second of ``--seconds``: a run sends exactly
    #: ``seconds * planned_rate`` timed operations, whatever the host's speed.
    planned_rate: float
    batch_size: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("serve_hot", shards=4, cold=False, connections=2, planned_rate=2000),
        Workload(
            "batch_hot", shards=4, cold=False, connections=1, planned_rate=140,
            batch_size=32,
        ),
        Workload("history_cold", shards=8, cold=True, connections=1, planned_rate=180),
        Workload("ingest_mixed", shards=4, cold=False, connections=1, planned_rate=1300),
    )
}

#: Share of the timed operation count sent first, untimed, as warm-up.
WARMUP_SHARE = 0.1


@dataclass(frozen=True)
class TenantShape:
    """What plan generation needs to know about the built tenant."""

    #: Lower bound of the open-ended newest shard (always hot).
    newest_lo: int
    segment_bytes: int


@dataclass
class Plan:
    warmup: List[List[tuple]]  # per connection
    timed: List[List[tuple]]  # per connection


def build_tenant(workload: Workload, corpus: Corpus, root: Path) -> TenantShape:
    """Lay one fresh cluster tenant down under ``root/bench``."""
    from repro.cluster import TemporalCluster

    cluster = TemporalCluster.create(
        root / "bench",
        corpus.collection(),
        index_key=INDEX_KEY,
        index_params=INDEX_PARAMS,
        n_shards=workload.shards,
        wal_fsync=True,
        cache_size=0,
    )
    with cluster:
        segment_bytes = 0
        if workload.cold:
            for spec in cluster.table.shards:
                if spec.hi is not None:
                    segment_bytes += cluster.demote(spec.shard_id).stat().st_size
        newest = cluster.table.shards[-1]
        if newest.hi is not None or newest.lo is None:
            raise RuntimeError(f"expected an open-ended newest shard, got {newest}")
        return TenantShape(newest_lo=int(newest.lo), segment_bytes=segment_bytes)


# ----------------------------------------------------------------- the plans
class _Gen:
    """Seeded query/write generator over the corpus."""

    def __init__(self, corpus: Corpus, seed: int) -> None:
        self.corpus = corpus
        self.rng = random.Random(seed)
        self.seen: set = set()

    def fresh(self, make) -> Spec:
        """The first spec from ``make`` not yet generated in this run."""
        while True:
            spec = make()
            key = (spec[0], spec[1], tuple(spec[2]))
            if key not in self.seen:
                self.seen.add(key)
                return spec

    def query_at(self, row: int, extent: float, n_elements: int, hi: Optional[int] = None) -> Spec:
        """A query of ``extent`` overlapping object ``row``, ending before ``hi``."""
        c, rng = self.corpus, self.rng
        st, end = int(c.sts[row]), int(c.ends[row])
        length = int(extent)
        lo_bound = max(0, st - length)
        hi_bound = min(end, DOMAIN - length)
        if hi is not None:
            hi_bound = min(hi_bound, hi - 1 - length)
        q_st = rng.randint(lo_bound, max(lo_bound, hi_bound))
        words = c.descriptions[row]
        elements = sorted(rng.sample(words, min(n_elements, len(words))))
        return q_st, q_st + length, elements

    def narrow(self, rows: Sequence[int], hi: Optional[int] = None) -> Spec:
        return self.fresh(
            lambda: self.query_at(self.rng.choice(rows), NARROW, 3, hi)
        )

    def mixed(self) -> Spec:
        extent = self.rng.choice((0.0001, 0.001, 0.01, 0.05, 0.1)) * DOMAIN
        n_elements = self.rng.randint(1, 5)
        return self.fresh(
            lambda: self.query_at(self.rng.randrange(len(self.corpus)), extent, n_elements)
        )


def _rows_where(mask: np.ndarray) -> List[int]:
    return np.flatnonzero(mask).tolist()


def make_plan(
    workload: Workload, corpus: Corpus, shape: TenantShape, seed: int, seconds: float
) -> Plan:
    """The run's operations: a pure function of its arguments."""
    n_timed = max(1, round(seconds * workload.planned_rate / workload.connections))
    n_warm = max(4, round(n_timed * WARMUP_SHARE))
    gen = _Gen(corpus, seed)
    if workload.name == "ingest_mixed":
        warm, timed = _ingest_ops(gen, shape, n_warm, n_timed)
        return Plan([warm], [timed])
    if workload.name == "batch_hot":
        def read_op() -> tuple:
            return ("batch", [gen.mixed() for _ in range(workload.batch_size)])
    else:
        if workload.cold:
            # Every query ends before the newest (hot) shard begins.
            rows = _rows_where(corpus.ends < shape.newest_lo - NARROW)
            hi: Optional[int] = shape.newest_lo
        else:
            rows, hi = list(range(len(corpus))), None

        def read_op() -> tuple:
            return ("query", *gen.narrow(rows, hi))

    conns = workload.connections
    warmup = [[read_op() for _ in range(n_warm)] for _ in range(conns)]
    timed = [[read_op() for _ in range(n_timed)] for _ in range(conns)]
    timed[0] = _with_probe(timed[0], gen, shape)
    return Plan(warmup, timed)


def _with_probe(stream: List[tuple], gen: _Gen, shape: TenantShape) -> List[tuple]:
    """``stream`` with the write probe's triples spread evenly through it."""
    st0 = shape.newest_lo + 1
    check = ("check", st0, st0 + 10 * PROBE_WRITES + 100, [PROBE_ELEMENT])
    out: List[tuple] = []
    for k in range(PROBE_WRITES):
        lo = k * len(stream) // PROBE_WRITES
        out += stream[lo : (k + 1) * len(stream) // PROBE_WRITES]
        oid, st = FRESH_ID_BASE + 900_000 + k, st0 + 10 * k
        out += [
            ("insert", oid, st, st + gen.rng.randint(1, 50), [PROBE_ELEMENT]),
            check,
            ("delete", oid),
        ]
    return out


def _ingest_ops(gen: _Gen, shape: TenantShape, n_warm: int, n_timed: int):
    """~60 % recent narrow queries, ~25 % appends, ~15 % deletes."""
    c, rng = gen.corpus, gen.rng
    recent_lo = shape.newest_lo
    max_st = int(c.sts.max())
    recent_rows = _rows_where(c.sts >= recent_lo)
    live_boot = list(range(len(c)))
    live_new: List[Tuple[int, int, int, List[str]]] = []
    total = n_warm + n_timed
    clock = recent_lo
    step = max(1, (max_st - recent_lo) // max(1, int(total * 0.3)))
    next_id = FRESH_ID_BASE
    ops: List[tuple] = []
    for _ in range(total):
        roll = rng.random()
        if roll < 0.60:
            if live_new and rng.random() < 0.5:
                st, end, d = rng.choice(live_new)[1:]

                def around() -> Spec:
                    q_st = rng.randint(max(0, st - int(NARROW)), end)
                    return q_st, q_st + int(NARROW), sorted(rng.sample(d, min(2, len(d))))

                spec = gen.fresh(around)
            else:
                spec = gen.narrow(recent_rows)
            ops.append(("query", *spec))
        elif roll < 0.85:
            clock += rng.randint(1, 2 * step)
            st = clock if rng.random() < 0.9 else rng.randint(recent_lo, clock)
            end = st + min(int(rng.paretovariate(1.2)), int(NARROW))
            d = list(c.descriptions[rng.choice(recent_rows)])
            live_new.append((next_id, st, end, d))
            ops.append(("insert", next_id, st, end, d))
            next_id += 1
        else:
            if live_new and rng.random() < 0.5:
                victim = live_new.pop(rng.randrange(len(live_new)))[0]
            else:
                victim = live_boot.pop(rng.randrange(len(live_boot)))
            ops.append(("delete", victim))
    return ops[:n_warm], ops[n_warm:]


def count_ops(ops: Sequence[tuple]) -> int:
    """Operations in a stream; each query inside a batch counts as one."""
    return sum(len(op[1]) if op[0] == "batch" else 1 for op in ops)


# ------------------------------------------------------------------ the oracle
class ScanOracle:
    """BruteForce's predicate as a vectorised scan over the fixed corpus.

    ``repro.indexes.brute.BruteForce`` answers ``obj.st <= q.end and
    q.st <= obj.end and obj.d >= q.d`` by a Python loop; this evaluates
    the same predicate with numpy so a whole run's read answers can be
    precomputed before timing.  :func:`cross_check` holds it to the real
    BruteForce on a sample every run.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        postings: Dict[str, List[int]] = {}
        for row, words in enumerate(corpus.descriptions):
            for w in words:
                postings.setdefault(w, []).append(row)
        self.word = {w: i for i, w in enumerate(postings)}
        self.rows = [np.asarray(rows, dtype=np.int64) for rows in postings.values()]
        self.member = np.zeros((len(self.rows), len(corpus)), dtype=bool)
        for i, rows in enumerate(self.rows):
            self.member[i, rows] = True

    def query(self, st: int, end: int, elements: Sequence[str]) -> List[int]:
        c = self.corpus
        if elements:
            words = [self.word.get(w) for w in elements]
            if None in words:
                return []
            words.sort(key=lambda i: len(self.rows[i]))
            rows = self.rows[words[0]]
            for i in words[1:]:
                rows = rows[self.member[i, rows]]
            keep = rows[(c.sts[rows] <= end) & (c.ends[rows] >= st)]
        else:
            keep = np.flatnonzero((c.sts <= end) & (c.ends >= st))
        return c.ids[keep].tolist()


def cross_check(oracle: ScanOracle, brute, specs: Sequence[Spec]) -> int:
    """Mismatches between the scan oracle and a BruteForce index."""
    from repro.core.model import make_query

    return sum(
        oracle.query(*spec) != brute.query(make_query(*spec)) for spec in specs
    )


def expected_reads(oracle: ScanOracle, stream: Sequence[tuple]) -> List[object]:
    """Answers for a read stream: a list per query, a list of lists per batch.

    Probe objects carry only :data:`PROBE_ELEMENT`, which no read query
    names, so reads see the fixed corpus; checks see the live probe objects.
    """
    out: List[object] = []
    probes: Dict[int, Tuple[int, int]] = {}
    for op in stream:
        if op[0] == "query":
            out.append(oracle.query(*op[1:]))
        elif op[0] == "batch":
            out.append([oracle.query(*spec) for spec in op[1]])
        elif op[0] == "check":
            out.append(sorted(i for i, (s, e) in probes.items() if s <= op[2] and e >= op[1]))
        else:
            if op[0] == "insert":
                probes[op[1]] = (op[2], op[3])
            else:
                probes.pop(op[1], None)
            out.append(None)
    return out


def replay_brute(corpus: Corpus, streams: Sequence[Sequence[tuple]]) -> List[List[object]]:
    """Replay op streams in order on an in-process BruteForce; answers per op."""
    from repro.core.model import make_object, make_query
    from repro.indexes.brute import BruteForce

    brute = BruteForce.build(corpus.collection())
    out = []
    for stream in streams:
        answers: List[object] = []
        for op in stream:
            if op[0] in ("query", "check"):
                answers.append(brute.query(make_query(*op[1:])))
            elif op[0] == "insert":
                brute.insert(make_object(*op[1:]))
                answers.append(None)
            elif op[0] == "delete":
                brute.delete(op[1])
                answers.append(None)
            else:
                answers.append([brute.query(make_query(*spec)) for spec in op[1]])
        out.append(answers)
    return out


def du_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def now() -> float:
    return time.perf_counter()
