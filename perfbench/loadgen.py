"""The daemon process and the closed-loop load generator that drives it.

The daemon runs in a process of its own.  The benchmark process is the
single load generator: one thread multiplexes every connection, and each
connection sends its operations in order, sending the next only after the
reply to the previous one arrived (a closed loop), so the request rate is
what the daemon achieved, never an offered rate.  Nothing retries: an
error reply, a ``complete: false`` partial or a lost connection counts as
a failed operation.

On a host with two or more CPUs the daemon is pinned to the first and the
load generator to the last, and the load generator polls its sockets
instead of sleeping on them: probes on a shared two-CPU host showed that
cross-CPU wake-ups, not the daemon's work, set most of the run-to-run
spread of sub-millisecond round trips.
"""

from __future__ import annotations

import gc
import os
import random
import select
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

TENANT = "bench"
DAEMON_SCRIPT = Path(__file__).resolve().parent / "daemon_proc.py"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: A connection with no reply for this long fails the run.
STALL_S = 60.0

_HEADER = struct.Struct("!I")
CPUS = sorted(os.sched_getaffinity(0))
#: Poll instead of sleeping only when the daemon has a CPU of its own.
SPIN = len(CPUS) >= 2


def pin_load_generator() -> None:
    """Keep the benchmark process off the daemon's CPU."""
    if SPIN:
        os.sched_setaffinity(0, {CPUS[-1]})


class DaemonProcess:
    """``daemon_proc.py`` in a child process, stopped in ``close``."""

    def __init__(
        self,
        root: Path,
        *,
        trace_seed: int,
        segment_cache_bytes: Optional[int] = None,
        metrics: bool = False,
    ) -> None:
        cmd = [sys.executable, str(DAEMON_SCRIPT), str(root), "--trace-seed", str(trace_seed)]
        if segment_cache_bytes is not None:
            cmd += ["--segment-cache-bytes", str(segment_cache_bytes)]
        if metrics:
            cmd.append("--metrics")
        if SPIN:
            cmd += ["--cpu", str(CPUS[0])]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.port: Optional[int] = None
        try:
            self.port = self._read_port()
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("port "):
            raise RuntimeError(f"daemon did not start (first line {line!r})")
        return int(line.split()[1])

    def client(self):
        """A control-verb client (ping, metrics, shutdown)."""
        from repro.server import DaemonClient
        from repro.utils.retry import RetryPolicy

        return DaemonClient(
            "127.0.0.1",
            self.port,
            timeout=60.0,
            retry=RetryPolicy(max_attempts=1),
            rng=random.Random(0),
            idempotent_mutations=False,
        )

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        """Drain via the ``shutdown`` verb, then make sure the process is gone."""
        from repro.core.errors import ReproError

        if self.proc.poll() is None:
            if self.port is not None:
                try:
                    with self.client() as client:
                        client.shutdown()
                except ReproError:
                    pass  # not answering: terminate below
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@dataclass
class Record:
    """One operation as the client saw it."""

    verb: str
    latency_s: float
    done_s: float
    ops: int  # queries in a batch, else 1
    ok: bool
    answer: object = None  # ids, list of ids per batch query, or None


def request(request_id: int, op: tuple) -> dict:
    verb = "query" if op[0] == "check" else op[0]
    payload = {"id": request_id, "verb": verb, "tenant": TENANT}
    if verb == "query":
        payload.update(start=op[1], end=op[2], elements=op[3])
    elif verb == "batch":
        payload["queries"] = [{"start": s, "end": e, "elements": d} for s, e, d in op[1]]
    elif verb == "insert":
        payload.update(object_id=op[1], start=op[2], end=op[3], elements=op[4])
    else:
        payload["object_id"] = op[1]
    return payload


def outcome(op: tuple, response: dict) -> tuple:
    """``(ok, answer)`` of one reply."""
    if not response.get("ok"):
        return False, response.get("error")
    result = response.get("result") or {}
    if op[0] in ("query", "check"):
        return bool(result.get("complete")), result.get("ids")
    if op[0] == "batch":
        parts = result.get("results") or []
        ok = bool(result.get("complete")) and all(p.get("complete") for p in parts)
        return ok, [p.get("ids") for p in parts]
    return True, None


class Connection:
    """One closed-loop connection: at most one request in flight."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=STALL_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Non-blocking: a socket with a timeout waits in poll() inside recv,
        # which would serialise the connections this thread multiplexes.
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.ops: Sequence[tuple] = ()
        self.records: List[Record] = []
        self.pos = 0
        self.sent_at = 0.0

    def start(self, ops: Sequence[tuple], records: List[Record]) -> None:
        self.ops, self.records, self.pos = ops, records, 0
        self._send()

    @property
    def finished(self) -> bool:
        return self.pos >= len(self.ops)

    def _send(self) -> None:
        from repro.server.protocol import encode_frame

        data = memoryview(encode_frame(request(self.pos, self.ops[self.pos])))
        self.sent_at = time.perf_counter()
        while data:
            try:
                data = data[self.sock.send(data) :]
            except BlockingIOError:
                select.select([], [self.sock], [], STALL_S)

    def poll(self) -> bool:
        """Consume a complete reply if one has arrived; True if one did."""
        from repro.server.protocol import decode_payload

        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            chunk = None
        except OSError:
            chunk = b""
        if chunk == b"":
            self._fail_rest()
            return True
        if chunk:
            self.buf += chunk
        if len(self.buf) < _HEADER.size:
            return False
        (length,) = _HEADER.unpack_from(self.buf)
        if len(self.buf) < _HEADER.size + length:
            return False
        done = time.perf_counter()
        body = bytes(self.buf[_HEADER.size : _HEADER.size + length])
        del self.buf[: _HEADER.size + length]
        op = self.ops[self.pos]
        ok, answer = outcome(op, decode_payload(body))
        self.records.append(Record(op[0], done - self.sent_at, done, _ops(op), ok, answer))
        self.pos += 1
        if not self.finished:
            self._send()
        return True

    def _fail_rest(self) -> None:
        """The connection is gone: every unanswered operation failed."""
        now = time.perf_counter()
        for op in self.ops[self.pos :]:
            self.records.append(Record(op[0], now - self.sent_at, now, _ops(op), False, "lost"))
        self.pos = len(self.ops)

    def close(self) -> None:
        self.sock.close()


def _ops(op: tuple) -> int:
    return len(op[1]) if op[0] == "batch" else 1


def drive(conns: Sequence[Connection], streams: Sequence[Sequence[tuple]]) -> List[List[Record]]:
    """Run one stream per connection to completion; records per connection."""
    records: List[List[Record]] = [[] for _ in conns]
    active = []
    for conn, ops, recs in zip(conns, streams, records):
        if ops:
            conn.start(ops, recs)
            active.append(conn)
    last = time.perf_counter()
    while active:
        if not SPIN:
            ready, _, _ = select.select([c.sock for c in active], [], [], STALL_S)
            if not ready:
                raise RuntimeError(f"no reply from the daemon for {STALL_S:.0f}s")
        progressed = False
        for conn in list(active):
            while conn.poll():
                progressed = True
                if conn.finished:
                    active.remove(conn)
                    break
        now = time.perf_counter()
        if progressed:
            last = now
        elif now - last > STALL_S:
            raise RuntimeError(f"no reply from the daemon for {STALL_S:.0f}s")
    return records


@dataclass
class LoopResult:
    records: List[List[Record]]  # per connection, in send order
    started_s: float


def closed_loop(
    daemon: DaemonProcess,
    warmup: Sequence[Sequence[tuple]],
    timed: Sequence[Sequence[tuple]],
) -> LoopResult:
    """Warm every connection up, then run the timed streams together.

    The load generator's own garbage collector is paused meanwhile, so its
    pauses are not timed as the daemon's.
    """
    conns = [Connection(daemon.port) for _ in timed]
    gc.disable()
    try:
        drive(conns, warmup)
        started = time.perf_counter()
        return LoopResult(drive(conns, timed), started)
    finally:
        gc.enable()
        for conn in conns:
            conn.close()
