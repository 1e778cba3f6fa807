"""Serve a tenant root with repro's QueryDaemon in a process of its own.

Usage::

    python3 perfbench/daemon_proc.py ROOT --trace-seed N
        [--segment-cache-bytes B] [--metrics] [--cpu C]

Keeps ``ServerConfig()`` defaults (result cache off, WAL fsync on) except
the fixed ``trace_seed``, so the default 1 % sampling picks the same
requests every run, and the per-tenant segment-cache budget.
``--metrics`` installs an enabled metrics registry (the traced run only).
Prints ``port N`` once accepting; drains on the ``shutdown`` verb or
SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root")
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--segment-cache-bytes", type=int, default=None)
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="pin the daemon to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.obs.instruments import register_catalog
    from repro.obs.registry import MetricsRegistry, set_registry
    from repro.server import QueryDaemon, ServerConfig, TenantRegistry

    if args.metrics:
        set_registry(register_catalog(MetricsRegistry(enabled=True)))
    tenants = TenantRegistry.open_root(
        args.root, segment_cache_bytes=args.segment_cache_bytes
    )
    config = ServerConfig(trace_seed=args.trace_seed)

    async def serve() -> None:
        daemon = QueryDaemon(tenants, config)
        await daemon.start()
        print(f"port {daemon.port}", flush=True)
        await daemon.run_until_drained()

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
