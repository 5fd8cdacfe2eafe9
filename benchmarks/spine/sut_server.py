"""System under test, served flavour: a real :class:`repro.serve.ReproServer`
on a unix socket, in a child process of its own.

Started by ``run.py``::

    sut_server.py --root DIR [--trace PATH]

The server runs on its defaults (``StockProfile``, ``fsync=True``); the
benchmark passes no backend switch, so a later change of a default shows
up as a movement.  Control protocol, one line each way:

* stdout ``READY <socket path>`` once the server listens;
* stdin ``mark NAME`` -> CPU spent so far (and, when tracing, a phase
  mark) — the driver brackets the timed phase with two;
* stdin ``stats`` -> public counters summed over the resident tenants;
* stdin ``dump`` -> the spans are written to the ``--trace`` path.

The driver ends the child with SIGKILL (a crash, not a close); closing
stdin also ends it, so an interrupted driver leaves no server behind.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0] = str(HERE.parent)  # the benchmark's modules: package ``spine``

from spine.probes import (  # noqa: E402
    cpu_seconds,
    peak_rss_kb,
    plan_counters,
    query_counters,
)


def tenant_stats(server) -> dict:
    tenants = [
        server.registry.resident_tenant(t) for t in server.registry.resident
    ]
    counters: dict = {}
    for tenant in tenants:
        for key, value in plan_counters(tenant.manager).items():
            counters[key] = counters.get(key, 0) + value
    # Ratios do not add up: report the mean over tenants instead.
    for key in ("ptl.dedup_ratio", "rules.skip_ratio"):
        counters[key] = counters.get(key, 0) / max(1, len(tenants))
    counters.update(query_counters())
    counters["engine.states"] = sum(t.engine.state_count for t in tenants)
    counters["wal.records"] = sum(
        t.recovery.wal.records_written for t in tenants
    )
    counters["wal.bytes"] = sum(
        t.recovery.wal_path.stat().st_size for t in tenants
    )
    counters["serve.backpressure"] = server.metrics.counter(
        "serve_backpressure_total"
    ).value
    return {
        "state_size": sum(t.manager.total_state_size() for t in tenants),
        "peak_rss_kb": peak_rss_kb(),
        "counters": counters,
    }


async def serve(args) -> None:
    tracer = None
    if args.trace:
        from spine import trace

        tracer = trace.install()
    from repro.serve import ReproServer, StockProfile

    sock = os.path.join(args.root, "serve.sock")
    server = ReproServer(args.root, StockProfile(), unix_path=sock)
    await server.start()

    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    print(f"READY {sock}", flush=True)
    while True:
        line = (await stdin.readline()).decode().split()
        if not line:
            return  # the driver is gone
        if line[0] == "mark":
            if tracer is not None:
                tracer.mark(line[1])
            reply = {"cpu": cpu_seconds()}
        elif line[0] == "stats":
            reply = tenant_stats(server)
        elif line[0] == "dump":
            tracer.dump(args.trace)
            reply = {"spans": len(tracer.spans)}
        else:
            reply = {"error": f"unknown command {line[0]!r}"}
        print(json.dumps(reply), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", default=None)
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
