"""Closed-loop load generator for the served workloads (driver side).

One asyncio task per connection, ``SERVE_CONNECTIONS`` (= nproc = 2)
connections, each multiplexing four tenants.  A tenant has at most
``window`` ops outstanding; the next one is sent when a reply for that
tenant arrives — sessions really do wait for the durable reply, so a slow
server receives less load (closed loop; see the README for why an open
loop cannot gate anything on this class of host).

Latency is write -> reply line received, stamped before the reply is
parsed.  Everything the oracle needs is collected from the wire alone:
transaction outcomes, query results, pushed firing notifications.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from spine import workloads as wl

now = time.perf_counter


@dataclass
class TenantResult:
    #: seconds, aligned with the tenant's op list
    latency: list
    #: when each op was written (``perf_counter``; the traced pass lines
    #: it up with the server's spans)
    sent: list
    #: per op: ``committed`` for a txn, the returned rows for a query,
    #: ``None`` for an error reply
    outcome: list
    #: per op: how many of the tenant's ops were known to be applied when
    #: this one was sent (index after the last answered transaction)
    floor: list
    #: pushed ``(rule, bindings, state_index, timestamp)`` in arrival order
    firings: list = field(default_factory=list)
    vetoes: int = 0
    errors: list = field(default_factory=list)
    #: filled by :func:`final_probe`
    state_count: int = -1
    final_rows: list = field(default_factory=list)


class Connection:
    def __init__(self, inputs: wl.ServedInputs, tenant_indices: list, results):
        self.inputs = inputs
        self.indices = tenant_indices
        self.results = results
        self.reader = self.writer = None

    async def open(self, sock: str) -> None:
        self.reader, self.writer = await asyncio.open_unix_connection(
            sock, limit=1 << 20
        )
        for i in self.indices:
            name = self.inputs.tenants[i].tenant
            reply = await self.request({"op": "open", "tenant": name})
            if not reply.get("ok"):
                raise RuntimeError(f"open {name} refused: {reply}")

    async def request(self, payload: dict) -> dict:
        """One untimed request/reply (set-up and the final probe)."""
        self.writer.write((json.dumps(payload) + "\n").encode())
        while True:
            frame = json.loads(await self.reader.readline())
            if "ev" not in frame:
                return frame
            self.note_event(frame)

    def note_event(self, frame: dict) -> None:
        index = int(frame["tenant"][-2:])
        result = self.results[index]
        if frame["ev"] == "firing":
            result.firings.append(
                (
                    frame["rule"],
                    tuple(tuple(b) for b in frame["bindings"]),
                    frame["state_index"],
                    frame["timestamp"],
                )
            )
        else:
            result.vetoes += 1

    async def drive(self) -> None:
        tenants, results = self.inputs.tenants, self.results
        write, readline = self.writer.write, self.reader.readline
        stride = wl.FRAME_ID_STRIDE
        cursor = {i: 0 for i in self.indices}
        applied = {i: 0 for i in self.indices}
        pending = 0

        def send_next(i) -> int:
            k, frames = cursor[i], tenants[i].frames
            if k == len(frames):
                return 0
            cursor[i] = k + 1
            results[i].floor[k] = applied[i]
            results[i].sent[k] = now()
            write(frames[k])
            return 1

        for i in self.indices:
            for _ in range(self.inputs.window):
                pending += send_next(i)
        while pending:
            line = await readline()
            received = now()
            if not line:
                raise RuntimeError("server closed the connection")
            frame = json.loads(line)
            if "ev" in frame:
                self.note_event(frame)
                continue
            i, k = divmod(frame["id"], stride)
            result = results[i]
            result.latency[k] = received - result.sent[k]
            if not frame["ok"]:
                result.errors.append(frame["error"])
            elif "committed" in frame:
                result.outcome[k] = frame["committed"]
                applied[i] = k + 1  # a tenant's drains answer in order
            else:
                result.outcome[k] = frame["rows"]
            pending += send_next(i) - 1

    async def final_probe(self) -> None:
        for i in self.indices:
            name = self.inputs.tenants[i].tenant
            stats = await self.request({"op": "stats", "tenant": name})
            self.results[i].state_count = stats["tenant"]["state_count"]
            rows = await self.request(
                {"op": "query", "tenant": name, "text": wl.SERVE_FINAL_QUERY}
            )
            self.results[i].final_rows = rows["rows"]

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


async def run_load(
    sock: str, inputs: wl.ServedInputs, on_ready, on_done
):
    """Open every tenant (set-up), call ``on_ready()``, drive the closed
    loop, call ``on_done()``, probe the final state.  Returns
    ``(results, elapsed seconds)``."""
    results = [
        TenantResult(
            latency=[0.0] * len(t.ops), sent=[0.0] * len(t.ops),
            outcome=[None] * len(t.ops), floor=[0] * len(t.ops),
        )
        for t in inputs.tenants
    ]
    connections = [
        Connection(inputs, indices, results) for indices in inputs.connections
    ]
    try:
        await asyncio.gather(*(c.open(sock) for c in connections))
        on_ready()
        start = now()
        await asyncio.gather(*(c.drive() for c in connections))
        elapsed = now() - start
        on_done()
        await asyncio.gather(*(c.final_probe() for c in connections))
    finally:
        for c in connections:
            c.close()
    return results, elapsed
