"""Asyncio multi-tenant server over the newline-delimited JSON protocol.

:class:`ReproServer` hosts many isolated tenant databases in one
process: each connection is a :class:`Session` streaming requests in and
replies/notifications out; the :class:`~repro.serve.tenant.TenantRegistry`
lazily opens (or crash-recovers) tenants under namespaced durable
directories; the :class:`~repro.serve.admission.AdmissionController`
bounds per-tenant ingest and drains admitted transactions through the
engine's WAL group commit.  A background sweeper evicts idle tenants
checkpoint-then-close.

The server listens on TCP (``host``/``port``) or a Unix socket
(``unix_path``) — the tests and the benchmark use Unix sockets so runs
never depend on free ports.  Everything runs on one event loop: tenant
engines are plain synchronous code, so per-tenant work is serialized by
construction and the cross-tenant isolation oracle (served firings ==
standalone engines) holds without any tenant-level locking beyond the
per-tenant drain/evict lock.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import time
from typing import Any, Optional

from repro.errors import (
    ProtocolError,
    StorageDegradedError,
    TenantError,
)
from repro.obs.metrics import as_registry
from repro.query.evaluator import eval_query
from repro.query.parser import parse_query
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    ERR_DEGRADED,
    ERR_INTERNAL,
    ERR_INVALID,
    ERR_OVERSIZED,
    ERR_QUERY,
    ERR_TENANT_ALREADY_OPEN,
    ERR_TENANT_BUSY,
    ERR_TENANT_NOT_OPEN,
    PROTOCOL_VERSION,
    compile_statements,
    decode_frame,
    encode_frame,
    error_reply,
    firing_notification,
    ok_reply,
    veto_notification,
)
from repro.serve.tenant import Tenant, TenantProfile, TenantRegistry

_session_tokens = itertools.count(1)


class Session:
    """One connected client: a reader loop whose frames are written in
    call order straight to the transport."""

    def __init__(self, server: "ReproServer", reader, writer):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.token = next(_session_tokens)
        #: Tenant ids this session has opened (and is notified about).
        self.tenants: set[str] = set()
        self.closed = False

    # -- writing -----------------------------------------------------------

    def send(self, payload: dict) -> None:
        """Write one frame now.  The transport keeps frames in call order;
        :meth:`run` applies backpressure by draining between reads."""
        if self.closed or self.writer.is_closing():
            self.closed = True
            return
        self.writer.write(encode_frame(payload))

    #: The notification pump's subscriber callback.
    post = send

    # -- reading -----------------------------------------------------------

    async def run(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # The frame outgrew the stream limit mid-line; NDJSON
                # cannot resynchronise, so reply typed and close.
                self.send(
                    error_reply(
                        ProtocolError(
                            ERR_OVERSIZED,
                            f"frame exceeds the "
                            f"{self.server.max_frame}-byte limit",
                            max_frame=self.server.max_frame,
                        )
                    )
                )
                break
            except (ConnectionError, asyncio.IncompleteReadError):
                break
            if not line:
                break
            await self.dispatch_line(line)
            if self.closed:
                break
            # A peer that does not read its replies is not read either:
            # past the transport's high-water mark this waits.
            try:
                await self.writer.drain()
            except ConnectionError:
                break

    async def dispatch_line(self, line: bytes) -> None:
        server = self.server
        try:
            frame = decode_frame(line, server.max_frame)
        except ProtocolError as exc:
            server.count_error(exc.type)
            # Echo the client's frame id when the line parsed as an
            # object (invalid_request / unknown_op): pipelined clients
            # correlate replies by id.
            frame_id = None
            try:
                parsed = json.loads(line)
                if isinstance(parsed, dict):
                    frame_id = parsed.get("id")
            except Exception:
                pass
            self.send(error_reply(exc, frame_id))
            if exc.type == ERR_OVERSIZED:
                self.closed = True
            return
        frame_id = frame.get("id")
        op = frame["op"]
        server.metrics.counter("serve_requests_total", op=op).inc()
        try:
            await getattr(self, f"op_{op}")(frame, frame_id)
        except ProtocolError as exc:
            server.count_error(exc.type)
            self.send(error_reply(exc, frame_id))
        except StorageDegradedError as exc:
            server.count_error(ERR_DEGRADED)
            self.send(
                error_reply(
                    ProtocolError(ERR_DEGRADED, str(exc), reason=exc.reason),
                    frame_id,
                )
            )
        except TenantError as exc:
            server.count_error(ERR_TENANT_BUSY)
            self.send(
                error_reply(
                    ProtocolError(ERR_TENANT_BUSY, str(exc)), frame_id
                )
            )
        except Exception as exc:  # noqa: BLE001 — typed reply, keep serving
            server.count_error(ERR_INTERNAL)
            self.send(
                error_reply(
                    ProtocolError(
                        ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                    ),
                    frame_id,
                )
            )
        return

    # -- request handlers --------------------------------------------------

    async def op_hello(self, frame: dict, frame_id) -> None:
        self.send(
            ok_reply(
                frame_id,
                server="repro-serve",
                protocol=PROTOCOL_VERSION,
                max_frame=self.server.max_frame,
                profile=self.server.registry.profile.name,
            )
        )

    async def op_ping(self, frame: dict, frame_id) -> None:
        self.send(ok_reply(frame_id, pong=True))

    def _tenant_id(self, frame: dict) -> str:
        tenant_id = frame.get("tenant")
        return TenantRegistry.validate_id(tenant_id)

    async def _open_tenant(self, frame: dict) -> Tenant:
        """Resolve a tenant this session opened (reopening it
        transparently if it was evicted in between)."""
        tenant_id = self._tenant_id(frame)
        if tenant_id not in self.tenants:
            raise ProtocolError(
                ERR_TENANT_NOT_OPEN,
                f"tenant {tenant_id!r} is not open on this session",
                tenant=tenant_id,
            )
        return await self.server.registry.get(tenant_id)

    async def op_open(self, frame: dict, frame_id) -> None:
        tenant_id = self._tenant_id(frame)
        if tenant_id in self.tenants:
            raise ProtocolError(
                ERR_TENANT_ALREADY_OPEN,
                f"tenant {tenant_id!r} is already open on this session",
                tenant=tenant_id,
            )
        tenant = await self.server.registry.get(tenant_id)
        self.tenants.add(tenant_id)
        self.server.registry.subscribe(tenant_id, self.token, self.post)
        self.send(
            ok_reply(
                frame_id,
                tenant=tenant_id,
                recovered=tenant.recovered,
                state_count=tenant.engine.state_count,
                clock=tenant.engine.now,
            )
        )

    async def op_close(self, frame: dict, frame_id) -> None:
        tenant_id = self._tenant_id(frame)
        if tenant_id not in self.tenants:
            raise ProtocolError(
                ERR_TENANT_NOT_OPEN,
                f"tenant {tenant_id!r} is not open on this session",
                tenant=tenant_id,
            )
        self.tenants.discard(tenant_id)
        self.server.registry.unsubscribe(tenant_id, self.token)
        self.send(ok_reply(frame_id, tenant=tenant_id, closed=True))

    async def op_txn(self, frame: dict, frame_id) -> None:
        tenant = await self._open_tenant(frame)
        work = compile_statements(frame.get("stmts"))
        started = time.perf_counter()
        future = self.server.admission.admit(tenant, work)
        future.add_done_callback(
            functools.partial(self._txn_reply, tenant.id, frame_id, started)
        )

    def _txn_reply(
        self, tenant_id: str, frame_id, started: float, future
    ) -> None:
        """Done callback of an admitted transaction: writes its one
        reply.  The pump wrote the drain's pushes before the future
        resolved, and callbacks run in resolution order."""
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            if not isinstance(exc, ProtocolError):
                exc = ProtocolError(
                    ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            self.server.count_error(exc.type)
            self.send(error_reply(exc, frame_id))
            return
        from repro.storage.transactions import TxnStatus

        txn = future.result()
        committed = txn.status is TxnStatus.COMMITTED
        self.server.metrics.histogram("serve_txn_latency_seconds").observe(
            time.perf_counter() - started
        )
        fields: dict[str, Any] = {
            "tenant": tenant_id,
            "committed": committed,
            "txn": txn.id,
            "state_index": getattr(txn, "serve_state_index", None),
        }
        if not committed:
            fields["vetoed_by"] = [rule for rule, _, _ in txn.vetoes]
            self.server.metrics.counter(
                "serve_tenant_aborts_total", tenant=tenant_id
            ).inc()
        self.send(ok_reply(frame_id, **fields))

    async def op_query(self, frame: dict, frame_id) -> None:
        from repro.datamodel.relation import Relation

        tenant = await self._open_tenant(frame)
        text = frame.get("text")
        if not isinstance(text, str):
            raise ProtocolError(ERR_INVALID, '"text" must be a string')
        params = frame.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError(ERR_INVALID, '"params" must be an object')
        try:
            result = eval_query(
                parse_query(text), tenant.engine.state, params
            )
        except Exception as exc:  # noqa: BLE001 — parse/eval both typed
            raise ProtocolError(
                ERR_QUERY, f"{type(exc).__name__}: {exc}"
            ) from exc
        if isinstance(result, Relation):
            self.send(
                ok_reply(
                    frame_id,
                    rows=[list(row.values) for row in result.sorted_rows()],
                )
            )
        else:
            self.send(ok_reply(frame_id, value=result))

    async def op_stats(self, frame: dict, frame_id) -> None:
        server = self.server
        fields: dict[str, Any] = {
            "tenants_resident": len(server.registry.resident),
            "sessions": server.sessions_active,
        }
        tenant_id = frame.get("tenant")
        if tenant_id is not None:
            TenantRegistry.validate_id(tenant_id)
            tenant = server.registry.resident_tenant(tenant_id)
            if tenant is None:
                fields["tenant"] = {"id": tenant_id, "resident": False}
            else:
                fields["tenant"] = {
                    "id": tenant_id,
                    "resident": True,
                    "recovered": tenant.recovered,
                    "state_count": tenant.engine.state_count,
                    "clock": tenant.engine.now,
                    "queue_depth": tenant.engine.queue_depth,
                    "firings": tenant.manager.firing_count,
                    "rules": sorted(tenant.manager.rule_names()),
                }
        self.send(ok_reply(frame_id, **fields))

    async def op_evict(self, frame: dict, frame_id) -> None:
        tenant_id = self._tenant_id(frame)
        evicted = await self.server.registry.evict(tenant_id, reason="admin")
        self.send(ok_reply(frame_id, tenant=tenant_id, evicted=evicted))

    # -- teardown ----------------------------------------------------------

    def detach(self) -> None:
        self.closed = True
        for tenant_id in self.tenants:
            self.server.registry.unsubscribe(tenant_id, self.token)
        self.tenants.clear()


class ReproServer:
    """Long-running asyncio server hosting many tenant databases."""

    def __init__(
        self,
        root,
        profile: TenantProfile,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        metrics=True,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_queue: int = 256,
        max_batch: int = 64,
        max_resident: int = 64,
        idle_seconds: Optional[float] = None,
        sweep_interval: float = 0.5,
        clock=time.monotonic,
        injector=None,
        fsync: bool = True,
        tenant_metrics: bool = False,
    ):
        self.metrics = as_registry(metrics)
        self.max_frame = max_frame
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.sweep_interval = sweep_interval
        self.registry = TenantRegistry(
            root,
            profile,
            metrics=self.metrics,
            max_resident=max_resident,
            idle_seconds=idle_seconds,
            clock=clock,
            injector=injector,
            fsync=fsync,
            tenant_metrics=tenant_metrics,
        )
        self.admission = AdmissionController(
            metrics=self.metrics,
            max_queue=max_queue,
            max_batch=max_batch,
            on_drained=self.pump,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._sessions: set[Session] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._m_sessions = self.metrics.gauge("serve_sessions_active")
        self._m_connections = self.metrics.counter("serve_connections_total")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ReproServer":
        # +2: a frame of exactly max_frame bytes plus its newline must
        # pass the stream limit and be refused by decode_frame instead
        # (typed reply) — only *larger* frames hit the framing hard stop.
        limit = self.max_frame + 2
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self.unix_path, limit=limit
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connect, self.host, self.port, limit=limit
            )
            self.port = self._server.sockets[0].getsockname()[1]
        if self.sweep_interval:
            self._sweeper = asyncio.get_running_loop().create_task(
                self._sweep()
            )
        return self

    @property
    def address(self):
        if self.unix_path is not None:
            return self.unix_path
        return (self.host, self.port)

    @property
    def sessions_active(self) -> int:
        return len(self._sessions)

    async def stop(self) -> None:
        """Orderly shutdown: stop accepting, drop sessions (and their
        unsent output), evict every tenant checkpoint-then-close (all
        state durable)."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions):
            session.detach()
            # Drop what is still buffered: a peer that does not read
            # would otherwise hold the connection's close forever.
            session.writer.transport.abort()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        self._sessions.clear()
        self._m_sessions.set(0)
        await self.registry.close_all()

    # -- connections -------------------------------------------------------

    async def _on_connect(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        session = Session(self, reader, writer)
        self._sessions.add(session)
        self._m_connections.inc()
        self._m_sessions.set(len(self._sessions))
        try:
            await session.run()
        except asyncio.CancelledError:
            # Server shutdown cancelled the reader loop; asyncio's stream
            # protocol would log the propagated CancelledError as an
            # "exception never retrieved" — swallow it, teardown follows.
            pass
        finally:
            session.detach()
            self._sessions.discard(session)
            self._m_sessions.set(len(self._sessions))
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # stop() may cancel a connection already closing; the
                # stream protocol would log that CancelledError too.
                pass

    def count_error(self, error_type: str) -> None:
        self.metrics.counter("serve_errors_total", type=error_type).inc()

    # -- notifications -----------------------------------------------------

    def pump(self, tenant: Tenant, done: list) -> None:
        """Push fresh firings, then the IC vetoes of the drained
        transactions ``done``, to the tenant's subscribers; runs after
        every drained batch, before transaction replies, and labels every
        pushed frame with the tenant id."""
        subscribers = self.registry.subscribers_of(tenant.id)
        for record in tenant.new_firings():
            self.metrics.counter(
                "serve_notifications_total", kind="firing"
            ).inc()
            self.metrics.counter(
                "serve_tenant_firings_total", tenant=tenant.id
            ).inc()
            frame = firing_notification(tenant.id, record)
            for post in subscribers:
                post(frame)
        for txn in done:
            for rule, state_index, timestamp in txn.vetoes:
                self.metrics.counter(
                    "serve_notifications_total", kind="ic_veto"
                ).inc()
                frame = veto_notification(
                    tenant.id, rule, txn.id, state_index, timestamp
                )
                for post in subscribers:
                    post(frame)

    # -- idle eviction -----------------------------------------------------

    async def _sweep(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval)
            for tenant_id in self.registry.idle_candidates():
                try:
                    await self.registry.evict(tenant_id, reason="idle")
                except TenantError:
                    continue  # raced new work; next sweep retries
