"""Admission control: per-tenant queue bounds feeding group commit.

Transactions stream in over sessions faster than any single fsync can
absorb; the serving layer therefore rides the engine's existing ingest
batching (:meth:`~repro.engine.ActiveDatabase.enqueue` /
:meth:`~repro.engine.ActiveDatabase.drain`): admitted transaction bodies
queue on the tenant engine, and one drain task per tenant commits them
in WAL commit groups — one fsync per batch, triggers dispatched to the
temporal component in one round.

Backpressure is explicit, not silent: a tenant whose ingest queue is
full refuses the transaction with a typed ``backpressure`` error reply
carrying the queue depth and bound, and the client retries.  The reply
future for an admitted transaction resolves only once its batch is
durable — a session that pipelines N transactions gets N replies in
order after at most ``ceil(N / max_batch)`` fsyncs.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.errors import (
    ProtocolError,
    QueueFullError,
    StorageDegradedError,
)
from repro.obs.metrics import as_registry
from repro.serve.protocol import ERR_BACKPRESSURE, ERR_DEGRADED
from repro.serve.tenant import Tenant


class AdmissionController:
    """Bounds per-tenant ingest and drains admitted work in batches."""

    def __init__(
        self,
        metrics=None,
        max_queue: int = 256,
        max_batch: int = 64,
        on_drained: Optional[Callable[[Tenant, list], None]] = None,
    ):
        """``max_queue`` bounds each tenant's undrained transactions
        (admission refuses past it); ``max_batch`` caps one group
        commit.  ``on_drained(tenant, done)`` runs after every drained
        batch with its finished transactions, *before* reply futures
        resolve — the server hooks the notification pump there so
        firing and veto pushes precede the replies."""
        self.metrics = as_registry(metrics)
        self.max_queue = max(1, max_queue)
        self.max_batch = max(1, max_batch)
        self.on_drained = on_drained
        self._m_admitted = self.metrics.counter("serve_txns_admitted_total")
        self._m_backpressure = self.metrics.counter(
            "serve_backpressure_total"
        )
        self._m_batch = self.metrics.histogram("serve_drain_batch_txns")

    def admit(self, tenant: Tenant, work: Callable) -> "asyncio.Future":
        """Enqueue ``work`` on the tenant engine; returns a future that
        resolves to the finished :class:`Transaction` once its batch is
        durable.  Raises a typed ``backpressure``
        :class:`~repro.errors.ProtocolError` when the tenant queue is
        full."""
        engine = tenant.engine
        depth = engine.queue_depth
        if depth >= self.max_queue:
            self._m_backpressure.inc()
            self.metrics.counter(
                "serve_tenant_backpressure_total", tenant=tenant.id
            ).inc()
            raise ProtocolError(
                ERR_BACKPRESSURE,
                f"tenant {tenant.id!r} ingest queue is full "
                f"({depth}/{self.max_queue}); retry after the batch drains",
                queue_depth=depth,
                max_queue=self.max_queue,
            )
        try:
            engine.enqueue(work)
        except QueueFullError as exc:
            self._m_backpressure.inc()
            raise ProtocolError(
                ERR_BACKPRESSURE,
                str(exc),
                queue_depth=engine.queue_depth,
                max_queue=engine.max_queue,
            ) from exc
        future = asyncio.get_running_loop().create_future()
        tenant.pending_futures.append(future)
        self._m_admitted.inc()
        self.metrics.counter(
            "serve_tenant_txns_total", tenant=tenant.id
        ).inc()
        self._ensure_drain(tenant)
        return future

    # -- draining ----------------------------------------------------------

    def _ensure_drain(self, tenant: Tenant) -> None:
        if not tenant.draining:
            tenant.draining = True
            asyncio.get_running_loop().create_task(self._drain(tenant))

    async def _drain(self, tenant: Tenant) -> None:
        try:
            # Yield one loop iteration: transactions admitted by other
            # ready sessions join this batch instead of each paying their
            # own fsync.
            await asyncio.sleep(0)
            async with tenant.lock:
                while tenant.engine.queue_depth:
                    count = min(tenant.engine.queue_depth, self.max_batch)
                    futures = tenant.pending_futures[:count]
                    del tenant.pending_futures[:count]
                    state_base = tenant.engine.state_count
                    try:
                        done = tenant.engine.drain(max_batch=count)
                    except StorageDegradedError as exc:
                        self._fail(
                            futures,
                            ProtocolError(
                                ERR_DEGRADED, str(exc), reason=exc.reason
                            ),
                        )
                        continue
                    except Exception as exc:
                        self._fail(futures, exc)
                        continue
                    self._m_batch.observe(len(done))
                    # Every drained transaction — commit or veto-abort —
                    # appends exactly one state in FIFO order, so its
                    # global state index is positional.
                    for i, txn in enumerate(done):
                        txn.serve_state_index = state_base + i
                    if self.on_drained is not None:
                        self.on_drained(tenant, done)
                    for future, txn in zip(futures, done):
                        if not future.cancelled():
                            future.set_result(txn)
                    # drain() consumed fewer works than futures only if it
                    # raised, handled above; defensively fail leftovers.
                    for future in futures[len(done):]:
                        self._fail([future], RuntimeError("transaction lost"))
                    # Yield between batches so replies flush while the
                    # next batch accumulates.
                    await asyncio.sleep(0)
        finally:
            tenant.draining = False
            # Late admits that raced the flag: reschedule.
            if tenant.engine.queue_depth and tenant.pending_futures:
                self._ensure_drain(tenant)

    @staticmethod
    def _fail(futures, exc: BaseException) -> None:
        for future in futures:
            if not future.cancelled():
                future.set_exception(exc)
