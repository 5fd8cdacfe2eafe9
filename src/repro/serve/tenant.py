"""Tenant registry: lazily opened, evictable per-tenant databases.

Each tenant is one isolated :class:`~repro.engine.ActiveDatabase` plus
its rule manager, living under a namespaced durable directory::

    <root>/tenants/<tenant-id>/
        wal.jsonl          write-ahead log (states durable before actions)
        checkpoint.json    atomic engine + manager checkpoint

A :class:`TenantProfile` describes how a tenant database is laid out —
its catalog (relations, items, named queries) and its rule base.  The
registry opens tenants lazily on first use: a fresh directory gets the
profile's catalog and rules on an empty engine; a directory with durable
state is rebuilt through :class:`~repro.recovery.manager.RecoveryManager`
(checkpoint + WAL-tail replay), then the WAL re-attaches and appends.

A tenant engine keeps no history (``keep_history=False``): the rule
manager's state formulas summarise the past (``F_{g,i}`` is computed from
``F_{g,i-1}`` and the new state only), no served operation reads an
earlier state, and the durable past is the WAL.

Idle tenants are evicted *checkpoint-then-close*: flush the manager,
write an atomic checkpoint, detach the WAL and the temporal component,
release the memory.  The next open recovers the identical temporal state
— the eviction/recovery tests assert bit-identical manager state across
the round trip, and a crash mid-eviction-checkpoint leaves the previous
checkpoint (and the WAL) intact for the next open.
"""

from __future__ import annotations

import asyncio
import re
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.engine import ActiveDatabase
from repro.errors import ProtocolError, TenantError
from repro.obs.metrics import as_registry
from repro.recovery.manager import RecoveryManager
from repro.serve.protocol import ERR_INVALID_TENANT

PathLike = Union[str, Path]

#: Subdirectory of the serving root holding one directory per tenant.
TENANT_DIR = "tenants"

#: Tenant ids are path components: one safe segment, no traversal.
TENANT_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TenantProfile:
    """How every tenant database of one server is laid out.

    ``catalog`` runs once on a *fresh* engine (recovery restores the
    catalog from the checkpoint/WAL base record instead); ``rules`` runs
    on every open — fresh or recovered — and returns the rule manager,
    mirroring the recovery contract: rule code is never serialized, the
    profile re-registers it and checkpointed evaluator state is verified
    against it."""

    name = "profile"

    def catalog(self, engine) -> None:
        raise NotImplementedError

    def rules(self, engine):
        raise NotImplementedError


def _no_action(ctx) -> None:
    pass


class StockProfile(TenantProfile):
    """The paper's stock-monitor workload as a tenant layout: one STOCK
    relation, the ``price`` query, the SHARP-INCREASE trigger, and a
    positive-price integrity constraint."""

    name = "stock"

    def catalog(self, engine) -> None:
        from repro.workloads.stock import STOCK_SCHEMA

        engine.create_relation(
            "STOCK", STOCK_SCHEMA, [("IBM", 50.0, "IBM Corp", "tech")]
        )
        engine.define_query(
            "price",
            ["name"],
            "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name",
        )

    def rules(self, engine):
        from repro.workloads import SHARP_INCREASE

        manager = engine.rule_manager()
        # Firings reach clients as notifications; the action itself
        # keeps nothing.
        manager.add_trigger("sharp_increase", SHARP_INCREASE, _no_action)
        manager.add_integrity_constraint(
            "positive_price", "price(IBM) >= 0"
        )
        return manager


class Tenant:
    """One resident tenant: engine + manager + durable directory."""

    def __init__(
        self,
        tenant_id: str,
        directory: Path,
        engine: ActiveDatabase,
        manager,
        recovery: RecoveryManager,
        recovered: bool,
    ):
        self.id = tenant_id
        self.directory = directory
        self.engine = engine
        self.manager = manager
        self.recovery = recovery
        self.recovered = recovered
        #: Serializes drains, eviction, and admin ops on this tenant.
        self.lock = asyncio.Lock()
        #: Reply futures for enqueued-but-undrained transactions, FIFO —
        #: aligned with the engine's ingest queue.
        self.pending_futures: list = []
        #: Wall-clock (registry clock) of the last session activity.
        self.last_active: float = 0.0
        #: True while an admission drain task is scheduled.
        self.draining = False
        #: Watermark for the notification pump — starts past anything a
        #: recovery replay reproduced, so reopening a tenant never
        #: re-notifies its durable history.
        self.notified_firings = manager.firing_count

    @property
    def state_count(self) -> int:
        return self.engine.state_count

    def touch(self, now: float) -> None:
        self.last_active = now

    def new_firings(self):
        """Firings recorded since the last pump (O(new), not O(log))."""
        fresh = self.manager.firings_since(self.notified_firings)
        self.notified_firings += len(fresh)
        return fresh


class TenantRegistry:
    """Opens, caches, and evicts tenants under one serving root."""

    def __init__(
        self,
        root: PathLike,
        profile: TenantProfile,
        metrics=None,
        max_resident: int = 64,
        idle_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        injector=None,
        fsync: bool = True,
        tenant_metrics: bool = False,
    ):
        """``metrics`` is the *server* registry: per-tenant rollups land
        there under ``tenant=<id>`` labels.  ``tenant_metrics=True``
        additionally gives each tenant engine its own isolated
        :class:`~repro.obs.metrics.MetricsRegistry` (engine metric names
        are unlabelled, so tenants must not share one)."""
        self.root = Path(root)
        self.profile = profile
        self.metrics = as_registry(metrics)
        self.max_resident = max(1, max_resident)
        self.idle_seconds = idle_seconds
        self.clock = clock
        self.injector = injector
        self.fsync = fsync
        self.tenant_metrics = tenant_metrics
        self._resident: dict[str, Tenant] = {}
        self._open_locks: dict[str, asyncio.Lock] = {}
        #: Per-tenant notification subscribers, keyed by tenant id then an
        #: opaque subscriber token — kept *outside* the Tenant so
        #: subscriptions survive evict/reopen cycles transparently.
        self.subscribers: dict[str, dict[int, Callable]] = {}
        self._m_resident = self.metrics.gauge("serve_tenants_resident")

    # -- identity ----------------------------------------------------------

    @staticmethod
    def validate_id(tenant_id) -> str:
        if not isinstance(tenant_id, str) or not TENANT_ID_RE.match(
            tenant_id
        ):
            raise ProtocolError(
                ERR_INVALID_TENANT,
                f"invalid tenant id {tenant_id!r}: want 1-64 chars of "
                "[A-Za-z0-9_.-] starting alphanumeric",
            )
        return tenant_id

    def directory(self, tenant_id: str) -> Path:
        return self.root / TENANT_DIR / tenant_id

    # -- open/resolve ------------------------------------------------------

    @property
    def resident(self) -> list[str]:
        return sorted(self._resident)

    def resident_tenant(self, tenant_id: str) -> Optional[Tenant]:
        return self._resident.get(tenant_id)

    async def get(self, tenant_id: str) -> Tenant:
        """Resolve (lazily opening or recovering) a tenant.

        Concurrent first opens of the same tenant race through one
        per-id lock: exactly one open happens, the rest share it."""
        self.validate_id(tenant_id)
        tenant = self._resident.get(tenant_id)
        if tenant is not None:
            tenant.touch(self.clock())
            return tenant
        lock = self._open_locks.setdefault(tenant_id, asyncio.Lock())
        async with lock:
            tenant = self._resident.get(tenant_id)
            if tenant is None:
                tenant = self._open(tenant_id)
                self._resident[tenant_id] = tenant
                self._m_resident.set(len(self._resident))
            tenant.touch(self.clock())
            return tenant

    def _open(self, tenant_id: str) -> Tenant:
        directory = self.directory(tenant_id)
        directory.mkdir(parents=True, exist_ok=True)
        recovery = RecoveryManager(
            directory, fsync=self.fsync, injector=self.injector
        )
        engine_metrics = True if self.tenant_metrics else None
        has_durable = (
            recovery.checkpoint_path.exists()
            or (
                recovery.wal_path.exists()
                and recovery.wal_path.stat().st_size > 0
            )
        )
        if has_durable:
            report = recovery.recover(
                setup=self.profile.rules,
                metrics=engine_metrics,
                keep_history=False,
            )
            engine, manager = report.engine, report.manager
            if manager is None:
                raise TenantError(
                    f"profile {self.profile.name!r} returned no manager "
                    f"for tenant {tenant_id!r}"
                )
            self.metrics.counter(
                "serve_tenant_recoveries_total", tenant=tenant_id
            ).inc()
        else:
            engine = ActiveDatabase(keep_history=False, metrics=engine_metrics)
            self.profile.catalog(engine)
            manager = self.profile.rules(engine)
        recovery.start(engine)
        self.metrics.counter(
            "serve_tenant_opens_total", tenant=tenant_id
        ).inc()
        return Tenant(
            tenant_id,
            directory,
            engine,
            manager,
            recovery,
            recovered=has_durable,
        )

    # -- eviction ----------------------------------------------------------

    async def evict(self, tenant_id: str, reason: str = "idle") -> bool:
        """Checkpoint-then-close ``tenant_id``; returns False when it was
        not resident.  On *any* failure — including an injected crash mid
        eviction-checkpoint — the tenant is unconditionally deregistered
        and its WAL closed, so the next open recovers from the last
        durable point instead of touching half-closed state."""
        tenant = self._resident.get(tenant_id)
        if tenant is None:
            return False
        async with tenant.lock:
            if tenant.pending_futures or tenant.engine.queue_depth:
                raise TenantError(
                    f"tenant {tenant_id!r} has undrained transactions; "
                    "drain before evicting"
                )
            try:
                tenant.manager.flush()
                tenant.recovery.checkpoint(tenant.engine, tenant.manager)
            finally:
                self._resident.pop(tenant_id, None)
                self._m_resident.set(len(self._resident))
                try:
                    tenant.recovery.stop()
                except Exception:
                    pass
                try:
                    tenant.manager.detach()
                except Exception:
                    pass
        self.metrics.counter(
            "serve_evictions_total", reason=reason
        ).inc()
        return True

    def idle_candidates(self, now: Optional[float] = None) -> list[str]:
        """Tenants eligible for eviction: idle past ``idle_seconds``, or
        (oldest first) beyond ``max_resident``."""
        now = self.clock() if now is None else now
        by_age = sorted(
            self._resident.values(), key=lambda t: t.last_active
        )
        candidates = []
        if self.idle_seconds is not None:
            candidates.extend(
                t.id
                for t in by_age
                if now - t.last_active >= self.idle_seconds
                and not t.pending_futures
            )
        overflow = len(self._resident) - self.max_resident
        if overflow > 0:
            for tenant in by_age:
                if overflow <= 0:
                    break
                if tenant.id not in candidates and not tenant.pending_futures:
                    candidates.append(tenant.id)
                    overflow -= 1
        return candidates

    async def close_all(self) -> None:
        """Evict every resident tenant (orderly shutdown: all durable)."""
        for tenant_id in list(self._resident):
            await self.evict(tenant_id, reason="shutdown")

    # -- notifications -----------------------------------------------------

    def subscribe(
        self, tenant_id: str, token: int, callback: Callable
    ) -> None:
        self.subscribers.setdefault(tenant_id, {})[token] = callback

    def unsubscribe(self, tenant_id: str, token: int) -> None:
        subs = self.subscribers.get(tenant_id)
        if subs is not None:
            subs.pop(token, None)
            if not subs:
                self.subscribers.pop(tenant_id, None)

    def subscribers_of(self, tenant_id: str) -> list[Callable]:
        return list(self.subscribers.get(tenant_id, {}).values())
