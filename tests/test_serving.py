"""Multi-tenant serving layer: isolation oracle, protocol robustness,
eviction/recovery (see :mod:`repro.serve`).

The headline property is the cross-tenant isolation oracle: interleaved
sessions against N served tenants must produce firings, bindings,
executed-store records, and committed store contents bit-identical to N
standalone engines replaying the same per-tenant transaction streams.
Around it: every malformed/oversized/invalid frame gets a typed error
reply and never corrupts tenant state (a tenant reopens cleanly from its
WAL tail), admission backpressure is explicit, and an evicted tenant
resumes with identical temporal state — including after a crash injected
mid eviction-checkpoint.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ActiveDatabase
from repro.errors import ProtocolError, TenantError, TransactionAborted
from repro.recovery import MID_CHECKPOINT, FaultInjector, SimulatedCrash
from repro.serve import ReproServer, StockProfile, compile_statements
from repro.serve import server as server_module
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    ERR_BACKPRESSURE,
    ERR_INVALID,
    ERR_INVALID_TENANT,
    ERR_MALFORMED,
    ERR_OVERSIZED,
    ERR_QUERY,
    ERR_TENANT_ALREADY_OPEN,
    ERR_TENANT_NOT_OPEN,
    ERR_UNKNOWN_OP,
    decode_frame,
)
from repro.serve.tenant import TENANT_DIR, TenantRegistry

from tests.helpers import (
    executed_sig,
    firing_sig,
    replay_transactions,
    serve_batch,
    served_sig,
    stock_twin,
    store_sig,
    twin_replay,
    update_stmt,
)

#: Price levels exercising quiet updates, sharp doublings (the
#: SHARP-INCREASE trigger), and an IC-vetoed negative price.
PRICES = [20.0, 45.0, 60.0, 100.0, 210.0, -5.0]

#: A stock tenant's directory written by commit 46db55d after the first
#: eight ``PRICES * 3`` transactions, its checkpoint carrying the IC in an
#: ``"ics"`` section (see the fixture's README.md).
V4_IC_SECTION = (
    Path(__file__).parent / "fixtures" / "ckpt_v4_ic_section"
)


# ---------------------------------------------------------------------------
# Async client helper
# ---------------------------------------------------------------------------


class Client:
    """A test client: NDJSON over a unix socket, notifications split out."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.notifications: list[dict] = []
        self._replies: dict = {}

    @classmethod
    async def connect(cls, path, limit=1 << 20):
        reader, writer = await asyncio.open_unix_connection(path, limit=limit)
        return cls(reader, writer)

    async def send(self, **frame):
        self.writer.write(
            (json.dumps(frame, separators=(",", ":")) + "\n").encode()
        )
        await self.writer.drain()

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), 30)
        assert line, "connection closed while a frame was expected"
        return json.loads(line)

    async def reply(self) -> dict:
        """Next non-notification frame; notifications are buffered."""
        while True:
            frame = await self.recv()
            if "ev" in frame:
                self.notifications.append(frame)
                continue
            return frame

    async def reply_for(self, frame_id) -> dict:
        """The reply carrying ``frame_id`` (replies may interleave when
        transactions are pipelined)."""
        if frame_id in self._replies:
            return self._replies.pop(frame_id)
        while True:
            frame = await self.reply()
            if frame.get("id") == frame_id:
                return frame
            self._replies[frame.get("id")] = frame

    async def rpc(self, **frame) -> dict:
        await self.send(**frame)
        if "id" in frame:
            return await self.reply_for(frame["id"])
        return await self.reply()

    async def at_eof(self) -> bool:
        line = await asyncio.wait_for(self.reader.readline(), 30)
        return line == b""

    def close(self):
        self.writer.close()


@contextmanager
def serving_root():
    root = tempfile.mkdtemp(prefix="serve-test-")
    try:
        yield root, os.path.join(root, "serve.sock")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def tenant_signatures(server, tenant_ids):
    """Read each served tenant's comparable outcome straight off the
    resident engines (the served half of the isolation oracle)."""
    sigs = {}
    for tenant_id in tenant_ids:
        tenant = server.registry.resident_tenant(tenant_id)
        assert tenant is not None
        sigs[tenant_id] = (
            firing_sig(tenant.manager),
            executed_sig(tenant.manager),
            store_sig(tenant.engine, ["STOCK"]),
            tenant.engine.state_count,
        )
    return sigs


def standalone_signature(stream):
    """Replay one tenant's statement stream on a standalone twin engine."""
    profile = StockProfile()
    engine = ActiveDatabase()
    profile.catalog(engine)
    manager = profile.rules(engine)
    replay_transactions(
        engine, manager, [compile_statements(s) for s in stream]
    )
    sig = (
        firing_sig(manager),
        executed_sig(manager),
        store_sig(engine, ["STOCK"]),
        engine.state_count,
    )
    manager.detach()
    return sig


# ---------------------------------------------------------------------------
# Cross-tenant isolation oracle
# ---------------------------------------------------------------------------


price_streams = st.lists(
    st.lists(st.sampled_from(PRICES), min_size=1, max_size=8),
    min_size=2,
    max_size=4,
)


class TestIsolationOracle:
    @given(streams=price_streams, seed=st.integers(0, 7))
    @settings(max_examples=9, deadline=None)
    def test_served_matches_standalone(self, streams, seed):
        """Interleaved sessions against N served tenants == N standalone
        engines replaying the same per-tenant streams, bit for bit."""
        served = asyncio.run(self._serve(streams, seed))
        expected = {
            f"t{i}": standalone_signature([update_stmt(p) for p in stream])
            for i, stream in enumerate(streams)
        }
        assert served == expected

    async def _serve(self, streams, seed):
        with serving_root() as (root, sock):
            server = ReproServer(
                root,
                StockProfile(),
                unix_path=sock,
                fsync=False,
                sweep_interval=0,
            )
            await server.start()
            try:
                tenant_ids = [f"t{i}" for i in range(len(streams))]
                # Two sessions, tenants split across them — cross-session
                # interleaving is part of what the oracle must not see.
                clients = [
                    await Client.connect(sock),
                    await Client.connect(sock),
                ]
                owner = {
                    tid: clients[(i + seed) % len(clients)]
                    for i, tid in enumerate(tenant_ids)
                }
                for tid in tenant_ids:
                    reply = await owner[tid].rpc(op="open", tenant=tid, id=tid)
                    assert reply["ok"], reply
                # Round-robin interleave of every tenant's stream.
                frame_id, pending = 0, []
                cursors = [list(s) for s in streams]
                while any(cursors):
                    for i, cursor in enumerate(cursors):
                        if not cursor:
                            continue
                        frame_id += 1
                        tid = tenant_ids[i]
                        await owner[tid].send(
                            op="txn",
                            tenant=tid,
                            id=frame_id,
                            stmts=update_stmt(cursor.pop(0)),
                        )
                        pending.append((owner[tid], frame_id))
                for client, fid in pending:
                    reply = await client.reply_for(fid)
                    assert reply["ok"], reply
                    assert reply["state_index"] is not None
                sigs = tenant_signatures(server, tenant_ids)
                for client in clients:
                    client.close()
                return sigs
            finally:
                await server.stop()


# ---------------------------------------------------------------------------
# Protocol robustness
# ---------------------------------------------------------------------------


class TestProtocolRobustness:
    async def _server(self, root, sock, **kw):
        kw.setdefault("fsync", False)
        kw.setdefault("sweep_interval", 0)
        server = ReproServer(root, StockProfile(), unix_path=sock, **kw)
        return await server.start()

    async def test_typed_errors_never_touch_state(self):
        with serving_root() as (root, sock):
            server = await self._server(root, sock)
            try:
                c = await Client.connect(sock)
                assert (await c.rpc(op="open", tenant="t1", id=1))["ok"]
                base = (await c.rpc(op="stats", tenant="t1", id=2))[
                    "tenant"
                ]["state_count"]

                await c.send_raw(b"this is not json\n")
                reply = await c.reply()
                assert reply["error"]["type"] == ERR_MALFORMED
                await c.send_raw(b'["a","json","list"]\n')
                assert (await c.reply())["error"]["type"] == ERR_MALFORMED
                assert (await c.rpc(op="bogus", id=3))["error"][
                    "type"
                ] == ERR_UNKNOWN_OP
                assert (await c.rpc(op="open", tenant="../up", id=4))[
                    "error"
                ]["type"] == ERR_INVALID_TENANT
                assert (
                    await c.rpc(op="txn", tenant="t2", id=5, stmts=[["set"]])
                )["error"]["type"] == ERR_TENANT_NOT_OPEN
                assert (await c.rpc(op="open", tenant="t1", id=6))["error"][
                    "type"
                ] == ERR_TENANT_ALREADY_OPEN
                for stmts in (
                    None,
                    [],
                    ["set"],
                    [["grow", "x", 1]],
                    [["update", "STOCK", {"name": "IBM"}]],
                    [["insert", "STOCK", 7]],
                ):
                    reply = await c.rpc(op="txn", tenant="t1", id=7, stmts=stmts)
                    assert reply["error"]["type"] == ERR_INVALID, stmts
                after = (await c.rpc(op="stats", tenant="t1", id=8))[
                    "tenant"
                ]["state_count"]
                assert after == base, "a refused frame reached the engine"
                c.close()
            finally:
                await server.stop()

    async def test_query_text_is_parsed_once(self):
        """A repeated query text reuses its parsed query; a text that does
        not parse is refused on every frame."""
        text = "RETRIEVE (S.price) FROM STOCK S WHERE S.name = 'IBM'"
        with serving_root() as (root, sock):
            server = await self._server(root, sock)
            try:
                c = await Client.connect(sock)
                assert (await c.rpc(op="open", tenant="t1", id=1))["ok"]
                before = server_module._parsed_query.cache_info()
                replies = [
                    await c.rpc(op="query", tenant="t1", id=i, text=text)
                    for i in (2, 3)
                ]
                assert replies[0]["rows"] == replies[1]["rows"]
                after = server_module._parsed_query.cache_info()
                assert after.misses - before.misses <= 1
                assert after.hits - before.hits >= 1
                for i in (4, 5):
                    reply = await c.rpc(
                        op="query", tenant="t1", id=i, text="RETRIEVE ("
                    )
                    assert reply["error"]["type"] == ERR_QUERY
                assert server_module._parsed_query.cache_info().currsize == (
                    after.currsize
                )
                c.close()
            finally:
                await server.stop()

    async def test_oversized_frame_replies_typed_and_closes(self):
        with serving_root() as (root, sock):
            server = await self._server(root, sock, max_frame=1024)
            try:
                c = await Client.connect(sock)
                big = json.dumps(
                    {"op": "ping", "pad": "x" * 4096}
                ).encode() + b"\n"
                await c.send_raw(big)
                reply = await c.reply()
                assert not reply["ok"]
                assert reply["error"]["type"] == ERR_OVERSIZED
                assert await c.at_eof(), "connection must close after overrun"
                c.close()
            finally:
                await server.stop()

    async def test_mid_transaction_disconnect_preserves_tenant(self):
        """A session that vanishes right after streaming transactions
        never corrupts the tenant: admitted work still group-commits, and
        the tenant reopens cleanly from the WAL tail after a restart."""
        with serving_root() as (root, sock):
            server = await self._server(root, sock)
            try:
                c = await Client.connect(sock)
                assert (await c.rpc(op="open", tenant="t1", id=1))["ok"]
                # Stream transactions and slam the connection shut without
                # reading a single reply.
                for i, price in enumerate([60.0, 120.0, 80.0]):
                    await c.send(
                        op="txn", tenant="t1", id=i, stmts=update_stmt(price)
                    )
                c.close()
                # Admitted transactions drain regardless of the dead session.
                tenant = server.registry.resident_tenant("t1")
                for _ in range(200):
                    if (
                        tenant.engine.state_count == 3
                        and not tenant.pending_futures
                    ):
                        break
                    await asyncio.sleep(0.01)
                assert tenant.engine.state_count == 3
                sig = (
                    firing_sig(tenant.manager),
                    store_sig(tenant.engine, ["STOCK"]),
                )
            finally:
                await server.stop()
            # Full restart: the tenant recovers from checkpoint + WAL tail.
            server = await self._server(root, sock)
            try:
                c = await Client.connect(sock)
                reply = await c.rpc(op="open", tenant="t1", id=1)
                assert reply["ok"] and reply["recovered"]
                assert reply["state_count"] == 3
                tenant = server.registry.resident_tenant("t1")
                assert (
                    firing_sig(tenant.manager),
                    store_sig(tenant.engine, ["STOCK"]),
                ) == sig
                c.close()
            finally:
                await server.stop()

    async def test_concurrent_duplicate_opens_share_one_tenant(self):
        with serving_root() as (root, sock):
            server = await self._server(root, sock)
            try:
                clients = [await Client.connect(sock) for _ in range(4)]
                replies = await asyncio.gather(
                    *(
                        c.rpc(op="open", tenant="shared", id=1)
                        for c in clients
                    )
                )
                assert all(r["ok"] for r in replies)
                opens = server.metrics.counter(
                    "serve_tenant_opens_total", tenant="shared"
                ).value
                assert opens == 1, "racing opens must share one instantiation"
                assert server.registry.resident == ["shared"]
                # Every session is subscribed: one committed transaction
                # with a firing notifies all four.
                for c in clients[1:]:
                    await c.send(op="ping", id=9)
                for price in (50.0, 120.0):
                    reply = await clients[0].rpc(
                        op="txn", tenant="shared", id=2, stmts=update_stmt(price)
                    )
                    assert reply["ok"]
                for c in clients:
                    while not c.notifications:
                        frame = await c.recv()
                        if "ev" in frame:
                            c.notifications.append(frame)
                    assert c.notifications[0]["rule"] == "sharp_increase"
                    assert c.notifications[0]["tenant"] == "shared"
                for c in clients:
                    c.close()
            finally:
                await server.stop()

    async def test_backpressure_is_typed_and_bounded(self):
        with serving_root() as (root, _sock):
            registry = TenantRegistry(
                root, StockProfile(), fsync=False
            )
            admission = AdmissionController(max_queue=2)
            tenant = await registry.get("t1")
            work = compile_statements(update_stmt(60.0))
            futures = [admission.admit(tenant, work) for _ in range(2)]
            with pytest.raises(ProtocolError) as exc:
                admission.admit(tenant, work)
            assert exc.value.type == ERR_BACKPRESSURE
            assert exc.value.detail["queue_depth"] == 2
            done = await asyncio.gather(*futures)
            assert [t.id for t in done] == [1, 2]
            # Queue drained: admission accepts again.
            txn = await admission.admit(tenant, work)
            assert txn.id == 3
            await registry.close_all()

    async def test_backpressure_bound_is_the_servers(self):
        """A bound above the engine's default queue bound (1 024) is the
        one a tenant meets: one refusal, with its per-tenant count."""
        with serving_root() as (root, _sock):
            registry = TenantRegistry(root, StockProfile(), fsync=False)
            admission = AdmissionController(metrics=True, max_queue=1030)
            tenant = await registry.get("t1")
            work = compile_statements(update_stmt(60.0))
            futures = [admission.admit(tenant, work) for _ in range(1030)]
            with pytest.raises(ProtocolError) as exc:
                admission.admit(tenant, work)
            assert exc.value.type == ERR_BACKPRESSURE
            assert exc.value.detail == {"queue_depth": 1030, "max_queue": 1030}
            assert admission.metrics.counter(
                "serve_tenant_backpressure_total", tenant="t1"
            ).value == 1
            done = await asyncio.gather(*futures)
            assert len(done) == 1030
            await registry.close_all()

    def test_decode_frame_limits(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"x" * 64, max_frame=32)
        assert exc.value.type == ERR_OVERSIZED
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"{\"op\": 7}")
        assert exc.value.type == ERR_INVALID


# ---------------------------------------------------------------------------
# Eviction / recovery
# ---------------------------------------------------------------------------


class TestEvictionRecovery:
    async def test_idle_eviction_round_trip(self):
        """An idle-evicted tenant restored on the next connect resumes
        with identical temporal state: same checkpointed manager state,
        and a post-reopen doubling still fires off pre-eviction prices —
        remembered by the restored state formulas, not by a history."""
        with serving_root() as (root, sock):
            clock = [0.0]
            server = ReproServer(
                root,
                StockProfile(),
                unix_path=sock,
                fsync=False,
                idle_seconds=5.0,
                sweep_interval=0.01,
                clock=lambda: clock[0],
            )
            await server.start()
            try:
                c = await Client.connect(sock)
                assert (await c.rpc(op="open", tenant="t1", id=1))["ok"]
                for i, price in enumerate([30.0, 40.0]):
                    reply = await c.rpc(
                        op="txn", tenant="t1", id=10 + i,
                        stmts=update_stmt(price),
                    )
                    assert reply["ok"]
                tenant = server.registry.resident_tenant("t1")
                tenant.manager.flush()
                snap = tenant.manager.to_state()
                # Let it idle out under the fake clock.
                clock[0] = 100.0
                for _ in range(500):
                    if not server.registry.resident:
                        break
                    await asyncio.sleep(0.01)
                assert server.registry.resident == []

                # Next use transparently reopens; same session, no re-open
                # frame needed.
                reply = await c.rpc(op="stats", tenant="t1", id=2)
                assert reply["tenant"]["resident"] is False
                reply = await c.rpc(
                    op="txn", tenant="t1", id=20, stmts=update_stmt(90.0)
                )
                assert reply["ok"] and reply["committed"]
                restored = server.registry.resident_tenant("t1")
                assert restored is not tenant and restored.recovered
                # Identical temporal state at the eviction point…
                rolled = restored.manager.to_state()
                assert rolled["firings"][: len(snap["firings"])] == snap[
                    "firings"
                ]
                # …and the doubling over *pre-eviction* prices fired.
                notif = None
                while notif is None:
                    for frame in c.notifications:
                        if frame["ev"] == "firing":
                            notif = frame
                    if notif is None:
                        frame = await c.recv()
                        if "ev" in frame:
                            c.notifications.append(frame)
                assert notif["rule"] == "sharp_increase"
                assert notif["state_index"] == 2
                c.close()
            finally:
                await server.stop()

    async def test_evict_reopen_keeps_no_history(self, tmp_path):
        """Fresh and reopened tenants alike hold no past states, and the
        reopened one finishes the stream exactly like an uninterrupted
        twin (firings with bindings, state count, ``STOCK`` rows)."""
        ops = [("stmts", update_stmt(p)) for p in PRICES * 3]
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenant = await server.registry.get("t1")
        assert tenant.engine.history is None
        for start in range(0, len(ops), 4):
            if start == 8:
                assert await server.registry.evict("t1")
                tenant = await server.registry.get("t1")
                assert tenant.recovered and tenant.engine.history is None
            serve_batch(server, tenant, ops[start : start + 4])
        tenant.manager.flush()
        assert tenant.engine.history is None
        assert served_sig(tenant.engine, tenant.manager) == served_sig(
            *twin_replay(stock_twin, ops)
        )
        assert tenant.manager.firing_count
        await server.registry.close_all()

    async def test_old_ic_section_reopens_like_an_uninterrupted_twin(
        self, tmp_path
    ):
        """A tenant checkpointed by an older commit carries its
        ``positive_price`` IC in an ``"ics"`` section, on a private plan
        with no temporal state: reopened, the IC compiles fresh on the
        manager's plan at the checkpoint epoch, and the tenant finishes the
        stream (vetoes included) exactly like an uninterrupted twin."""
        ops = [("stmts", update_stmt(p)) for p in PRICES * 3]
        shutil.copytree(
            V4_IC_SECTION, tmp_path / TENANT_DIR / "t1",
            ignore=shutil.ignore_patterns("README.md"),
        )
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenant = await server.registry.get("t1")
        assert tenant.recovered and tenant.engine.state_count == 8
        for start in range(8, len(ops), 4):
            serve_batch(server, tenant, ops[start : start + 4])
        tenant.manager.flush()
        assert served_sig(tenant.engine, tenant.manager) == served_sig(
            *twin_replay(stock_twin, ops)
        )
        assert tenant.manager.stats_of("positive_price").evaluations == 18
        assert "ics" not in tenant.manager.to_state()
        await server.registry.close_all()

    async def test_eviction_refused_while_busy(self):
        with serving_root() as (root, _sock):
            registry = TenantRegistry(root, StockProfile(), fsync=False)
            admission = AdmissionController()
            tenant = await registry.get("t1")
            future = admission.admit(
                tenant, compile_statements(update_stmt(60.0))
            )
            with pytest.raises(TenantError):
                await registry.evict("t1")
            await future
            assert await registry.evict("t1") is True
            assert registry.resident == []

    async def test_crash_mid_eviction_checkpoint_recovers(self):
        """An injected crash mid-eviction-checkpoint must leave the prior
        durable state intact: the tenant is deregistered, its WAL closed,
        and the next open recovers the identical temporal state."""
        with serving_root() as (root, _sock):
            injector = FaultInjector()
            registry = TenantRegistry(
                root, StockProfile(), fsync=False, injector=injector
            )
            admission = AdmissionController()
            tenant = await registry.get("t1")
            for price in (30.0, 40.0, 90.0):
                await admission.admit(
                    tenant, compile_statements(update_stmt(price))
                )
            tenant.manager.flush()
            sig = (
                firing_sig(tenant.manager),
                store_sig(tenant.engine, ["STOCK"]),
                tenant.engine.state_count,
            )
            injector.arm(MID_CHECKPOINT)
            with pytest.raises(SimulatedCrash):
                await registry.evict("t1")
            # Crash-safe teardown: deregistered despite the crash.
            assert registry.resident == []
            reopened = await registry.get("t1")
            assert reopened.recovered
            assert (
                firing_sig(reopened.manager),
                store_sig(reopened.engine, ["STOCK"]),
                reopened.engine.state_count,
            ) == sig
            await registry.close_all()

    async def test_orderly_shutdown_checkpoints_everything(self):
        with serving_root() as (root, sock):
            server = ReproServer(
                root, StockProfile(), unix_path=sock, fsync=False,
                sweep_interval=0,
            )
            await server.start()
            c = await Client.connect(sock)
            for tid in ("a", "b"):
                assert (await c.rpc(op="open", tenant=tid, id=tid))["ok"]
                reply = await c.rpc(
                    op="txn", tenant=tid, id=f"x{tid}",
                    stmts=update_stmt(75.0),
                )
                assert reply["ok"]
            c.close()
            await server.stop()
            # Both tenants checkpointed: reopen recovers instantly.
            server = ReproServer(
                root, StockProfile(), unix_path=sock, fsync=False,
                sweep_interval=0,
            )
            await server.start()
            try:
                c = await Client.connect(sock)
                for tid in ("a", "b"):
                    reply = await c.rpc(op="open", tenant=tid, id=tid)
                    assert reply["recovered"] and reply["state_count"] == 1
                c.close()
            finally:
                await server.stop()


# ---------------------------------------------------------------------------
# Notification pump
# ---------------------------------------------------------------------------


def counting(container):
    """A ``container`` subclass counting the elements its readers visit."""

    class Counting(container):
        visits = 0

        def __iter__(self):
            for item in super().__iter__():
                self.visits += 1
                yield item

    return Counting


class TestNotificationPump:
    async def test_ic_veto_reply_and_push(self):
        """A vetoed transaction replies ``vetoed_by`` and pushes one
        ``ic_veto`` frame, after its drain's firings, naming the abort
        state a standalone twin appends; a reopened tenant pushes
        neither again."""
        prices = [60.0, 130.0, -5.0]
        engine, manager = stock_twin()
        for price in prices:
            try:
                engine.execute(compile_statements(update_stmt(price)))
            except TransactionAborted as exc:
                abort = engine.last_state
                twin_veto = (exc.txn_id, abort.index, abort.timestamp)
        manager.detach()
        with serving_root() as (root, sock):
            server = ReproServer(
                root, StockProfile(), unix_path=sock, fsync=False,
                sweep_interval=0,
            )
            await server.start()
            try:
                c = await Client.connect(sock)
                assert (await c.rpc(op="open", tenant="t1", id=0))["ok"]
                # One write, so the three transactions share one drain.
                await c.send_raw(b"".join(
                    json.dumps({
                        "op": "txn", "tenant": "t1", "id": i,
                        "stmts": update_stmt(price),
                    }).encode() + b"\n"
                    for i, price in enumerate(prices, 1)
                ))
                replies = [await c.reply_for(i) for i in (1, 2, 3)]
                assert [r["committed"] for r in replies] == [True, True, False]
                assert "vetoed_by" not in replies[1]
                assert replies[2]["vetoed_by"] == ["positive_price"]
                assert (await c.rpc(op="ping", id=4))["pong"]
                kinds = [n["ev"] for n in c.notifications]
                assert kinds.count("ic_veto") == 1 and "firing" in kinds
                veto = c.notifications[kinds.index("ic_veto")]
                assert all(
                    n["state_index"] > veto["state_index"]
                    for n in c.notifications[kinds.index("ic_veto") + 1 :]
                )
                assert veto["rule"] == "positive_price"
                assert veto["tenant"] == "t1"
                assert twin_veto == (
                    veto["txn"], veto["state_index"], veto["timestamp"]
                )
                assert veto["state_index"] == replies[2]["state_index"]

                pushed = len(c.notifications)
                assert (await c.rpc(op="evict", tenant="t1", id=5))["evicted"]
                reply = await c.rpc(
                    op="txn", tenant="t1", id=6, stmts=update_stmt(99.0)
                )
                assert reply["committed"]
                assert server.registry.resident_tenant("t1").recovered
                assert (await c.rpc(op="ping", id=7))["pong"]
                assert len(c.notifications) == pushed, c.notifications[pushed:]
                c.close()
            finally:
                await server.stop()

    async def _pump_visits(self, root, backlog):
        """Serve ``backlog`` transactions, then count the firing records
        one more drain's pump builds from the packed-row firing log,
        plus the drained transactions it visits for vetoes."""
        server = ReproServer(root, StockProfile(), fsync=False, sweep_interval=0)
        tenant = await server.registry.get("t1")
        prices = [PRICES[i % len(PRICES)] for i in range(backlog)] + [50.0]
        for start in range(0, len(prices), 8):
            serve_batch(
                server,
                tenant,
                [("stmts", update_stmt(p)) for p in prices[start : start + 8]],
            )
        manager = tenant.manager
        log, built = manager._firings, []
        build = log._record
        log._record = lambda *row: built.append(row) or build(*row)
        pump, drained = server.pump, []

        def counted_pump(tenant, done):
            drained.append(counting(list)(done))
            pump(tenant, drained[-1])

        server.pump = counted_pump
        fired = manager.firing_count
        done = serve_batch(
            server,
            tenant,
            [("stmts", update_stmt(200.0)), ("stmts", update_stmt(-5.0))],
        )
        assert [t.status.name for t in done] == ["COMMITTED", "ABORTED"]
        assert manager.firing_count > fired
        visits = len(built) + sum(d.visits for d in drained)
        await server.registry.close_all()
        return visits, fired

    async def test_pump_reads_only_what_is_new(self, tmp_path):
        """The pump's work per drain does not depend on how long the
        firing log already is, nor on how many transactions were served
        before."""
        short_visits, short_log = await self._pump_visits(tmp_path / "a", 30)
        long_visits, long_log = await self._pump_visits(tmp_path / "b", 900)
        assert long_log > 20 * short_log
        assert 0 < long_visits == short_visits


# ---------------------------------------------------------------------------
# Write path
# ---------------------------------------------------------------------------


def txn_frames(tenant_id, ids):
    """One write's worth of pipelined ``txn`` frames cycling ``PRICES``."""
    return b"".join(
        json.dumps({
            "op": "txn", "tenant": tenant_id, "id": i,
            "stmts": update_stmt(PRICES[i % len(PRICES)]),
        }).encode() + b"\n"
        for i in ids
    )


class TestWritePath:
    async def test_a_served_txn_spawns_no_task(self):
        """Pipelined transactions, with their firing and veto pushes,
        cost no task per reply or per push — at most one per drain
        round.  Replies arrive in frame-id order, and every push naming
        state ``s`` or earlier arrives before the reply carrying ``s``."""
        loop = asyncio.get_running_loop()
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        with serving_root() as (root, sock):
            server = ReproServer(
                root, StockProfile(), unix_path=sock, fsync=False,
                sweep_interval=0,
            )
            await server.start()
            try:
                c = await Client.connect(sock)
                assert (await c.rpc(op="open", tenant="t1", id=0))["ok"]
                rounds = server.metrics.histogram("serve_drain_batch_txns")
                rounds_before = rounds.count
                loop.set_task_factory(counting_factory)
                await c.send_raw(txn_frames("t1", range(1, 121)))
                frames, replies = [], 0
                async with asyncio.timeout(30):
                    while replies < 120:
                        frames.append(json.loads(await c.reader.readline()))
                        replies += "ev" not in frames[-1]
                drain_rounds = rounds.count - rounds_before
                c.close()
            finally:
                loop.set_task_factory(None)
                await server.stop()
        reply_at = [
            (i, f) for i, f in enumerate(frames) if "ev" not in f
        ]
        assert [f["id"] for _, f in reply_at] == list(range(1, 121))
        assert all(f["ok"] for _, f in reply_at)
        pushes = [(i, f) for i, f in enumerate(frames) if "ev" in f]
        assert {f["ev"] for _, f in pushes} == {"firing", "ic_veto"}
        for at, push in pushes:
            assert all(
                at < i
                for i, reply in reply_at
                if reply["state_index"] >= push["state_index"]
            ), push
        assert drain_rounds >= 1
        assert len(created) <= drain_rounds, [
            c.__qualname__ for c in created
        ]

    async def test_a_peer_that_does_not_read_is_not_read(self):
        """A session that pipelines transactions and never reads stops
        being read once its unsent output passes the transport's
        high-water mark: its tenant stops committing and no task piles
        up, while another tenant's session is still served and the
        server still stops."""
        loop = asyncio.get_running_loop()
        with serving_root() as (root, sock):
            server = ReproServer(
                root, StockProfile(), unix_path=sock, fsync=False,
                sweep_interval=0,
            )
            await server.start()
            flood = None
            try:
                # A small stream limit: the client's own reader stops
                # taking bytes off the socket after 2 kB.
                a = await Client.connect(sock, limit=1024)
                b = await Client.connect(sock)
                assert (await a.rpc(op="open", tenant="t1", id=0))["ok"]
                assert (await b.rpc(op="open", tenant="t2", id=0))["ok"]
                frames = txn_frames("t1", range(1, 33))

                async def never_read():
                    while True:
                        await a.send_raw(frames)

                flood = loop.create_task(never_read())
                t1 = server.registry.resident_tenant("t1")
                counts = [t1.engine.state_count]
                deadline = loop.time() + 2.5
                while len(counts) < 6 or counts[-1] != counts[-6]:
                    assert loop.time() < deadline, counts[-6:]
                    await asyncio.sleep(0.05)
                    counts.append(t1.engine.state_count)
                assert counts[-1] > 0
                assert len(asyncio.all_tasks()) <= 8, asyncio.all_tasks()
                reply = await b.rpc(
                    op="txn", tenant="t2", id=1, stmts=update_stmt(60.0)
                )
                assert reply["committed"]
                assert t1.engine.state_count == counts[-1]
            finally:
                if flood is not None:
                    flood.cancel()
                    await asyncio.gather(flood, return_exceptions=True)
                async with asyncio.timeout(10):
                    await server.stop()
            a.close()
            b.close()
