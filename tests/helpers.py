"""Shared test helpers: hand-built histories and stock fixtures.

Replaying a nightly hypothesis failure locally
----------------------------------------------
The ``nightly`` profile (see ``tests/conftest.py``) searches randomly
and prints, on failure, a ``@reproduce_failure('<version>', b'...')``
blob.  To replay:

1. copy the decorator from the CI log onto the failing test function
   (directly above ``@given``), run the test once, then delete it; or
2. rerun just that test — hypothesis caches failing examples in
   ``.hypothesis/examples``, so a plain local rerun of the same test
   re-tries the shrunk counterexample first.

The default ``ci`` profile is derandomized, so any ``ci`` failure
reproduces with a plain ``python -m pytest <nodeid>`` — no blob needed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.datamodel import FLOAT, INT, STRING, Relation, Schema
from repro.events.model import Event, transaction_commit, user_event
from repro.history.history import SystemHistory
from repro.history.state import SystemState
from repro.query.subst import QueryRegistry
from repro.storage.snapshot import DatabaseState

STOCK_SCHEMA = Schema.of(name=STRING, price=FLOAT)


def stock_registry() -> QueryRegistry:
    """Registry with the paper's ``price`` query symbol."""
    reg = QueryRegistry()
    reg.define_text(
        "price",
        ("name",),
        "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name",
    )
    return reg


def stock_state(prices: dict, items: Optional[dict] = None) -> DatabaseState:
    rel = Relation.from_values(
        STOCK_SCHEMA, [(name, float(p)) for name, p in sorted(prices.items())]
    )
    base = {"STOCK": rel}
    if items:
        base.update(items)
    return DatabaseState(base)


def stock_history(
    ticks: Sequence[tuple[float, int]],
    name: str = "IBM",
    extra_events: Sequence[Iterable[Event]] = (),
) -> SystemHistory:
    """History of (price, timestamp) ticks for one stock; each state is a
    commit point carrying an ``update_stocks`` user event (the paper's
    periodically-run stock-update transaction)."""
    history = SystemHistory()
    for i, (price, ts) in enumerate(ticks):
        events = [transaction_commit(i + 1), user_event("update_stocks")]
        if i < len(extra_events):
            events.extend(extra_events[i])
        history.append(
            SystemState(stock_state({name: price}), events, ts)
        )
    return history


def event_history(
    steps: Sequence[tuple[Sequence[Event], int]],
    db: Optional[DatabaseState] = None,
) -> SystemHistory:
    """History of pure event states over a constant database state."""
    db = db or DatabaseState({})
    history = SystemHistory(validate_transaction_time=False)
    for events, ts in steps:
        history.append(SystemState(db, events, ts))
    return history


def run_evaluator(evaluator, history) -> list:
    """Step an evaluator through every state; returns FireResults."""
    return [evaluator.step(state) for state in history]


# -- twin-engine replay oracle ------------------------------------------------
#
# Several suites (chain patching, tiered spill, the serving isolation
# tests) share one differential shape: replay the same op stream on a
# standalone twin engine and require identical observable outcomes —
# firings (rule, bindings, state index, timestamp), executed-store
# records, and committed store contents.  The helpers below are that
# oracle's shared vocabulary.


#: The relation the row ops below write (``make_orders`` declares it).
ORDERS_SCHEMA = Schema.of(oid=INT, amount=FLOAT)


def make_orders(adb, rows: int = 6) -> None:
    adb.create_relation(
        "ORDERS", ORDERS_SCHEMA, [(i, float(10 * i)) for i in range(rows)]
    )


#: A relation-writing twin of the crash suites' eight-op scalar
#: workload: one state per op, inserts, updates and deletes of
#: ``ORDERS`` rows, so WAL / change-log records carry row deltas.
ROW_OPS = [
    ("upd", 1, 20), ("ev", "go"), ("ins", 9, 60), ("set", 60),
    ("ev", "go"), ("upd", 9, 80), ("del", 2), ("ins", 7, 1),
]


def op_body(op):
    """The transaction body of one write op: ``("set", value)`` writes
    the ``price`` item; ``("ins", oid, amount)`` / ``("upd", oid,
    amount)`` / ``("del", oid)`` insert, update and delete ``ORDERS``
    rows (an op that matches no row still commits a state); ``("stmts",
    statements)`` is a served transaction (:mod:`repro.serve.protocol`
    statements); ``("ev", name)`` posts a user event from inside the
    transaction."""
    kind = op[0]
    if kind == "stmts":
        from repro.serve import compile_statements

        return compile_statements(op[1])
    if kind == "set":
        return lambda t: t.set_item("price", op[1])
    if kind == "ins":
        return lambda t: t.insert("ORDERS", (op[1], float(op[2])))
    if kind == "upd":
        return lambda t: t.update(
            "ORDERS",
            lambda r: r["oid"] == op[1],
            lambda r: {"amount": float(op[2])},
        )
    if kind == "del":
        return lambda t: t.delete("ORDERS", lambda r: r["oid"] == op[1])
    return lambda t: t.post_event(user_event(str(op[1])))


def apply_op(adb, op) -> None:
    """Apply one op to an engine: a posted user event for ``("ev",
    name)``, one committed :func:`op_body` transaction for the rest.  A
    served transaction an integrity constraint vetoes stays aborted and
    the stream carries on, as in the serving drain."""
    if op[0] == "ev":
        adb.post_event(user_event(str(op[1])))
    elif op[0] == "stmts":
        from repro.errors import TransactionAborted

        try:
            adb.execute(op_body(op))
        except TransactionAborted:
            pass
    else:
        adb.execute(op_body(op))


def drive(adb, ops, manager=None) -> None:
    """Replay ``ops`` through :func:`apply_op`; flush ``manager`` (so
    deferred action rounds run) when one is given."""
    for op in ops:
        apply_op(adb, op)
    if manager is not None:
        manager.flush()


def firing_sig(manager) -> list:
    """The comparable firing signature: every recorded firing as
    (rule, bindings, state index, timestamp)."""
    return [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings
    ]


def executed_sig(manager) -> list:
    """The comparable executed-store signature, order-normalized."""
    return sorted(
        (r.time, r.rule, r.params, r.status)
        for r in manager.executed.records()
    )


def store_sig(engine, relations: Sequence[str] = ()) -> dict:
    """The committed store's comparable contents: every item plus the
    sorted rows of the named relations."""
    state = engine.state
    sig = {"items": state.items_view()}
    for name in relations:
        sig[name] = [row.values for row in state.relation(name).sorted_rows()]
    return sig


def twin_replay(build, ops):
    """Run the oracle half of a differential: a fresh standalone engine +
    manager from ``build()`` replays ``ops`` and flushes.  Returns
    ``(engine, manager)`` for signature comparison against the system
    under test."""
    adb, manager = build()
    drive(adb, ops, manager=manager)
    return adb, manager


def replay_transactions(engine, manager, bodies) -> None:
    """Standalone half of the serving isolation oracle: apply each
    transaction body through :meth:`~repro.engine.ActiveDatabase.execute`,
    swallowing integrity-constraint aborts exactly like the serving
    drain does, then flush the manager."""
    from repro.errors import TransactionAborted

    for work in bodies:
        try:
            engine.execute(work)
        except TransactionAborted:
            pass
    manager.flush()


def update_stmt(price) -> list:
    """A served transaction's statements: set IBM's ``STOCK`` price."""
    return [["update", "STOCK", {"name": "IBM"}, {"price": price}]]


def stock_twin():
    """A standalone engine + manager laid out like a served stock tenant
    (``twin_replay``'s ``build`` for ``("stmts", ...)`` streams)."""
    from repro.engine import ActiveDatabase
    from repro.serve import StockProfile

    profile, engine = StockProfile(), ActiveDatabase()
    profile.catalog(engine)
    return engine, profile.rules(engine)


def serve_batch(server, tenant, ops) -> list:
    """One served drain, without a socket: enqueue the ``("stmts", ...)``
    ops on ``tenant``, drain them in one group commit and run ``server``'s
    notification pump over the drained transactions.  Returns them."""
    for op in ops:
        tenant.engine.enqueue(op_body(op))
    done = tenant.engine.drain()
    server.pump(tenant, done)
    return done


def served_sig(engine, manager) -> tuple:
    """What the served isolation oracle compares: firings with bindings,
    state count and the ``STOCK`` rows."""
    return (
        firing_sig(manager),
        engine.state_count,
        store_sig(engine, ["STOCK"]),
    )


# -- the version-representation oracle ----------------------------------------
#
# Only the newest version of a relation owns a table; a superseded one is
# a reverse row-delta off its successor (``Relation.supersede``).  The
# representation must be invisible: whatever a version reads as later, it
# is the row set it had when it was committed.


class VersionRecorder:
    """Keeps, for every state an engine appends, a flat copy of the named
    relations — taken on the bus, while the version is still the newest
    one and its table is its own."""

    def __init__(self, engine, names: Sequence[str] = ("ORDERS",)):
        self.engine = engine
        self.names = tuple(names)
        #: state index -> {relation name: flat copy}
        self.copies: dict[int, dict[str, Relation]] = {}
        engine.bus.subscribe(self._on_state)

    def _on_state(self, state) -> None:
        copies = {}
        for name in self.names:
            version = state.db.raw_item(name)
            assert not version.superseded, "a state was published after its successor"
            copies[name] = Relation(version.schema, frozenset(list(version.rows)))
        self.copies[state.index] = copies


def assert_reads_as(version: Relation, oracle: Relation) -> None:
    """``version`` — flat, superseded or a transient copy — is observably
    the flat ``oracle``: rows, size, membership, order, hash, equality and
    an index lookup per key."""
    from repro.storage.index import index_for

    assert version.rows == oracle.rows
    assert len(version) == len(oracle)
    assert version.is_empty() == oracle.is_empty()
    assert set(version) == set(oracle)
    assert version == oracle and oracle == version
    assert hash(version) == hash(oracle)
    assert version.sorted_rows() == oracle.sorted_rows()
    for row in oracle:
        assert row in version and row.values in version
    assert (-1, -1.0) not in version
    key = oracle.schema.names[:1]
    index, want = index_for(version, key), index_for(oracle, key)
    assert index.keys() == want.keys()
    for (value,) in want.keys() + [(-1,)]:
        assert set(index.lookup(value)) == set(want.lookup(value))


def assert_versions_invisible(engine, recorder: VersionRecorder) -> None:
    """Every state of ``engine``'s history, through ``state.relation``,
    ``state.db.raw_item`` and ``as_of``, reads as the flat copy
    ``recorder`` took when that state was committed (by ``engine`` or by
    an uninterrupted twin).  Untouched rows are the same objects along
    the chain: a ``Row`` no transaction touched from a state to the
    newest one is read back as the very object that was committed (when
    ``recorder`` watched this engine; between consecutive versions rebuilt
    from row deltas, every row they have in common is one object).  Only
    the newest version is flat, and no superseded one holds a cache — not
    even after being read through every path above."""
    states = list(engine.history)
    assert states, "nothing to check"
    hot = states[getattr(engine.history, "spilled_states", 0):]
    ids = lambda rows: {id(r) for r in rows}
    for name in recorder.names:
        assert not engine.state.raw_item(name).superseded
        for state in states:
            oracle = recorder.copies[state.index][name]
            raw = state.db.raw_item(name)
            assert_reads_as(raw, oracle)
            assert_reads_as(state.relation(name), oracle)
            assert_reads_as(engine.as_of(state.timestamp).relation(name), oracle)
            if raw.superseded:
                assert state.relation(name) is not raw, "a past read is transient"
        if recorder.engine is engine:
            untouched = None
            for state in reversed(hot):
                committed = ids(recorder.copies[state.index][name])
                untouched = committed if untouched is None else untouched & committed
                assert untouched <= ids(state.db.raw_item(name).rows)
        else:
            for older, newer in zip(hot, hot[1:]):
                a, b = older.db.raw_item(name).rows, newer.db.raw_item(name).rows
                assert len(ids(a) & ids(b)) == len(a & b)
        for state in states:
            raw = state.db.raw_item(name)
            if raw.superseded:
                assert raw._index_cache is None and raw._sorted_cache is None
