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
    rows (an op that matches no row still commits a state); ``("ev",
    name)`` posts a user event from inside the transaction."""
    kind = op[0]
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
    name)``, one committed :func:`op_body` transaction for the rest."""
    if op[0] == "ev":
        adb.post_event(user_event(str(op[1])))
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
