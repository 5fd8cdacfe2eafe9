"""System under test, embedded flavour: one repeat of ``rules_dense`` or
``history_deep`` against :class:`repro.engine.ActiveDatabase`.

Started by ``run.py`` as a child process (clean RSS and CPU accounting)::

    sut_embedded.py --workload W --seed N --scale F --root DIR
                    [--trace PATH] [--oracle]

Protocol on stdout: one ``READY`` line when set-up is over (the driver
stamps it: child start -> ready is ``setup_s``), then one JSON line with
the repeat's raw measurements.  Latencies are timed here, around the
``apply_tick`` / ``execute`` call; everything else is read from public
counters after the last op.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Import the benchmark's modules as the ``spine`` package (its trace.py
# must not shadow the standard library's ``trace``).
sys.path[0] = str(HERE.parent)

from spine import workloads as wl  # noqa: E402
from spine.probes import (  # noqa: E402
    cpu_seconds,
    digest,
    firing_rows,
    peak_rss_kb,
    plan_counters,
    query_counters,
)

now = time.perf_counter


def rule_action(tracer):
    """The benchmark's own rule action: it does nothing, so the traced
    span around it times the dispatch alone."""
    def action(ctx):
        pass

    return action if tracer is None else tracer.action(action)


def end_timed_phase(manager, tracer, cpu0, t0) -> dict:
    manager.flush()
    timed = {
        "elapsed": now() - t0,
        "cpu": cpu_seconds() - cpu0,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        tracer.mark("timed_end")
    return timed


# ---------------------------------------------------------------------------
# rules_dense
# ---------------------------------------------------------------------------


def run_rules_dense(args, tracer, ready):
    from repro.errors import TransactionAborted
    from repro.events.model import user_event
    from repro.query.evaluator import eval_query
    from repro.query.parser import parse_query
    from repro.workloads.stock import apply_tick, make_stock_db

    inputs = wl.dense_inputs(args.seed, args.scale)
    adb = make_stock_db([(s, 50.0) for s in wl.DENSE_SYMBOLS])
    manager = adb.rule_manager()
    action = rule_action(tracer)
    for name, text in inputs.triggers:
        manager.add_trigger(name, text, action)
    manager.add_trigger(
        wl.DENSE_FREE_RULE[0], wl.DENSE_FREE_RULE[1], action,
        params=("s",), domains={"s": wl.DENSE_DOMAIN_QUERY},
    )
    manager.add_integrity_constraint(*wl.DENSE_IC)
    read_query = parse_query(wl.DENSE_READ_QUERY)
    ready()

    committed = {s: 50.0 for s in wl.DENSE_SYMBOLS}
    txn_lat, read_lat, aborts, mismatches = [], [], 0, []
    half, size_at_half = len(inputs.ops) // 2, 0
    cpu0, t0 = cpu_seconds(), now()
    for i, op in enumerate(inputs.ops):
        start = now()
        if op[0] == "tick":
            try:
                apply_tick(adb, op[1], op[2])
                committed[op[1]] = op[2]
            except TransactionAborted:
                aborts += 1
            txn_lat.append(now() - start)
        elif op[0] == "event":
            adb.post_event(user_event(op[1], op[2]))
            txn_lat.append(now() - start)
        else:
            state = adb.state
            seen = {
                s: eval_query(read_query, state, {"name": s}).scalar()
                for s in wl.DENSE_SYMBOLS
            }
            read_lat.append(now() - start)
            if seen != committed:
                mismatches.append(f"read {i} saw {seen}, want {committed}")
        if i == half:
            size_at_half = manager.total_state_size()
    timed = end_timed_phase(manager, tracer, cpu0, t0)

    # Section 5: every temporal operator under a free variable is
    # time-bounded, so the retained state must not grow with the history.
    state_size = manager.total_state_size()
    if state_size > 1.5 * size_at_half + 32:
        mismatches.append(
            f"evaluator state grew from {size_at_half} (half way) to "
            f"{state_size}: not flat"
        )
    rows = firing_rows(manager)
    if args.oracle:
        mismatches += dense_oracle(adb, inputs, rows)
    return {
        **timed,
        "txn_lat": txn_lat, "read_lat": read_lat,
        "state_size": state_size,
        "firings_sha256": digest(rows),
        "oracle_mismatches": mismatches,
        "counters": {
            **plan_counters(manager), **query_counters(),
            "engine.states": adb.state_count, "engine.aborts": aborts,
        },
    }


def dense_oracle(adb, inputs, rows) -> list:
    """Theorem 1 on the production path: over the first states of the
    kept history, every trigger's firings must be what the offline
    semantics (:func:`repro.ptl.semantics.answers`, the engine behind
    :class:`repro.baselines.naive.NaiveDetector`) derives from scratch."""
    from repro.ptl.context import EvalContext
    from repro.ptl.parser import parse_formula
    from repro.ptl.semantics import answers
    from repro.query.parser import parse_query

    states = adb.history.states[: wl.DENSE_ORACLE_STATES]
    rules = [(name, text, {}) for name, text in inputs.triggers]
    rules.append(
        (*wl.DENSE_FREE_RULE, {"s": parse_query(wl.DENSE_DOMAIN_QUERY)})
    )
    expected = set()
    for name, text, domains in rules:
        formula = parse_formula(text, adb.db.queries)
        ctx = EvalContext(domains=domains)
        for i, state in enumerate(states):
            for binding in answers(states, i, formula, ctx):
                expected.add(
                    (name, tuple(sorted(binding.items())), state.index,
                     state.timestamp)
                )
    got = {row for row in rows if row[2] < len(states)}
    return sorted(map(repr, expected ^ got))


# ---------------------------------------------------------------------------
# history_deep
# ---------------------------------------------------------------------------


def run_history_deep(args, tracer, ready):
    from repro.datamodel import FLOAT, INT, STRING, Schema
    from repro.engine import ActiveDatabase
    from repro.errors import TransactionAborted
    from repro.events.model import user_event
    from repro.history.spill import attach_tiered_history
    from repro.query.evaluator import eval_query
    from repro.query.parser import parse_query
    from repro.recovery.manager import RecoveryManager
    from repro.rules.rule import CouplingMode

    inputs = wl.deep_inputs(args.seed, args.scale)
    root = Path(args.root)
    action = rule_action(tracer)

    def register_rules(engine):
        manager = engine.rule_manager()
        for name, text, options in wl.DEEP_RULES:
            manager.add_trigger(
                name, text, action,
                params=tuple(options.get("params", ())),
                coupling=CouplingMode(options.get("coupling", "T-CA")),
            )
        manager.add_integrity_constraint(*wl.DEEP_IC)
        return manager

    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    adb.create_relation(
        "ORDERS", Schema.of(oid=INT, cust=INT, amount=FLOAT), inputs.orders
    )
    adb.create_relation(
        "CUSTOMERS", Schema.of(cust=INT, region=STRING), inputs.customers
    )
    manager = register_rules(adb)
    recovery = RecoveryManager(root, fsync=False)
    runtime = attach_tiered_history(
        adb, root / "segments",
        budget_bytes=wl.DEEP_BUDGET_BYTES, hot_window=wl.DEEP_HOT_WINDOW,
        manager=manager, fsync=False,
    )
    recovery.start(adb)
    read_query = parse_query(wl.DEEP_READ_QUERY)
    ready()

    def body(price, go, order):
        def work(txn):
            txn.set_item("price", price)
            if go:
                txn.post_event(user_event("go"))
            if order is not None:
                oid, amount = order
                txn.update(
                    "ORDERS", lambda r: r["oid"] == oid,
                    lambda r: {"amount": amount},
                )
        return work

    txn_lat, read_lat, aborts, txns = [], [], 0, 0
    cpu0, t0 = cpu_seconds(), now()
    for op in inputs.ops:
        start = now()
        if op[0] == "txn":
            try:
                adb.execute(body(op[1], op[2], op[3]))
            except TransactionAborted:
                aborts += 1
            if op[2]:
                manager.run_pending()
            txns += 1
            if txns % inputs.checkpoint_every == 0:
                manager.flush()
                recovery.checkpoint(adb, manager)
            txn_lat.append(now() - start)
        else:
            state = adb.as_of(int(op[1] * adb.now))
            rows = eval_query(read_query, state.db, {"floor": op[2]})
            read_lat.append(now() - start)
            if not all(r["amount"] > op[2] for r in _amounts(rows, state)):
                raise AssertionError("read returned an order below its floor")
    timed = end_timed_phase(manager, tracer, cpu0, t0)

    rows = firing_rows(manager)
    before = (digest(rows), adb.state_count, adb.state.item("price"))
    history = adb.history
    counters = {
        **plan_counters(manager), **query_counters(),
        "engine.states": adb.state_count, "engine.aborts": aborts,
        "history.spilled_states": history.spilled_states,
        "history.hot_states": history.hot_states,
        "wal.records": recovery.wal.records_written,
        "wal.bytes": recovery.wal_path.stat().st_size,
        "recovery.checkpoint_bytes": recovery.checkpoint_path.stat().st_size,
    }
    state_size = manager.total_state_size()
    disk_bytes = sum(
        f.stat().st_size for f in root.rglob("*") if f.is_file()
    )

    # Crash: drop everything without stop(); the WAL was only flushed.
    del adb, manager, recovery, runtime, history
    gc.collect()
    start = now()
    report = RecoveryManager(root, fsync=False).recover(setup=register_rules)
    report.manager.flush()
    recover_s = now() - start
    after = (
        digest(firing_rows(report.manager)),
        report.engine.state_count,
        report.engine.state.item("price"),
    )
    counters["recovery.replay_steps"] = report.replayed_steps
    mismatches = [] if after == before else [repr((before, after))]
    return {
        **timed,
        "txn_lat": txn_lat, "read_lat": read_lat,
        "state_size": state_size,
        "firings_sha256": before[0],
        "oracle_mismatches": mismatches,
        "recover_s": recover_s,
        "disk_bytes": disk_bytes,
        "counters": counters,
    }


def _amounts(rows, state):
    amounts = {r["oid"]: r for r in state.db.relation("ORDERS").sorted_rows()}
    return [amounts[r["oid"]] for r in rows.sorted_rows()]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("rules_dense", "history_deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", default=None,
                        help="install the stage trace; dump spans here")
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spine import trace

        tracer = trace.install()

    def ready():
        """Set-up is over: tell the driver."""
        print("READY", flush=True)
        if tracer is not None:
            tracer.mark("timed_start")

    run = run_rules_dense if args.workload == "rules_dense" else run_history_deep
    result = run(args, tracer, ready)
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
