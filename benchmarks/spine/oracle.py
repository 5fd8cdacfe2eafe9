"""Isolation oracle for the served workloads (E19's, run untimed).

Every tenant's stream is replayed on a standalone
:class:`~repro.engine.ActiveDatabase` with the same profile; what the
server said over the wire — pushed firings ``(rule, bindings,
state_index, timestamp)``, transaction outcomes, state count, the final
``STOCK`` row and every query result — must be what the standalone twin
produces.  Concurrency, multiplexing and group commit must be invisible.
"""

from __future__ import annotations

from spine import workloads as wl
from spine.probes import firing_rows

#: ``StockProfile`` seeds its one STOCK row at this price.
INITIAL_PRICE = 50.0


def standalone(ops: list) -> dict:
    """What one tenant stream does to a fresh stock-profile engine."""
    from repro.engine import ActiveDatabase
    from repro.errors import TransactionAborted
    from repro.serve import StockProfile, compile_statements

    profile = StockProfile()
    engine = ActiveDatabase()
    profile.catalog(engine)
    manager = profile.rules(engine)

    def price():
        return engine.state.relation("STOCK").sorted_rows()[0]["price"]

    committed, price_after = [], []
    for kind, value in ops:
        if kind == "txn":
            try:
                engine.execute(compile_statements(wl.update_stmt(value)))
                committed.append(True)
            except TransactionAborted:
                committed.append(False)
        else:
            committed.append(None)
        price_after.append(price())
    manager.flush()
    twin = {
        "firings": firing_rows(manager),
        "committed": committed,
        "price_after": price_after,
        "state_count": engine.state_count,
        "final_rows": [
            list(r.values)
            for r in engine.state.relation("STOCK").sorted_rows()
        ],
    }
    manager.detach()
    return twin


def check_tenant(stream, result, twin: dict) -> list:
    """Mismatches between one served tenant and its standalone twin."""
    name, bad = stream.tenant, []
    if result.errors:
        bad.append(f"{name}: {len(result.errors)} error replies, first "
                   f"{result.errors[0]}")
    if result.firings != twin["firings"]:
        bad.append(f"{name}: pushed firings differ from the standalone twin")
    if result.state_count != twin["state_count"]:
        bad.append(f"{name}: state count {result.state_count} != "
                   f"{twin['state_count']}")
    if result.final_rows != twin["final_rows"]:
        bad.append(f"{name}: final STOCK row {result.final_rows} != "
                   f"{twin['final_rows']}")
    vetoes = twin["committed"].count(False)
    if result.vetoes != vetoes:
        bad.append(f"{name}: {result.vetoes} ic_veto pushes, want {vetoes}")
    for k, (kind, _) in enumerate(stream.ops):
        got = result.outcome[k]
        if kind == "txn":
            if got != twin["committed"][k]:
                bad.append(f"{name}: txn {k} committed={got}")
            continue
        # A read sees the price some prefix of the tenant's stream left:
        # at least the transactions already answered when it was sent, at
        # most everything sent before it (with pipelining, earlier
        # transactions may still queue behind the drain).
        prices, shortest = twin["price_after"], result.floor[k]
        seen = {prices[m - 1] for m in range(max(shortest, 1), k + 1)}
        if shortest == 0:
            seen.add(INITIAL_PRICE)
        if got is None or len(got) != 1 or got[0][0] not in seen:
            bad.append(f"{name}: query {k} returned {got}")
    return bad
