"""Command-line demo: ``python -m repro``.

Subcommands
-----------
``demo``     (default) — run the paper's Section 5 worked example and print
             the step-by-step state-formula table.
``monitor``  — run the stock-monitor workload with the observability layer
             enabled and print a firing summary; with ``--metrics-json``
             also dump the metrics registry + firing traces as JSON, and
             with ``--wal DIR`` log every state to a write-ahead log and
             leave a checkpoint behind in DIR.
``recover``  — rebuild the monitor system from a ``--wal DIR`` left by a
             previous (possibly crashed) run and print what was replayed.
``serve``    — run the multi-tenant asyncio server (``--root DIR`` for the
             durable tenant directories, ``--port``/``--unix`` to listen,
             see docs/SERVING.md for the session protocol).
``version``  — print the package version.

``--metrics-json [PATH]`` writes the JSON document to PATH (or stdout when
no PATH is given) and implies ``monitor`` when used with the default
command.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.bench.harness import Table
from repro.ptl import IncrementalEvaluator, parse_formula
from repro.workloads import (
    PAPER_TRACE_FIRING,
    SHARP_INCREASE,
    make_stock_db,
)
from repro.workloads.stock import apply_trace


def run_demo() -> int:
    print("Sistla & Wolfson (SIGMOD 1995), Section 5 worked example")
    print(f"condition: {SHARP_INCREASE}")
    print()

    adb = make_stock_db([("IBM", 10.0)])
    formula = parse_formula(SHARP_INCREASE, adb.db.queries)
    evaluator = IncrementalEvaluator(formula, optimize=False)

    table = Table(
        "incremental evaluation over (10,1) (15,2) (18,5) (25,8)",
        ["i", "price(IBM)", "time", "stored F_g", "F_f", "fired"],
    )
    fired_at = []
    for i, (price, ts) in enumerate(PAPER_TRACE_FIRING, start=1):
        apply_trace(adb, [(price, ts)])
        result = evaluator.step(adb.last_state)
        ((_, stored),) = evaluator.stored_formulas()
        table.add_row(
            i, price, ts, str(stored), str(evaluator.last_top), result.fired
        )
        if result.fired:
            fired_at.append(ts)
    table.show()
    print(f"trigger fired at time(s): {fired_at} (the paper: after the "
          f"fourth update)")
    return 0 if fired_at == [8] else 1


def run_monitor(
    metrics_json=None, ticks: int = 200, wal=None, batch: int = 1,
    churn=None,
) -> int:
    """Stock-monitor workload with metrics + traces enabled."""
    from repro.facade import TemporalDatabase
    from repro.workloads.stock import STOCK_SCHEMA, spike_trace

    tdb = TemporalDatabase(metrics=True, trace=True, batch_size=batch)
    tdb.create_relation(
        "STOCK", STOCK_SCHEMA, [("IBM", 50.0, "IBM Corp", "tech")]
    )
    tdb.define_query(
        "price", ["name"],
        "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name",
    )

    recovery = None
    if wal is not None:
        from repro.recovery import RecoveryManager

        recovery = RecoveryManager(wal)
        recovery.start(tdb.engine)

    firings = []
    tdb.on(
        "sharp_increase",
        SHARP_INCREASE,
        lambda ctx: firings.append(ctx.state.timestamp),
    )
    tdb.constrain("positive_price", "price(IBM) >= 0")

    from repro.workloads.stock import apply_trace

    trace_points = spike_trace(ticks, spike_every=40)
    lifecycle_ops = 0
    if not churn:
        apply_trace(tdb.engine, trace_points)
    else:
        # Exercise the rule lifecycle on the live system: every N ticks
        # cycle a probe rule through shadow add -> promote -> replace ->
        # remove, exactly as a deployment pipeline would.
        for start in range(0, len(trace_points), churn):
            apply_trace(tdb.engine, trace_points[start:start + churn])
            tdb.rules.flush()
            cycle = lifecycle_ops % 4
            if cycle == 0:
                tdb.on(
                    f"probe_{lifecycle_ops}", "price(IBM) > 55",
                    lambda ctx: None, shadow=True,
                )
            elif cycle == 1:
                tdb.promote(f"probe_{lifecycle_ops - 1}")
            elif cycle == 2:
                tdb.replace(
                    f"probe_{lifecycle_ops - 2}", "price(IBM) > 60",
                    lambda ctx: None,
                )
            else:
                tdb.off(f"probe_{lifecycle_ops - 3}")
            lifecycle_ops += 1

    tdb.rules.flush()
    print(f"stock monitor: {ticks} ticks, "
          f"{len(firings)} sharp_increase firings")
    if churn:
        shadow = sum(1 for f in tdb.firings if f.shadow)
        print(f"  lifecycle churn: {lifecycle_ops} op(s) every {churn} "
              f"tick(s), {shadow} shadow firing(s), "
              f"{len(tdb.rules.shadow_rules())} rule(s) still in shadow")
    if recovery is not None:
        recovery.checkpoint(tdb.engine, tdb.rules)
        recovery.stop()
        print(f"write-ahead log + checkpoint in {wal}")
    print(f"metrics collected: {len(tdb.metrics.metrics())}   "
          f"trace events: {len(tdb.trace)}")
    doc = tdb.metrics_json()
    if metrics_json == "-":
        print(doc)
    elif metrics_json:
        with open(metrics_json, "w") as fp:
            fp.write(doc + "\n")
        print(f"metrics written to {metrics_json}")
    tdb.close()
    return 0 if firings else 1


def run_recover(wal, tolerate_drift: bool = False) -> int:
    """Rebuild the monitor system from a durable directory."""
    from repro.recovery import RecoveryManager

    def setup(engine):
        manager = engine.rule_manager()
        manager.add_trigger(
            "sharp_increase", SHARP_INCREASE, lambda ctx: None
        )
        manager.add_integrity_constraint(
            "positive_price", "price(IBM) >= 0"
        )
        return manager

    report = RecoveryManager(wal).recover(
        setup=setup, strict_rules=not tolerate_drift
    )
    print(f"recovered from {wal}")
    print(f"  checkpoint used:  {report.checkpoint_used}")
    print(f"  WAL records:      {report.wal_records}")
    print(f"  replayed steps:   {report.replayed_steps}")
    print(f"  torn tail cut:    {report.truncated}")
    print(f"  states:           {report.engine.state_count} "
          f"(clock at {report.engine.now})")
    if report.manager is not None:
        print(f"  firings on record: {len(report.manager.firings)}")
    if report.rule_drift is not None and any(report.rule_drift.values()):
        drift = report.rule_drift
        print(f"  rule drift tolerated: added={drift['added']} "
              f"dropped={drift['dropped']} changed={drift['changed']}")
    return 0


def run_serve(
    root,
    host: str = "127.0.0.1",
    port: int = 7923,
    unix_path=None,
    max_queue: int = 256,
    max_batch: int = 64,
    max_resident: int = 64,
    idle_seconds=None,
) -> int:
    """Run the multi-tenant serving layer until interrupted."""
    import asyncio

    from repro.serve import ReproServer, StockProfile

    async def serve() -> None:
        server = ReproServer(
            root,
            StockProfile(),
            host=host,
            port=port,
            unix_path=unix_path,
            max_queue=max_queue,
            max_batch=max_batch,
            max_resident=max_resident,
            idle_seconds=idle_seconds,
            tenant_metrics=True,
        )
        await server.start()
        where = unix_path if unix_path else f"{server.host}:{server.port}"
        print(f"repro-serve listening on {where}")
        print(f"tenant root: {root}  profile: stock  "
              f"(newline-delimited JSON sessions; see docs/SERVING.md)")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            print("all tenants checkpointed; bye")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Temporal Conditions and Integrity "
        "Constraints in Active Database Systems' (SIGMOD 1995).",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="demo",
        choices=["demo", "monitor", "recover", "serve", "version"],
    )
    parser.add_argument(
        "--metrics-json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="dump the metrics registry and traces as JSON to PATH "
        "(stdout if omitted); implies the monitor command",
    )
    parser.add_argument(
        "--ticks", type=int, default=200,
        help="number of price ticks for the monitor workload",
    )
    parser.add_argument(
        "--wal", metavar="DIR", default=None,
        help="durable directory: monitor logs every state to a "
        "write-ahead log there and checkpoints on exit; recover "
        "rebuilds from it",
    )
    parser.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="rule-manager batch size for the monitor workload "
        "(Section 8 batched invocation)",
    )
    parser.add_argument(
        "--churn", type=int, default=None, metavar="N",
        help="monitor: every N ticks cycle a probe rule through the "
        "live lifecycle (shadow add, promote, replace, remove)",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help="serve: root directory for per-tenant durable state "
        "(<root>/tenants/<id>/)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="serve: TCP listen address"
    )
    parser.add_argument(
        "--port", type=int, default=7923, help="serve: TCP listen port"
    )
    parser.add_argument(
        "--unix", metavar="PATH", default=None,
        help="serve: listen on a unix socket instead of TCP",
    )
    parser.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="serve: per-tenant admission bound (backpressure past it)",
    )
    parser.add_argument(
        "--max-resident", type=int, default=64, metavar="N",
        help="serve: resident-tenant cap (oldest idle evicted past it)",
    )
    parser.add_argument(
        "--idle-seconds", type=float, default=None, metavar="S",
        help="serve: evict tenants idle for S seconds "
        "(checkpoint-then-close)",
    )
    parser.add_argument(
        "--tolerate-drift", action="store_true",
        help="recover: restore even if the registered rule set drifted "
        "from the checkpoint (the delta is reported)",
    )
    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "recover":
        if args.wal is None:
            parser.error("recover requires --wal DIR")
        return run_recover(args.wal, tolerate_drift=args.tolerate_drift)
    if args.command == "serve":
        if args.root is None:
            parser.error("serve requires --root DIR")
        return run_serve(
            args.root, host=args.host, port=args.port, unix_path=args.unix,
            max_queue=args.max_queue, max_batch=args.batch
            if args.batch > 1 else 64,
            max_resident=args.max_resident, idle_seconds=args.idle_seconds,
        )
    if args.command == "monitor" or args.metrics_json is not None:
        return run_monitor(
            metrics_json=args.metrics_json, ticks=args.ticks, wal=args.wal,
            batch=args.batch, churn=args.churn,
        )
    return run_demo()


if __name__ == "__main__":
    sys.exit(main())
