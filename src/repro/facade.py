"""One-stop facade: an active database with its temporal component.

:class:`TemporalDatabase` wires an
:class:`~repro.engine.ActiveDatabase` to a
:class:`~repro.rules.manager.RuleManager` and exposes the operations a
downstream application actually uses — catalog setup, transactions, rule
registration, and querying — without touching the subsystems directly.

    from repro import TemporalDatabase

    tdb = TemporalDatabase()
    tdb.create_relation("STOCK", Schema.of(name=STRING, price=FLOAT))
    tdb.define_query("price", ["n"],
                     "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $n")
    tdb.on("doubled",
           "[t := time] [x := price(IBM)] "
           "previously (price(IBM) <= 0.5 * x & time >= t - 10)",
           lambda ctx: ...)
    tdb.constrain("cap", "price(IBM) <= 1000")
    with tdb.transaction(at_time=8) as txn:
        txn.update("STOCK", lambda r: r["name"] == "IBM",
                   lambda r: {"price": 25.0})
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Mapping, Optional, Sequence

from repro.engine import ActiveDatabase
from repro.query.evaluator import eval_query
from repro.query.parser import parse_query
from repro.rules.manager import RuleManager
from repro.rules.rule import CouplingMode, FireMode


class TemporalDatabase:
    """An active database plus its temporal component."""

    def __init__(
        self,
        start_time: int = 0,
        keep_history: bool = True,
        relevance_filtering: bool = False,
        batch_size: int = 1,
        executed_retention: Optional[int] = None,
        metrics=None,
        trace=None,
    ):
        """``metrics=True`` (or an existing registry) turns on the
        observability layer for the engine, the rule manager, and every
        evaluator registered through this facade; ``trace=True`` (or a
        sink) additionally records structured firing/action/violation
        traces.  Both default off — the hot paths then pay a single
        boolean check."""
        self.engine = ActiveDatabase(
            start_time=start_time, keep_history=keep_history, metrics=metrics
        )
        self.rules = RuleManager(
            self.engine,
            relevance_filtering=relevance_filtering,
            batch_size=batch_size,
            executed_retention=executed_retention,
            trace=trace,
        )

    # -- catalog -------------------------------------------------------------

    def create_relation(self, name, schema, rows=()):
        return self.engine.create_relation(name, schema, rows)

    def define_query(self, name, params, text):
        return self.engine.define_query(name, params, text)

    def declare_item(self, name, initial):
        return self.engine.declare_item(name, initial)

    # -- rules -----------------------------------------------------------------

    def on(
        self,
        name: str,
        condition,
        action,
        params: Sequence[str] = (),
        domains: Optional[Mapping] = None,
        fire_mode: FireMode = FireMode.ALWAYS,
        coupling: CouplingMode = CouplingMode.T_CA,
        **kwargs,
    ):
        """Register a trigger (``on`` reads naturally at call sites)."""
        return self.rules.add_trigger(
            name,
            condition,
            action,
            params=params,
            domains=domains,
            fire_mode=fire_mode,
            coupling=coupling,
            **kwargs,
        )

    def constrain(self, name: str, constraint, domains=None):
        """Register a temporal integrity constraint."""
        return self.rules.add_integrity_constraint(name, constraint, domains)

    def off(self, name: str):
        """Unregister a rule (trigger, constraint, or monitor) from the
        live system; its evaluator state is released and queued detached
        actions are dropped."""
        return self.rules.remove_rule(name)

    def replace(self, name: str, condition, action, **kwargs):
        """Swap a trigger's definition between two states; temporal
        operators of the new condition start from "now"."""
        return self.rules.replace_rule(name, condition, action, **kwargs)

    def promote(self, name: str):
        """Flip a shadow-deployed trigger live (see ``shadow=True`` on
        :meth:`on`)."""
        return self.rules.promote_rule(name)

    def obligation(
        self,
        name: str,
        formula,
        on_satisfied=None,
        on_violated=None,
        respawn: bool = False,
    ):
        """Attach a future-obligation monitor (e.g.
        ``"always (!@req | eventually[5] @ack)"``)."""
        return self.rules.add_future_monitor(
            name,
            formula,
            on_satisfied=on_satisfied,
            on_violated=on_violated,
            respawn=respawn,
        )

    # -- transactions & events ----------------------------------------------------

    @contextmanager
    def transaction(self, at_time: Optional[int] = None, commit_time: Optional[int] = None):
        """``with tdb.transaction() as txn: ...`` — commits on clean exit,
        aborts if the body raises."""
        txn = self.engine.begin(at_time)
        try:
            yield txn
        except BaseException:
            from repro.storage.transactions import TxnStatus

            if txn.status is TxnStatus.ACTIVE:
                txn.abort(reason="exception in transaction body")
            raise
        txn.commit(commit_time)

    def post_event(self, event, at_time: Optional[int] = None):
        return self.engine.post_event(event, at_time)

    def tick(self, at_time: Optional[int] = None):
        return self.engine.tick(at_time)

    # -- querying --------------------------------------------------------------------

    def query(self, text: str, params: Optional[Mapping[str, Any]] = None):
        """Evaluate query text against the current committed state."""
        return eval_query(parse_query(text), self.engine.state, params or {})

    def scalar(self, text: str, params: Optional[Mapping[str, Any]] = None):
        from repro.query.evaluator import eval_scalar

        return eval_scalar(parse_query(text), self.engine.state, params or {})

    # -- introspection -----------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.engine.now

    @property
    def history(self):
        return self.engine.history

    @property
    def firings(self):
        return self.rules.firings

    # -- observability -----------------------------------------------------------------

    @property
    def metrics(self):
        """The metrics registry (a no-op registry unless enabled)."""
        return self.engine.metrics

    @property
    def trace(self):
        """The trace sink (a no-op sink unless enabled)."""
        return self.rules.trace

    def metrics_json(self, traces: bool = True, indent: int = 2) -> str:
        """Serialize the registry (and, by default, the trace events) as a
        JSON document — what ``python -m repro monitor --metrics-json``
        prints."""
        import json

        payload = self.metrics.to_dict()
        if traces:
            payload["traces"] = self.trace.to_dicts()
        return json.dumps(payload, indent=indent, sort_keys=True)

    def explain_firing(self, record, rendered: bool = False):
        """Explain why a recorded firing happened (see
        :meth:`repro.rules.manager.RuleManager.explain_firing`)."""
        return self.rules.explain_firing(record, rendered=rendered)

    def close(self) -> None:
        """Detach the temporal component (rules stop being evaluated)."""
        self.rules.detach()
