"""The observability layer itself: metric semantics, the zero-allocation
disabled path, trace ordering, JSON round-trips, and gauge freshness
across evaluator snapshot/restore."""

import gc
import json
import sys

import pytest

from repro.obs import (
    DEFAULT_TRACE_LIMIT,
    FIRING,
    IC_VIOLATION,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NULL_TRACE,
    TraceSink,
    as_registry,
    as_trace,
)
from repro.ptl import IncrementalEvaluator, parse_formula
from repro.workloads import (
    SHARP_INCREASE,
    random_walk_trace,
    stock_query_registry,
    trace_history,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("x_total")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_identity_is_stable_per_labels(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1") is reg.counter("x", a="1")
        assert reg.counter("x", a="1") is not reg.counter("x", a="2")
        assert reg.counter("x") is not reg.gauge("x")

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(3)
        g.dec()
        assert g.value == 12


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = MetricsRegistry().histogram("lat_seconds")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0 and h.max == 3.0
        assert h.mean == 2.0

    def test_quantiles(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(100):
            h.observe(v)
        assert h.quantile(0.5) == 50
        assert h.quantile(0.99) == 99
        assert MetricsRegistry().histogram("empty").quantile(0.5) is None

    def test_sample_cap_decimates_but_keeps_exact_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", max_samples=64)
        n = 1000
        for v in range(n):
            h.observe(v)
        assert h.count == n
        assert h.total == sum(range(n))
        assert h.min == 0 and h.max == n - 1
        assert len(h._samples) <= 64


class TestRegistry:
    def test_value_and_find(self):
        reg = MetricsRegistry()
        reg.counter("fires_total", rule="a").inc(2)
        reg.counter("fires_total", rule="b").inc(5)
        assert reg.value("fires_total", rule="a") == 2
        assert len(reg.find("fires_total")) == 2
        with pytest.raises(KeyError):
            reg.value("fires_total")
        assert reg.value("absent") is None

    def test_as_registry_normalization(self):
        assert as_registry(None) is NULL_REGISTRY
        assert as_registry(False) is NULL_REGISTRY
        assert as_registry(True).enabled
        reg = MetricsRegistry()
        assert as_registry(reg) is reg
        with pytest.raises(TypeError):
            as_registry("yes")

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c_total", rule="r").inc(7)
        reg.gauge("g", rule="r").set(-3)
        h = reg.histogram("h_seconds")
        for v in (0.5, 1.5, 2.5):
            h.observe(v)

        restored = MetricsRegistry.from_json(reg.to_json())
        assert restored.to_dict() == reg.to_dict()
        assert restored.value("c_total", rule="r") == 7
        assert restored.value("g", rule="r") == -3
        h2 = restored.histogram("h_seconds")
        assert h2.count == 3 and h2.mean == 1.5

    def test_to_json_is_valid_sorted_json(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        doc = json.loads(reg.to_json())
        names = [m["name"] for m in doc["metrics"]]
        assert names == sorted(names)


class TestDisabledPath:
    def test_null_registry_returns_shared_singletons(self):
        assert NULL_REGISTRY.counter("a") is NULL_COUNTER
        assert NULL_REGISTRY.counter("b", rule="x") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("a") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("a") is NULL_HISTOGRAM
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.to_dict() == {"enabled": False, "metrics": []}

    def test_disabled_instruments_allocate_nothing(self):
        """The hot-path contract: calling no-op instruments performs zero
        allocations (checked via the interpreter's live block count)."""
        c, g, h = NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
        value = 1.5

        def spin(n):
            for _ in range(n):
                c.inc()
                g.set(value)
                g.inc()
                g.dec()
                h.observe(value)

        spin(100)  # warm up caches and any lazy interpreter state
        deltas = []
        for _ in range(5):
            gc.collect()
            before = sys.getallocatedblocks()
            spin(10_000)
            deltas.append(sys.getallocatedblocks() - before)
        # a real per-call allocation would leak ~10k blocks per trial;
        # the min filters one-off interpreter noise
        assert min(deltas) <= 0, deltas

    def test_evaluator_without_metrics_keeps_disabled_path(self):
        history = trace_history(random_walk_trace(seed=1, n=5))
        formula = parse_formula(SHARP_INCREASE, stock_query_registry())
        ev = IncrementalEvaluator(formula)
        assert ev.metrics is NULL_REGISTRY
        for state in history:
            ev.step(state)


class TestTraceSink:
    def test_ordering_and_seq(self):
        sink = TraceSink()
        sink.emit(FIRING, timestamp=3, rule="a")
        sink.emit(IC_VIOLATION, timestamp=4, rule="b")
        sink.emit(FIRING, timestamp=5, rule="c")
        seqs = [e.seq for e in sink]
        assert seqs == sorted(seqs) == [0, 1, 2]
        assert [e.data["rule"] for e in sink.events(FIRING)] == ["a", "c"]
        assert sink.emitted == 3

    def test_bounded_buffer_keeps_most_recent(self):
        sink = TraceSink(limit=4)
        for i in range(10):
            sink.emit(FIRING, timestamp=i, i=i)
        assert len(sink) == 4
        assert [e.data["i"] for e in sink] == [6, 7, 8, 9]
        assert sink.emitted == 10  # gaps are detectable

    def test_to_dicts_is_json_serializable(self):
        sink = TraceSink()
        sink.emit(FIRING, timestamp=1, rule="r", bindings={"x": 2})
        [d] = json.loads(json.dumps(sink.to_dicts()))
        assert d == {
            "seq": 0,
            "kind": FIRING,
            "timestamp": 1,
            "data": {"rule": "r", "bindings": {"x": 2}},
        }

    def test_as_trace_normalization(self):
        assert as_trace(None) is NULL_TRACE
        assert as_trace(True).enabled
        sink = TraceSink()
        assert as_trace(sink) is sink
        with pytest.raises(TypeError):
            as_trace(42)
        assert as_trace(True)._events.maxlen == DEFAULT_TRACE_LIMIT

    def test_null_trace_stores_nothing(self):
        assert NULL_TRACE.emit(FIRING, rule="x") is None
        assert len(NULL_TRACE) == 0
        assert NULL_TRACE.to_dicts() == []


class TestSnapshotRestoreGauges:
    def test_restore_refreshes_state_size_gauges(self):
        """Trial evaluation (integrity constraints) snapshots, steps, and
        restores the evaluator; the live gauges must reflect the restored
        state, not the trial step's."""
        history = trace_history(random_walk_trace(seed=9, n=30))
        formula = parse_formula(SHARP_INCREASE, stock_query_registry())
        registry = MetricsRegistry()
        ev = IncrementalEvaluator(
            formula, optimize=False, metrics=registry, name="ic"
        )
        states = list(history)
        for state in states[:20]:
            ev.step(state)

        snap = ev.snapshot()
        ev.step(states[20])  # trial step mutates state and gauges
        assert registry.value("evaluator_state_size", rule="ic") \
            == ev.state_size()
        ev.restore(snap)

        assert registry.value("evaluator_state_size", rule="ic") \
            == ev.state_size()
        assert registry.value("evaluator_stored_formula_size", rule="ic") \
            == ev.stored_formula_size()
        assert registry.value("evaluator_aux_rows", rule="ic") \
            == ev.aux_rows()

    def test_facade_integration_ic_trial_eval_and_traces(self):
        """End-to-end through the facade: a violating commit is vetoed by
        trial evaluation (snapshot -> step -> restore), traces record the
        violation, and the gauges keep matching the evaluator afterwards."""
        from repro.errors import TransactionAborted
        from repro.facade import TemporalDatabase
        from repro.workloads.stock import STOCK_SCHEMA

        tdb = TemporalDatabase(metrics=True, trace=True)
        tdb.create_relation(
            "STOCK", STOCK_SCHEMA, [("IBM", 50.0, "IBM Corp", "tech")]
        )
        tdb.define_query(
            "price", ["name"],
            "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name",
        )
        tdb.constrain("cap", "price(IBM) <= 100")

        def set_price(p):
            def work(txn):
                txn.update(
                    "STOCK",
                    lambda r: r["name"] == "IBM",
                    lambda r: {"price": float(p)},
                )
            return work

        tdb.engine.execute(set_price(80.0))
        with pytest.raises(TransactionAborted):
            tdb.engine.execute(set_price(500.0))
        tdb.engine.execute(set_price(90.0))

        reg = tdb.metrics
        assert reg.value("ic_violations_total", rule="cap") == 1
        assert reg.value("engine_aborts_total") == 1
        assert reg.value("engine_commits_total") == 2
        [violation] = tdb.trace.events(IC_VIOLATION)
        assert violation.data["rule"] == "cap"
        # the vetoed trial step must not have left stale evaluator gauges
        for reg_rule in tdb.rules._ics.values():
            ev = reg_rule.evaluator
            assert reg.value("evaluator_state_size", rule="cap") \
                == ev.state_size()

    def test_restore_then_step_continues_consistently(self):
        history = trace_history(random_walk_trace(seed=9, n=30))
        formula = parse_formula(SHARP_INCREASE, stock_query_registry())
        registry = MetricsRegistry()
        ev = IncrementalEvaluator(formula, metrics=registry, name="ic")
        plain = IncrementalEvaluator(formula)
        states = list(history)
        for state in states[:10]:
            ev.step(state)
            plain.step(state)
        snap = ev.snapshot()
        ev.step(states[10])
        ev.restore(snap)
        for state in states[10:]:
            fired = ev.step(state).fired
            assert fired == plain.step(state).fired
            assert registry.value("evaluator_state_size", rule="ic") \
                == plain.state_size()


class TestHolderGauges:
    def test_executed_records_and_firing_log_length(self):
        """``executed_records`` counts only the executions some condition
        reads; ``firing_log_length`` counts every firing.  Both are set
        when the manager flushes a state."""
        from repro.engine import ActiveDatabase
        from repro.events import user_event

        registry = MetricsRegistry()
        adb = ActiveDatabase(metrics=registry)
        manager = adb.rule_manager()
        manager.add_trigger("ping", "@ping", lambda ctx: None)
        manager.add_trigger("other", "@ping", lambda ctx: None)
        for _ in range(3):
            adb.post_event(user_event("ping"))
        assert registry.value("firing_log_length") == 6
        assert registry.value("executed_records") == 0

        manager.add_trigger(
            "reader", "executed(ping, t) & time = t + 100", lambda ctx: None
        )
        for _ in range(2):
            adb.post_event(user_event("ping"))
        assert registry.value("firing_log_length") == manager.firing_count
        assert manager.firing_count == 10
        assert registry.value("executed_records") == 2
        assert len(manager.executed) == 2


class TestMetricCatalog:
    """docs/OBSERVABILITY.md's tables and the code name the same
    metrics: every literal name passed to ``.counter(`` / ``.gauge(`` /
    ``.histogram(`` under ``src/``, plus the ``qplan_*`` gauges that
    ``query.plan.STATS`` publishes, has one row, and every row names
    one of them."""

    def test_doc_rows_are_the_code_names(self):
        import re
        from pathlib import Path

        from repro.query.plan import STATS

        root = Path(__file__).resolve().parents[1]
        call = re.compile(r'\.(?:counter|gauge|histogram)\(\s*"([^"]+)"')
        in_code = {
            name
            for path in (root / "src").rglob("*.py")
            for name in call.findall(path.read_text())
        } | {f"qplan_{key}" for key in STATS.snapshot()}

        rows = []
        in_table = False
        doc = root / "docs" / "OBSERVABILITY.md"
        for line in doc.read_text().splitlines():
            if line.startswith("| metric | kind | meaning |"):
                in_table = True
            elif not line.startswith("|"):
                in_table = False
            elif in_table and not line.startswith("|---"):
                rows.append(line.split("|")[1].strip())
        malformed = [cell for cell in rows if not re.fullmatch(r"`\w+`", cell)]
        assert malformed == [], "one metric name per row"
        in_doc = [cell.strip("`") for cell in rows]
        assert len(in_doc) == len(set(in_doc)), "a metric with two rows"
        assert sorted(set(in_doc) - in_code) == [], "rows nothing emits"
        assert sorted(in_code - set(in_doc)) == [], "metrics with no row"
