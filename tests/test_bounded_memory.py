"""Bounded-memory properties (Section 5), read through the obs gauges.

"Bounded temporal operators allow us to keep only bounded information from
the past history."  For formulas built exclusively from bounded operators
(``lasttime``, windowed ``previously``/``throughout_past``) the optimized
incremental evaluator's state must not keep growing with history length.

The tests read the evaluator's live ``evaluator_state_size`` /
``evaluator_aux_rows`` gauges rather than calling ``state_size()``
directly — so they simultaneously verify that the observability layer
reports honest numbers.

The discrimination test shows the property is *about the optimization*:
the same bounded-window condition violates the growth bound as soon as
``optimize=False`` disables Section 5 pruning.

Two classes hold the same promise for the *process*: the
constraint-interning tables retain only the nodes the stored state still
references (not every ``F_{g,i}`` that ever passed through a step), and a
warmed-up step leaves nothing behind that only the cycle collector could
free.  The last two hold it for the past: a deep-past read costs the
deltas it replays, not a copy of the database per faulted state, the
memory governor's history account tracks the RAM the hot window really
holds, and a hot state costs the rows it changed — only the newest
version of a relation owns a table and its indexes.

Memory that no live object owns is read too: a step parks nothing on the
interpreter's free lists.  And one CPU row rides along with the dense and
served harnesses: a step does not re-hash a query or an aggregate term
tree to look it up.
"""

import gc
import json
import math
import random
import sys
import tracemalloc
import types

from hypothesis import given
from hypothesis import strategies as st

from repro import _intern, _value
from repro.datamodel import FLOAT, INT, Schema
from repro.engine import ActiveDatabase
from repro.errors import TransactionAborted
from repro.events.model import user_event
from repro.history.spill import attach_tiered_history
from repro.history.state import SystemState
from repro.obs import MetricsRegistry
from repro.ptl import IncrementalEvaluator, parse_formula
from repro.ptl.constraints import C, STerm, intern_stats
from repro.query.evaluator import eval_query
from repro.query.parser import parse_query
from repro.serve import ReproServer, StockProfile, compile_statements
from repro.validtime import TentativeTrigger, ValidTimeDatabase
from repro.workloads import (
    SHARP_INCREASE,
    apply_tick,
    make_stock_db,
    random_walk_trace,
    stock_query_registry,
    trace_history,
)
from repro.workloads.generator import random_bounded_pair
from repro.workloads.stock import STOCK_SCHEMA
from tests.helpers import (
    replay_transactions,
    serve_batch,
    stock_history,
    stock_registry,
    update_stmt,
)

#: History length for the growth check; the first/second halves are
#: compared below.
LENGTH = 120
HALF = LENGTH // 2


def gauge_sizes(formula, history, optimize):
    """Step the evaluator over ``history`` reading the state-size gauge
    after every step (the numbers an operator would see on a dashboard)."""
    registry = MetricsRegistry()
    ev = IncrementalEvaluator(
        formula, optimize=optimize, metrics=registry, name="prop"
    )
    sizes = []
    for state in history:
        ev.step(state)
        sizes.append(registry.value("evaluator_state_size", rule="prop"))
    return sizes


def bounded(sizes):
    """Flat-memory check: the worst size over the second half of the run
    must not materially exceed the worst over the first half.  Flat curves
    pass with room to spare; linear growth (second half max = 2x first
    half max) fails."""
    return max(sizes[HALF:]) <= 1.5 * max(sizes[:HALF]) + 8


class TestBoundedMemoryProperty:
    @given(seed=st.integers(0, 10_000))
    def test_bounded_operators_keep_state_bounded(self, seed):
        formula, history = random_bounded_pair(
            seed, length=LENGTH, max_depth=3
        )
        sizes = gauge_sizes(formula, history, optimize=True)
        assert bounded(sizes), (
            f"state size grew over the second half: "
            f"first-half max {max(sizes[:HALF])}, "
            f"second-half max {max(sizes[HALF:])}\nformula: {formula}"
        )

    @given(seed=st.integers(0, 2_000))
    def test_gauges_agree_with_state_size(self, seed):
        """The live gauges decompose correctly: stored + aux = total, and
        match the evaluator's direct accessors."""
        formula, history = random_bounded_pair(seed, length=20, max_depth=3)
        registry = MetricsRegistry()
        ev = IncrementalEvaluator(
            formula, optimize=True, metrics=registry, name="prop"
        )
        for state in history:
            ev.step(state)
            stored = registry.value("evaluator_stored_formula_size", rule="prop")
            aux = registry.value("evaluator_aux_rows", rule="prop")
            total = registry.value("evaluator_state_size", rule="prop")
            assert stored == ev.stored_formula_size()
            assert aux == ev.aux_rows()
            assert total == ev.state_size() == stored + aux


class TestNegatedWindowRegression:
    """Deterministic pin of the falsifying formula from the bounded-memory
    regression: nested bounded windows under negation,
    ``!(throughout_past[3] (previously[3] (@e1(u1))))``.  The
    ``throughout_past`` desugaring flips the deadline atoms' polarity
    (``time >= u - 3`` becomes ``time < u - 3`` under the pushed-in
    negation's dual), and the stored formula shares structure with its own
    negation — the state-size gauge must plateau once the window fills,
    over a fixed event history."""

    FORMULA = "!(throughout_past[3] (previously[3] (@e1(u1))))"
    #: Steps the 3-unit windows need to fill at timestamp stride 2.
    WARMUP = 10

    def _history(self, length=60):
        from repro.events.model import Event
        from repro.history.history import SystemHistory
        from repro.history.state import SystemState
        from repro.storage.snapshot import DatabaseState

        history = SystemHistory(validate_transaction_time=False)
        ts = 0
        for i in range(length):
            ts += 2
            if i % 2 == 0:
                events = [Event("e1", (1 if i % 3 else 2,))]
            else:
                events = [Event("e0", ())]
            history.append(
                SystemState(DatabaseState({"V": i % 5}), events, ts)
            )
        return history

    def _sizes(self, optimize):
        formula = parse_formula(self.FORMULA)
        return gauge_sizes(formula, self._history(), optimize)

    def test_state_size_plateaus_after_window_fills(self):
        sizes = self._sizes(optimize=True)
        assert max(sizes[self.WARMUP:]) <= max(sizes[: self.WARMUP]), (
            f"state kept growing past the window: warmup max "
            f"{max(sizes[: self.WARMUP])}, later max "
            f"{max(sizes[self.WARMUP:])}"
        )

    def test_unoptimized_grows_linearly(self):
        """Without Section 5 pruning the same formula/history pair grows
        without bound — the plateau above is the optimization's doing."""
        sizes = self._sizes(optimize=False)
        assert max(sizes[self.WARMUP:]) > 2 * max(sizes[: self.WARMUP])


class TestOptimizationDiscrimination:
    """SHARP-INCREASE carries a bounded window (``time >= t - 10``) but
    only the Section 5 pruning exploits it."""

    def _sizes(self, optimize):
        history = trace_history(random_walk_trace(seed=5, n=LENGTH))
        formula = parse_formula(SHARP_INCREASE, stock_query_registry())
        return gauge_sizes(formula, history, optimize)

    def test_optimized_is_bounded(self):
        assert bounded(self._sizes(optimize=True))

    def test_unoptimized_violates_the_bound(self):
        """The exact assertion the property test makes must FAIL without
        the optimization — i.e. the property genuinely discriminates."""
        assert not bounded(self._sizes(optimize=False))


class TestValidTimeCheckpointsWithinDelta:
    """Section 9's maximum delay bounds what a tentative trigger keeps: no
    commit reaches back more than DELTA, so the evaluator snapshots a
    rollback can still land on stay within DELTA of now, however long the
    valid-time history grows (ROADMAP 6, stage 1)."""

    DELTA = 5
    CONDITION = "PRICE >= 100 & lasttime (PRICE < 100)"

    def _run(self, max_delay):
        """``LENGTH`` commits two time units apart, each setting the price
        up to DELTA back in valid time; the trigger's checkpoint count
        after each."""
        vtdb = ValidTimeDatabase(start_time=10, max_delay=max_delay)
        vtdb.declare_item("PRICE", 40.0)
        trigger = TentativeTrigger(
            vtdb, parse_formula(self.CONDITION, items={"PRICE"})
        )
        rng = random.Random(3)
        kept = []
        for _ in range(LENGTH):
            at = vtdb.now + 2
            txn = vtdb.begin()
            txn.set_item(
                "PRICE",
                rng.choice((40.0, 120.0)),
                valid_time=at - rng.randint(0, self.DELTA),
            )
            txn.commit(at_time=at)
            kept.append(len(trigger._checkpoints))
        return trigger, kept

    def test_checkpoints_stay_within_delta(self):
        trigger, kept = self._run(self.DELTA)
        assert bounded(kept), (max(kept[:HALF]), max(kept[HALF:]))
        # the same commits without a maximum delay keep every checkpoint,
        # and roll back to the same ones: same firings, same replays
        twin, twin_kept = self._run(None)
        assert not bounded(twin_kept)
        assert trigger.firings == twin.firings and trigger.firings
        assert trigger.replays == twin.replays


class TestRunningAccumulatorIsConstant:
    """Section 6.1.1 keeps a running aggregate as two items (``CUM_PRICE``,
    ``TOTAL_UPDATES``): its accumulator is O(1) however many samples it
    has folded, so neither the plan's memory nor a capture of its value
    (``snapshot``, taken at every commit an integrity constraint judges)
    grows with the run."""

    CONDITION = "avg(price(IBM); time = 1; @update_stocks) > 0"

    def _evaluator(self):
        """A running average started at t=1 and its sampling state: every
        step of ``sample`` folds one more sample."""
        start, sample = stock_history([(40.0, 1), (50.0, 2)]).states
        ev = IncrementalEvaluator(
            parse_formula(self.CONDITION, stock_registry())
        )
        ev.step(start)
        return ev, sample

    def _snapshot_bytes(self, samples):
        ev, sample = self._evaluator()
        for _ in range(samples - 1):
            ev.step(sample)
        ev.plan.complete()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            ev.plan.snapshot()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    def test_a_capture_costs_the_same_at_any_sample_count(self):
        # ~80 kB at 10 000 samples when the accumulator kept every sample
        # and a capture copied them
        assert self._snapshot_bytes(10_000) <= self._snapshot_bytes(10)

    def test_retained_memory_is_flat_in_the_sample_count(self):
        ev, sample = self._evaluator()
        grown = retained_bytes(lambda i: ev.step(sample), 99, 9_999)
        assert ev.aux_rows() == 10_000
        # ~85 kB when every sample was kept
        assert grown <= 4_096, grown


# ---------------------------------------------------------------------------
# Section 5 for the process
# ---------------------------------------------------------------------------

DENSE_SYMBOLS = ("S0", "S1", "S2")

#: One rule per condition shape of the spine's ``rules_dense`` workload
#: (bounded windows, an edge, SHARP-INCREASE with assignments, a windowed
#: aggregate, a variable-free ``since``), plus a twin that shares a
#: temporal subformula.
DENSE_RULES = {
    "prev": "previously[6] (price(S0) > 55)",
    "prev_twin": "(previously[6] (price(S0) > 55)) & @update_stocks",
    "thru": "throughout_past[4] (price(S1) < 65)",
    "edge": "price(S2) > 45 & lasttime (price(S2) <= 45)",
    "sharp": (
        "[t := time] [x := price(S1)] "
        "previously (price(S1) <= 0.5 * x & time >= t - 8)"
    ),
    "avg": "[u := time] avg(price(S0); time <= u - 8; @update_stocks) > 45",
    "login": (
        "price(S2) > 35 & (!@user_logout('X') since @user_login('X'))"
    ),
}
DENSE_FREE_RULE = (
    "[t := time] [x := price($s)] "
    "previously (price($s) <= 0.5 * x & time >= t - 10)"
)
DENSE_READ = parse_query("RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name")


def dense_engine():
    """A stock engine with the rule set above, one free-variable rule over
    a domain query and one integrity constraint."""
    adb = make_stock_db([(s, 50.0) for s in DENSE_SYMBOLS])
    manager = adb.rule_manager()
    register_dense_rules(manager)
    return adb, manager


def register_dense_rules(manager):
    def action(ctx):
        pass

    for name, text in DENSE_RULES.items():
        manager.add_trigger(name, text, action)
    manager.add_trigger(
        "any_doubled", DENSE_FREE_RULE, action,
        params=("s",), domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
    )
    manager.add_integrity_constraint("positive_price", "price(S0) >= 0")


def dense_ops(n, seed=4):
    """``rules_dense``'s op mix: price ticks (1/8 jump x2.2, 1/8 of the S0
    ticks negative, so the IC vetoes them), a login/logout toggle and two
    portfolio reads every 20 ops."""
    rng = random.Random(seed)
    prices = {s: 50.0 for s in DENSE_SYMBOLS}
    logged_in = False
    for i in range(n):
        if i % 20 == 19:
            logged_in = not logged_in
            yield ("event", "user_login" if logged_in else "user_logout")
        elif i % 10 == 4:
            yield ("read",)
        else:
            sym = rng.choice(DENSE_SYMBOLS)
            roll = rng.random()
            if sym == "S0" and roll < 1 / 8:
                yield ("tick", sym, -prices[sym])
                continue
            factor = 2.2 if roll < 1 / 8 else rng.uniform(0.8, 1.2)
            prices[sym] = min(max(round(prices[sym] * factor, 2), 5.0), 150.0)
            yield ("tick", sym, prices[sym])


def apply_dense_op(adb, op):
    if op[0] == "tick":
        try:
            apply_tick(adb, op[1], op[2])
        except TransactionAborted:
            pass
    elif op[0] == "event":
        adb.post_event(user_event(op[1], "X"))
    else:
        for s in DENSE_SYMBOLS:
            eval_query(DENSE_READ, adb.state, {"name": s}).scalar()


def served_prices(n, seed=4):
    """The serving benchmarks' price stream: drifts, x2.2 jumps that fire
    SHARP-INCREASE and negative prices the IC vetoes."""
    rng = random.Random(seed)
    price = 50.0
    for _ in range(n):
        roll = rng.random()
        if roll < 1 / 16:
            yield -price
            continue
        factor = 2.2 if roll < 3 / 16 else rng.uniform(0.8, 1.2)
        price = round(max(5.0, price * factor), 2)
        if price > 1e7:
            price = 50.0
        yield price


class TestProcessRetainsOnlyTheState:
    """The intern tables hold nodes weakly, so the number of interned
    formulas follows the retained state — flat over a four times longer
    history, and back to where it started once the evaluator is gone."""

    N = 150

    @staticmethod
    def flat(at_n, at_4n):
        # The spine's flatness shape (rules_dense's Section 5 check).
        return at_4n <= 1.5 * at_n + 32

    def test_negated_window_formula(self):
        gc.collect()
        before = intern_stats()["formulas"]
        regression = TestNegatedWindowRegression()
        ev = IncrementalEvaluator(parse_formula(regression.FORMULA))
        live = {}
        for i, state in enumerate(regression._history(4 * self.N), 1):
            ev.step(state)
            if i in (self.N, 4 * self.N):
                live[i] = intern_stats()["formulas"] - before
        assert live[self.N] > 0
        assert self.flat(live[self.N], live[4 * self.N]), live
        del ev, state
        gc.collect()
        assert intern_stats()["formulas"] == before

    def test_dense_rule_set(self):
        gc.collect()
        before = intern_stats()["formulas"]
        adb, manager = dense_engine()
        live, sizes = {}, {}
        for i, op in enumerate(dense_ops(4 * self.N), 1):
            apply_dense_op(adb, op)
            if i in (self.N, 4 * self.N):
                live[i] = intern_stats()["formulas"] - before
                sizes[i] = manager.total_state_size()
        assert manager.firings, "the rule set never fired"
        assert self.flat(sizes[self.N], sizes[4 * self.N]), sizes
        assert self.flat(live[self.N], live[4 * self.N]), live
        # Nothing beyond the stored and-or graph (and the last step's
        # results) is interned: the table is the state, not a history.
        assert live[4 * self.N] <= 2 * sizes[4 * self.N] + 32, (live, sizes)
        del adb, manager
        gc.collect()
        assert intern_stats()["formulas"] == before


class TestCycleFreeStep:
    """A warmed-up step creates no reference cycle: everything it
    allocates and drops is freed by reference count, so the cycle
    collector finds nothing (``DEBUG_SAVEALL`` keeps whatever it would
    have had to free in ``gc.garbage``)."""

    WARMUP = 50
    WINDOW = 10

    def _assert_no_cyclic_garbage(self, step, inputs):
        inputs = list(inputs)
        assert len(inputs) == self.WARMUP + self.WINDOW
        for item in inputs[: self.WARMUP]:
            step(item)
        gc.collect()
        was_enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for item in inputs[self.WARMUP :]:
                step(item)
            gc.collect()
            found = [
                getattr(o, "__qualname__", type(o).__name__)
                for o in gc.garbage
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert found == []

    def test_dense_rule_set(self):
        adb, manager = dense_engine()
        ops = list(dense_ops(self.WARMUP + self.WINDOW))
        window = ops[self.WARMUP :]
        assert {"tick", "read"} <= {op[0] for op in window}
        assert any(op[0] == "tick" and op[2] < 0 for op in window), (
            "the window must cover a vetoed transaction"
        )
        self._assert_no_cyclic_garbage(
            lambda op: apply_dense_op(adb, op), ops
        )
        assert manager.firings

    def test_served_stock_profile(self):
        # The served tenant layout: catalog + rules of the stock profile
        # on a history-less engine.
        profile, engine = StockProfile(), ActiveDatabase(keep_history=False)
        profile.catalog(engine)
        manager = profile.rules(engine)
        prices = list(served_prices(self.WARMUP + self.WINDOW))
        assert any(p < 0 for p in prices[self.WARMUP :])

        def step(price):
            # One served transaction, as the drain runs it.
            stmt = ["update", "STOCK", {"name": "IBM"}, {"price": price}]
            replay_transactions(engine, manager, [compile_statements([stmt])])

        self._assert_no_cyclic_garbage(step, prices)
        assert manager.firings


def deep_engine(tmp_path, rows=400):
    """``history_deep``'s shape: a price item and a ``rows``-row relation
    under a tiered history whose budget nothing reaches — every state
    stays hot until told."""
    adb = ActiveDatabase(metrics=True)
    adb.declare_item("price", 0)
    adb.create_relation(
        "ORDERS",
        Schema.of(oid=INT, cust=INT, amount=FLOAT),
        [(i, i % 50, float(i % 97)) for i in range(rows)],
    )
    attach_tiered_history(
        adb, tmp_path / "segments", budget_bytes=1 << 40, fsync=False
    )
    return adb


def deep_txn(adb, i, rows=400):
    """Transaction ``i`` of that shape: the price every time, one row of
    the relation every fifth."""

    def work(txn):
        txn.set_item("price", i % 90)
        if i % 5 == 0:
            txn.update(
                "ORDERS",
                lambda r: r["oid"] == i % rows,
                lambda r: {"amount": float(i)},
            )

    adb.execute(work)


def traced_totals(step, warmup, steps) -> tuple[int, int, int]:
    """``tracemalloc``'s current total after ``step(i)`` for ``i`` in
    ``range(warmup)`` and a full collection, after ``range(warmup,
    steps)``, and after a closing full collection."""
    for i in range(warmup):
        step(i)
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for i in range(warmup, steps):
            step(i)
        stepped, _ = tracemalloc.get_traced_memory()
        gc.collect()
        collected, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return start, stepped, collected


def retained_bytes(step, warmup, steps):
    """``tracemalloc`` bytes still allocated after ``step(i)`` for ``i``
    in ``range(warmup, steps)``, beyond what ``range(warmup)`` left.

    Both readings follow a full collection, which also empties the
    interpreter's free lists, so this cannot see memory parked there
    (dead tuples of one size that nothing draws from again): a run that
    makes no full collection holds those bytes all the same.
    :func:`parked_bytes` reads them."""
    start, _, collected = traced_totals(step, warmup, steps)
    return collected - start


def parked_bytes(step, warmup, steps):
    """``tracemalloc`` bytes that a closing full collection frees after
    ``step(i)`` for ``i`` in ``range(warmup, steps)``.  A step makes no
    cycle (:class:`TestCycleFreeStep`), so this is what the interpreter's
    free lists parked, which only a full collection gives back."""
    _, stepped, collected = traced_totals(step, warmup, steps)
    return stepped - collected


class TestArchivalPastCostsItsDeltas:
    """ROADMAP item 9(c), both halves, on ``history_deep``'s shape: a
    400-row relation with one row updated every fifth transaction."""

    ROWS = 400
    STATES = 600

    def _engine(self, tmp_path):
        return deep_engine(tmp_path, self.ROWS)

    def _txn(self, adb, i):
        deep_txn(adb, i, self.ROWS)

    def _archived(self, tmp_path):
        """The engine after ``STATES`` transactions, every state sealed
        into one segment and evicted; also the states' timestamps."""
        adb = self._engine(tmp_path)
        for i in range(self.STATES):
            self._txn(adb, i)
        history = adb.history
        timestamps = [state.timestamp for state in history]
        history.archive()
        assert history.spill(keep_hot=0) == self.STATES
        (segment,) = history._catalog
        assert segment["count"] == self.STATES
        return adb, timestamps

    def test_fault_materialises_one_state(self, tmp_path):
        adb, _ = self._archived(tmp_path)
        history = adb.history
        faults = adb.metrics.counter("history_faults_total")
        gc.collect()
        tracemalloc.start()
        try:
            first = history[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.index == 0 and len(first.db.relation("ORDERS")) == self.ROWS
        # the segment's bytes, one decoded record and one database state
        # (≈ 0.34 MB on a 135 kB segment): not every record parsed
        # (2.0 MB) nor 600 private copies of a 400-row relation (27 MB)
        assert peak < 800_000, peak
        assert faults.value == 1
        # a second read into the same segment loads nothing
        later = adb.as_of(first.timestamp + self.STATES // 2)
        assert later.index > first.index
        assert faults.value == 1

    def test_a_cold_read_decodes_what_it_replays(self, tmp_path, monkeypatch):
        from repro.storage import tiers

        adb, timestamps = self._archived(tmp_path)
        history = adb.history
        decoded = []

        def loads(text, **kwargs):
            decoded.append(len(text))
            return json.loads(text, **kwargs)

        # every record the segment store decodes goes through its json
        monkeypatch.setattr(
            tiers,
            "json",
            types.SimpleNamespace(
                loads=loads,
                dumps=json.dumps,
                JSONDecodeError=json.JSONDecodeError,
            ),
        )
        faults = adb.metrics.counter("history_faults_total")
        bisect = math.ceil(math.log2(self.STATES))

        k = self.STATES // 3
        state = history.as_of(timestamps[k])
        assert (state.index, state.timestamp) == (k, timestamps[k])
        # the header, a bisection over the timestamps and the deltas
        # from the snapshot head to k; the whole segment before
        assert len(decoded) <= k + 2 + bisect, len(decoded)
        assert faults.value == 1

        # a second read into the same segment loads nothing and replays
        # forward from the first
        decoded.clear()
        later = history.as_of(timestamps[2 * k])
        assert later.index == 2 * k
        assert len(decoded) <= k + bisect, len(decoded)
        assert faults.value == 1

    def test_fault_cache_bytes_name_the_segment(self, tmp_path):
        adb, _ = self._archived(tmp_path)
        gauge = adb.metrics.gauge("history_fault_cache_bytes")
        assert gauge.value == 0
        adb.history[0]
        (segment,) = adb.history._catalog
        assert gauge.value == segment["bytes"]
        # not the governor's: a cold read moves no spill point
        assert adb.tiered.governor.usage() == {
            "history": adb.history.estimated_hot_bytes()
        }

    def test_governor_counts_ram(self, tmp_path):
        adb = self._engine(tmp_path)
        warmup = 100
        for i in range(warmup):
            self._txn(adb, i)
        history = adb.history
        estimates = [history.estimated_hot_bytes()]
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(warmup, self.STATES):
                self._txn(adb, i)
                estimates.append(history.estimated_hot_bytes())
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert history.hot_states == self.STATES
        per_state = (after - before) / (self.STATES - warmup)
        measured = per_state * history.hot_states
        estimate = history.estimated_hot_bytes()
        # within a factor 3 of what the allocator saw (20x low when the
        # estimate was learned from encoded segment bytes)
        assert measured / 3 <= estimate <= 3 * measured, (estimate, measured)
        # ...and eviction takes back what the dropped states had added
        dropped = history.spill(keep_hot=100)
        assert dropped == self.STATES - 100
        added_by_kept = estimates[-1] - estimates[-101]
        assert history.estimated_hot_bytes() == added_by_kept
        assert adb.metrics.gauge("history_hot_bytes").value == added_by_kept


class TestHotPastCostsItsDeltas:
    """ROADMAP item 3(a): only the newest version of a relation owns a
    table (and its indexes); a superseded one is a reverse row-delta off
    its successor, so a *hot* state costs what changed too."""

    STATES = 600
    WARMUP = 100

    def _per_state(self, tmp_path, rows):
        adb = deep_engine(tmp_path / str(rows), rows)
        retained = retained_bytes(
            lambda i: deep_txn(adb, i, rows), self.WARMUP, self.STATES
        )
        assert adb.history.hot_states == self.STATES
        return retained / (self.STATES - self.WARMUP)

    def test_a_hot_state_costs_its_delta(self, tmp_path):
        # ~0.46 kB; ~0.66 kB while a superseded commit state kept its
        # two commit events and a tuple of its own, ~1.0 kB with an event
        # frozenset, an item dict and a pair of row tuples per state,
        # ~1.3 kB while each state held its own write-set and update_item
        # event, 7.6 kB while every fifth state owned a 400-row table
        assert self._per_state(tmp_path, 400) < 560

    def test_flat_in_the_cardinality(self, tmp_path):
        small, large = (self._per_state(tmp_path, n) for n in (400, 1600))
        assert large < 1.5 * small, (small, large)

    def test_served_past_holds_no_index(self):
        # The served shape on an engine that keeps its history (a served
        # tenant keeps none, see TestServedTenantHoldsThePresent): a
        # one-row STOCK, statements compiled as the server does, group
        # commit.  Under drain() the rule step reads a version later
        # commits already superseded; an index memoized on it would stay
        # for as long as the history does.
        from repro.storage.index import HashIndex

        profile, engine = StockProfile(), ActiveDatabase()
        profile.catalog(engine)
        manager = profile.rules(engine)
        prices = [p for p in served_prices(220) if p > 0][:200]
        gc.collect()
        indexes_before = sum(
            isinstance(o, HashIndex) for o in gc.get_objects()
        )
        for start in range(0, len(prices), 8):
            for price in prices[start : start + 8]:
                stmt = ["update", "STOCK", {"name": "IBM"}, {"price": price}]
                engine.enqueue(compile_statements([stmt]))
            engine.drain()
        manager.flush()
        assert manager.firings
        versions = {
            id(s.db.raw_item("STOCK")): s.db.raw_item("STOCK")
            for s in engine.history
        }
        assert len(versions) >= len(prices)
        assert [v for v in versions.values() if not v.superseded] == [
            engine.state.raw_item("STOCK")
        ]
        assert all(
            v._index_cache is None
            for v in versions.values()
            if v.superseded
        )
        gc.collect()
        indexes = sum(isinstance(o, HashIndex) for o in gc.get_objects())
        assert indexes - indexes_before <= 4, indexes - indexes_before


class TestFiringCostsItsRow:
    """ROADMAP item 3(b): a firing nobody's condition reads back leaves
    one packed row of the firing log and no execution record."""

    WARMUP = 200
    STEPS = 2_200

    def test_unread_firings_cost_their_log_row(self):
        adb = ActiveDatabase(keep_history=False)
        adb.declare_item("price", 0)
        manager = adb.rule_manager()
        manager.add_trigger("every", "price >= 0", lambda ctx: None)
        manager.add_trigger(
            "rise", "price > 50 & lasttime price <= 50", lambda ctx: None
        )
        manager.add_trigger(
            "level", "@tick(L) & price > 20", lambda ctx: None,
            params=("L",),
        )
        fired = []

        def step(i):
            if i == self.WARMUP:
                fired.append(manager.firing_count)
            if i % 3 == 0:
                adb.post_event(user_event("tick", i % 5))
            else:
                adb.execute(lambda t: t.set_item("price", (i * 37) % 97))

        retained = retained_bytes(step, self.WARMUP, self.STEPS)
        firings = manager.firing_count - fired[0]
        assert firings > self.STEPS - self.WARMUP
        assert {f.rule for f in manager.firings} == {"every", "rise", "level"}
        assert len(manager.executed) == 0
        # ~9 B: a 4-byte row plus a few bytes for each state with a firing
        # (~1.1 firings each); ~29 B with the state index and timestamp in
        # every row, ~200 B with a FiringRecord and an ExecutionRecord each
        assert retained / firings <= 40, retained / firings


CROWDED_SYMBOLS = tuple(f"S{i}" for i in range(10))
CROWDED_SHAPES = (
    "price({s}) > 10",
    "previously[4] (price({s}) > 10)",
    "throughout_past[3] (price({s}) > 10)",
    "price({s}) > 10 & lasttime (price({s}) > 10)",
)


def crowded_engine(keep_history):
    """Ten symbols under forty triggers, four per symbol, that hold at
    almost every state: ~40 firings per committed state."""
    adb = ActiveDatabase(keep_history=keep_history)
    adb.create_relation(
        "STOCK",
        STOCK_SCHEMA,
        [(s, 50.0, f"{s} Corp", "tech") for s in CROWDED_SYMBOLS],
    )
    adb.define_query(
        "price", ["name"], "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name"
    )
    manager = adb.rule_manager()
    for s in CROWDED_SYMBOLS:
        for shape in CROWDED_SHAPES:
            manager.add_trigger(
                f"{shape}_{s}", shape.format(s=s), lambda ctx: None
            )
    rng = random.Random(7)

    def step(i):
        apply_tick(adb, rng.choice(CROWDED_SYMBOLS), rng.uniform(20.0, 80.0))

    return adb, manager, step


class TestKeptStateCostsWhatItAdds:
    """A kept state holds what its commit changed: one ``SystemState``,
    the write-set and catalog-named events every ``STOCK`` commit shares,
    and its firings' packed rows, with the state they share stored once."""

    WARMUP = 10
    STEPS = 310

    def test_bytes_retained_per_kept_state(self):
        adb, manager, step = crowded_engine(keep_history=True)
        fired = []
        retained = retained_bytes(
            lambda i: step(i) or fired.append(manager.firing_count),
            self.WARMUP,
            self.STEPS,
        )
        states = self.STEPS - self.WARMUP
        assert (fired[-1] - fired[self.WARMUP - 1]) / states >= 36
        assert len(adb.history) == self.STEPS
        # ~0.81 kB: the state (its commit's transaction id for the two
        # commit events, its other events in the tuple it shares with the
        # tick before), its item tuple, a STOCK reverse delta in one tuple
        # and the firings' rows; ~1.0 kB while a superseded state kept
        # the two commit events and its own event tuple, ~1.6 kB with an
        # event frozenset, an item dict and a pair of row tuples per
        # state and every superseded STOCK table kept as a hash table;
        # ~2.9 kB with a write-set and two events of its own per state and
        # the state index and timestamp stored with every firing
        assert retained / states <= 900, retained / states

    def test_bytes_retained_per_firing(self):
        adb, manager, step = crowded_engine(keep_history=False)
        fired = []
        retained = retained_bytes(
            lambda i: step(i) or fired.append(manager.firing_count),
            self.WARMUP,
            self.STEPS,
        )
        firings = fired[-1] - fired[self.WARMUP - 1]
        assert firings / (self.STEPS - self.WARMUP) >= 36
        assert len(manager.executed) == 0
        # ~7 B: a 4-byte row plus a few bytes per state; ~31 B with the
        # state index and timestamp in every row
        assert retained / firings <= 10, retained / firings

    def test_stock_commits_share_write_set_and_events(self):
        adb, _, _ = crowded_engine(keep_history=True)
        apply_tick(adb, "S1", 60.0)
        first = adb.last_state
        apply_tick(adb, "S2", 70.0)
        second = adb.last_state
        assert first.delta == {"STOCK"}
        assert first.delta is second.delta
        for name in ("update_item", "update_stocks"):
            [shared] = [e for e in first.events if e.name == name]
            assert [e for e in second.events if e.name == name][0] is shared

    def test_a_commit_builds_one_state(self, monkeypatch):
        adb, _ = dense_engine()
        apply_tick(adb, "S1", 51.0)
        built = []
        init = SystemState.__init__

        def counted(state, *args, **kwargs):
            built.append(state)
            init(state, *args, **kwargs)

        monkeypatch.setattr(SystemState, "__init__", counted)
        apply_tick(adb, "S1", 52.0)
        assert len(built) == 1
        assert built[0] is adb.last_state is adb.history[-1]

    def test_intern_tables_forget_a_dropped_engine(self):
        from repro.events import model
        from repro.storage import transactions

        def sizes():
            gc.collect()
            return len(model._shared_events), len(transactions._write_sets)

        before = sizes()
        adb = ActiveDatabase()
        names = [f"R{i}" for i in range(100)]
        for name in names:
            adb.create_relation(name, Schema.of(k=INT), [(0,)])
        for name in names:

            def work(txn, name=name):
                txn.update(name, lambda r: True, lambda r: {"k": 1})
                txn.post_event(user_event(f"{name}_done"))

            adb.execute(work)
        grown = sizes()
        assert grown[0] >= before[0] + 200 and grown[1] >= before[1] + 100
        del adb, work
        assert sizes() == before


class TestParkedBytes:
    """A step parks nothing on the interpreter's tuple free lists: every
    tuple the package builds starts at its final size, so a dead one goes
    back to the free list that the next tuple of its kind draws from
    (DESIGN.md, "Tuples are built at their final size")."""

    async def test_served_stock_profile(self, tmp_path):
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenant = await server.registry.get("t1")
        ops = [("stmts", update_stmt(p)) for p in served_prices(4 * 225)]
        parked = parked_bytes(
            lambda i: serve_batch(server, tenant, ops[4 * i : 4 * i + 4]),
            25,
            225,
        )
        # ~18 kB; ~296 kB while tuples were built from generators (the
        # free lists of the sizes they shrank to stayed full)
        assert parked < 64_000, parked
        await server.registry.close_all()

    def test_crowded_engine(self):
        _, manager, step = crowded_engine(keep_history=False)
        parked = parked_bytes(step, 10, 310)
        assert manager.firing_count
        # ~16 kB; ~252 kB while tuples were built from generators
        assert parked < 64_000, parked


def hash_calls(fn) -> int:
    """Calls of a value class's ``__hash__`` (the shared ones of
    ``repro._value``, and the held one of ``repro._intern``) while
    ``fn()`` runs, recursion included.  The constraint algebra's nodes
    are not counted: these rows are about the values and syntax trees a
    lookup keys on."""
    codes = {f.__code__ for f in (_value._hash, _value._hash_one, _intern._hash)}
    algebra = (STerm, C)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if (
            event == "call"
            and frame.f_code in codes
            and not isinstance(frame.f_locals["self"], algebra)
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestLookupsHashOnce:
    """The plan cache finds a query by its identity and an aggregate's
    term holds its hash, so a lookup hashes no tree."""

    def test_dense_step(self):
        adb, _ = dense_engine()
        ops = list(dense_ops(200))
        for op in ops[:50]:
            apply_dense_op(adb, op)
        calls = hash_calls(lambda: [apply_dense_op(adb, op) for op in ops[50:]])
        # ~0.9 per op: one per aggregate read (the plan cache finds a
        # query by its identity); ~13.6 while every plan-cache lookup
        # called the query's held hash, ~17 while a state hashed its
        # events to deduplicate them, ~140 while every lookup re-hashed
        # the query, its schemas' attributes and the aggregate term's
        # query and formulas
        assert calls / 150 <= 2, calls / 150

    async def test_served_op(self, tmp_path):
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenant = await server.registry.get("t1")
        ops = [("stmts", update_stmt(p)) for p in served_prices(4 * 100)]
        for i in range(25):
            serve_batch(server, tenant, ops[4 * i : 4 * i + 4])
        calls = hash_calls(
            lambda: [
                serve_batch(server, tenant, ops[4 * i : 4 * i + 4])
                for i in range(25, 100)
            ]
        )
        # none; ~2.9 per op while every plan-cache lookup called the
        # query's held hash, 32 while every lookup re-hashed its key's tree
        assert calls / 300 <= 2, calls / 300
        await server.registry.close_all()


class TestServedTenantHoldsThePresent:
    """A served tenant holds its current state, the plan's state formulas
    and the firing log (unbounded by design, ROADMAP 3(b)) — nothing per
    past state: its engine keeps no history, no execution record (no
    condition of the stock profile reads one) and no trace (an IC veto
    rides on its transaction)."""

    BATCH = 4
    WARMUP = 25
    BATCHES = 225

    async def test_bytes_retained_per_served_txn(self, tmp_path):
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenant = await server.registry.get("t1")
        ops = [
            ("stmts", update_stmt(p))
            for p in served_prices(self.BATCH * self.BATCHES)
        ]

        def step(i):
            batch = ops[i * self.BATCH : (i + 1) * self.BATCH]
            serve_batch(server, tenant, batch)

        retained = retained_bytes(step, self.WARMUP, self.BATCHES)
        per_txn = retained / (self.BATCH * (self.BATCHES - self.WARMUP))
        # ~57 B (mostly the firing log's packed rows); ~68 B with the
        # state index and timestamp in every row; ~560 while every tenant
        # kept a 10 000-event trace, ~635 while every firing also left an
        # execution record, ~2 230 while every tenant kept its history
        assert per_txn < 120, per_txn
        assert tenant.manager.trace.enabled is False
        assert len(tenant.manager.executed) == 0
        assert tenant.engine.history is None
        assert tenant.manager.firing_count
        await server.registry.close_all()


def reachable(root) -> list:
    """Every object reachable from ``root`` through references, not
    entering modules, classes or functions (whose globals reach the
    whole process)."""
    skip = (
        types.ModuleType,
        type,
        types.FunctionType,
        types.BuiltinFunctionType,
        types.CodeType,
    )
    seen, out, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def traced_bytes(fn) -> int:
    """``tracemalloc`` bytes still allocated after ``fn()`` and a full
    collection."""
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn()
        gc.collect()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return end - start


class TestRegistrationSharesSubformulas:
    """A registered rule holds each distinct subformula once: condition
    and query trees are hash-consed as they are built (``repro._intern``),
    so a rule's parsed condition, its normal form and the other rules'
    conditions share what they have in common, and a structure that holds
    an empty set holds the one shared empty frozenset."""

    def test_bytes_retained_per_registered_rule(self):
        dense_engine()  # warm-up: imports, caches, table capacities
        adb = make_stock_db([(s, 50.0) for s in DENSE_SYMBOLS])
        manager = adb.rule_manager()
        retained = traced_bytes(lambda: register_dense_rules(manager))
        per_rule = retained / len(manager.rule_names())
        # ~5.7 kB; ~8.5 kB while every parse, rewrite and query-symbol
        # expansion built a tree of its own, every structure an empty set
        # of its own and every rule an evaluation context of its own
        assert per_rule < 6_500, per_rule

    def test_one_empty_frozenset_is_reachable(self):
        _, manager = dense_engine()
        empties = [
            o for o in reachable(manager) if type(o) is frozenset and not o
        ]
        # 63 while every structure built its own
        assert len(empties) == 1, len(empties)

    async def test_bytes_retained_per_opened_tenant(self, tmp_path):
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenants = [await server.registry.get("warm")]
        n = 10

        async def open_tenants():
            for i in range(n):
                tenants.append(await server.registry.get(f"t{i}"))

        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            await open_tenants()
            gc.collect()
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_tenant = (end - start) / n
        # ~22 kB: the tenants' rules share one tree per condition;
        # ~35.5 kB while each tenant's parse built its own
        assert per_tenant < 29_000, per_tenant
        assert len(tenants) == n + 1
        await server.registry.close_all()
