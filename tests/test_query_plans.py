"""Compiled query plans (hash joins, predicate pushdown) and delta-aware
atom skipping: differential equivalence with the naive evaluator, plan
statistics, and write-set threading through the engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NaiveDetector
from repro.datamodel import FLOAT, INT, STRING, Relation, Schema
from repro.engine import ActiveDatabase
from repro.errors import QueryEvaluationError, TransactionAborted
from repro.obs.metrics import MetricsRegistry
from repro.ptl import EvalContext, IncrementalEvaluator, parse_formula
from repro.ptl.compiled import set_ptl_compile
from repro.query import parse_query
from repro.query import plan as qplan
from repro.query.deps import query_deps
from repro.query.evaluator import (
    _eval_aggregate_scan,
    _eval_retrieve_scan,
    eval_query,
)
from repro.query import ast as qast
from repro.storage.snapshot import DatabaseState

from tests.helpers import stock_registry


# ---------------------------------------------------------------------------
# fixtures / helpers
# ---------------------------------------------------------------------------

R_SCHEMA = Schema.of(a=INT, b=INT, tag=STRING)
S_SCHEMA = Schema.of(b=INT, c=INT)


def make_state(r_rows, s_rows):
    return DatabaseState(
        {
            "R": Relation.from_values(R_SCHEMA, r_rows),
            "S": Relation.from_values(S_SCHEMA, s_rows),
            "time": 100,
        }
    )


def naive(query, state, params=None, probe=True):
    params = params or {}
    if isinstance(query, qast.Retrieve):
        return _eval_retrieve_scan(query, state, params, probe=probe)
    return _eval_aggregate_scan(query, state, params)


def planned(query, state, params=None):
    result = qplan.try_execute(query, state, params or {})
    assert result is not qplan.FALLBACK
    return result


@pytest.fixture(autouse=True)
def _fresh_plan_state():
    qplan.clear_plan_cache()
    qplan.STATS.reset()
    yield
    qplan.clear_plan_cache()


# Query templates spanning every plan shape: selection probe, equi-join,
# cross product, range-free predicates, bare columns, aggregates, params.
QUERIES = [
    "RETRIEVE (R.a, R.b) FROM R R",
    "RETRIEVE (R.a) FROM R R WHERE R.b = 2",
    "RETRIEVE (R.a, S.c) FROM R R, S S WHERE R.b = S.b",
    "RETRIEVE (R.a, S.c) FROM R R, S S WHERE R.b = S.b AND S.c > 1",
    "RETRIEVE (R.a, S.c) FROM R R, S S WHERE R.a < S.c",
    "RETRIEVE (R.a, S.b) FROM R R, S S",
    "RETRIEVE (a, tag) FROM R R WHERE a >= 1",
    "RETRIEVE (R.a) FROM R R WHERE 1 = 1",
    "RETRIEVE (R.a) FROM R R WHERE R.tag = 'x' AND R.a = R.b",
    "RETRIEVE (R.a + R.b AS s) FROM R R WHERE R.a = $p",
    "COUNT(R.a) FROM R R WHERE R.b = 2",
    "SUM(R.a) FROM R R GROUP BY R.tag",
    "MIN(S.c) FROM S S",
    "COUNT(R.a) FROM R R, S S WHERE R.b = S.b GROUP BY R.tag",
]

row_r = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.sampled_from(["x", "y", "z"])
)
row_s = st.tuples(st.integers(0, 4), st.integers(0, 4))


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        r_rows=st.lists(row_r, max_size=8),
        s_rows=st.lists(row_s, max_size=8),
        qi=st.integers(0, len(QUERIES) - 1),
        p=st.integers(0, 4),
    )
    def test_plan_matches_naive(self, r_rows, s_rows, qi, p):
        """Planned execution ≡ the naive cross-product evaluator — results
        and raised errors both — with and without the legacy single-range
        ``_equality_probe`` fast path."""
        query = parse_query(QUERIES[qi])
        state = make_state(r_rows, s_rows)
        params = {"p": p}
        try:
            expected = ("ok", naive(query, state, params))
        except QueryEvaluationError as err:
            expected = ("err", str(err))
        try:
            got = ("ok", planned(query, state, params))
        except QueryEvaluationError as err:
            got = ("err", str(err))
        assert got == expected
        if isinstance(query, qast.Retrieve) and expected[0] == "ok":
            assert naive(query, state, params, probe=False) == expected[1]

    @settings(max_examples=30, deadline=None)
    @given(
        r_rows=st.lists(row_r, min_size=1, max_size=6),
        s_rows=st.lists(row_s, min_size=1, max_size=6),
        qi=st.integers(0, len(QUERIES) - 1),
    )
    def test_eval_query_dispatch_matches_scan(self, r_rows, s_rows, qi):
        """The public ``eval_query`` entry point agrees with the scan path
        on non-empty relations."""
        query = parse_query(QUERIES[qi])
        state = make_state(r_rows, s_rows)
        assert eval_query(query, state, {"p": 1}) == naive(
            query, state, {"p": 1}
        )


class TestPlanMechanics:
    def test_cache_hit_counting(self):
        query = parse_query("RETRIEVE (R.a) FROM R R WHERE R.b = 1")
        state = make_state([(1, 1, "x")], [])
        planned(query, state)
        assert qplan.STATS.cache_misses == 1
        planned(query, state)
        planned(query, state)
        assert qplan.STATS.cache_hits == 2
        assert qplan.plan_cache_size() == 1

    def test_hash_join_vs_scan_execs(self):
        state = make_state([(1, 2, "x"), (2, 3, "y")], [(2, 7), (3, 9)])
        join = parse_query("RETRIEVE (R.a, S.c) FROM R R, S S WHERE R.b = S.b")
        planned(join, state)
        assert qplan.STATS.hash_join_execs == 1
        scan = parse_query("RETRIEVE (R.a, S.c) FROM R R, S S WHERE R.a < S.c")
        planned(scan, state)
        assert qplan.STATS.scan_execs >= 1

    def test_join_result_content(self):
        state = make_state(
            [(1, 2, "x"), (2, 3, "y"), (3, 2, "z")], [(2, 7), (9, 9)]
        )
        join = parse_query("RETRIEVE (R.a, S.c) FROM R R, S S WHERE R.b = S.b")
        result = planned(join, state)
        assert sorted(r.values for r in result.rows) == [(1, 7), (3, 7)]

    def test_compile_time_unknown_column(self):
        query = parse_query("RETRIEVE (R.nope) FROM R R")
        state = make_state([], [])
        with pytest.raises(QueryEvaluationError, match="unknown column"):
            planned(query, state)

    def test_compile_time_ambiguous_bare_column(self):
        query = parse_query("RETRIEVE (b) FROM R R, S S")
        state = make_state([(1, 1, "x")], [(1, 1)])
        with pytest.raises(QueryEvaluationError, match="ambiguous column"):
            planned(query, state)

    def test_naive_error_messages_match(self):
        """Compile-time column errors carry the evaluator's exact wording."""
        query = parse_query("RETRIEVE (R.nope) FROM R R")
        state = make_state([(1, 1, "x")], [])
        with pytest.raises(QueryEvaluationError) as planned_err:
            planned(query, state)
        with pytest.raises(QueryEvaluationError) as naive_err:
            naive(query, state)
        assert str(planned_err.value) == str(naive_err.value)

    def test_unbound_param_probe_falls_back_to_error(self):
        query = parse_query("RETRIEVE (R.a) FROM R R WHERE R.a = $p")
        state = make_state([(1, 1, "x")], [])
        with pytest.raises(QueryEvaluationError, match="unbound parameter"):
            planned(query, state)
        # ... but an empty relation means the predicate never runs: no error.
        assert len(planned(query, make_state([], []))) == 0

    def test_sorted_rows_memoized(self):
        rel = Relation.from_values(S_SCHEMA, [(2, 1), (1, 2)])
        assert rel.sorted_rows() is rel.sorted_rows()
        assert [r.values for r in rel.sorted_rows()] == [(1, 2), (2, 1)]


class TestQueryDeps:
    def test_retrieve_deps(self):
        deps = query_deps(parse_query("RETRIEVE (R.a) FROM R R WHERE R.b = 1"))
        assert deps.items == frozenset({"R"}) and deps.stable
        assert not deps.uses_time

    def test_time_marks_unstable_gate(self):
        deps = query_deps(qast.ItemRef("time"))
        assert deps.uses_time
        gate = qplan.DeltaGate([qast.ItemRef("time")])
        assert not gate.enabled

    def test_item_and_join_deps(self):
        q = parse_query("COUNT(R.a) FROM R R, S S WHERE R.b = S.b")
        assert query_deps(q).items == frozenset({"R", "S"})


# ---------------------------------------------------------------------------
# delta-aware atom skipping
# ---------------------------------------------------------------------------


def build_engine():
    adb = ActiveDatabase(start_time=0)
    adb.create_relation(
        "STOCK", Schema.of(name=STRING, price=FLOAT), [("IBM", 50.0)]
    )
    adb.create_relation(
        "ORDERS", Schema.of(name=STRING, qty=INT), [("IBM", 1)]
    )
    return adb


class TestWriteSets:
    def test_commit_records_delta(self):
        adb = build_engine()
        adb.execute(
            lambda t: t.update(
                "STOCK", lambda r: True, lambda r: {"price": 60.0}
            )
        )
        assert adb.last_state.delta == frozenset({"STOCK"})

    def test_event_states_have_empty_delta(self):
        adb = build_engine()
        state = adb.tick(at_time=5)
        assert state.delta == frozenset()

    def test_abort_state_leaves_db_untouched(self):
        adb = build_engine()
        adb.add_commit_validator(lambda state, txn: ["no"])
        txn = adb.begin()
        txn.insert("STOCK", ("XYZ", 1.0))
        with pytest.raises(TransactionAborted):
            txn.commit()
        assert adb.last_state.delta == frozenset()
        assert len(adb.state.relation("STOCK")) == 1


def run_history(formula_text, states, registry):
    formula = parse_formula(formula_text, registry)
    ev = IncrementalEvaluator(formula, EvalContext())
    return [ev.step(s) for s in states]


class TestDeltaSkip:
    def drive(self, formula_text):
        """An engine workload where most commits touch ORDERS, not STOCK —
        the sparse-update pattern delta skipping targets."""
        registry = stock_registry()
        adb = build_engine()
        states = []
        for i in range(12):
            if i % 4 == 0:
                adb.execute(
                    lambda t: t.update(
                        "STOCK",
                        lambda r: True,
                        lambda r, i=i: {"price": 50.0 + 10 * i},
                    )
                )
            else:
                adb.execute(lambda t, i=i: t.insert("ORDERS", (f"o{i}", i)))
            states.append(adb.last_state)
        return registry, states

    # The reference is the offline semantics (``NaiveDetector`` re-runs
    # ``ptl.semantics`` over the full history and never consults a
    # ``DeltaGate``), so each case checks skipping against an evaluation
    # that cannot skip.

    def assert_matches_reference(self, text):
        registry, states = self.drive(None)
        fired = [r.fired for r in run_history(text, states, registry)]
        reference = NaiveDetector(parse_formula(text, registry))
        assert fired == [reference.step(s).fired for s in states]
        return fired

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    def test_firings_match_reference(self, compiled):
        """Both recurrence backends read atoms through delta gates."""
        previous = set_ptl_compile(compiled)
        try:
            qplan.STATS.reset()
            fired = self.assert_matches_reference("price(IBM) > 70")
        finally:
            set_ptl_compile(previous)
        assert qplan.STATS.atoms_skipped > 0
        assert any(fired) and not all(fired)

    def test_temporal_formula_matches_reference(self):
        self.assert_matches_reference(
            "[x := price(IBM)] previously price(IBM) < x"
        )

    def test_aggregate_formula_matches_reference(self):
        # Reset at the first state, sample at every state.
        self.assert_matches_reference(
            "avg(price(IBM); time >= 0; price(IBM) > 0) > 55"
        )

    def test_time_condition_never_gated(self):
        """Conditions reading ``time`` must re-evaluate at every state even
        when the database is untouched."""
        fired = self.assert_matches_reference("time >= 5")
        assert any(fired) and not all(fired)

    def test_ic_trial_states_safe(self):
        """Commit validators see candidate states that are later discarded;
        gating must not leak candidate values into committed evaluation."""
        registry = stock_registry()
        formula = parse_formula("price(IBM) > 95", registry)
        adb = build_engine()
        ev = IncrementalEvaluator(formula, EvalContext())
        fired = []

        def validator(candidate, txn):
            # Trial-evaluate against the candidate, then roll back.
            snap = ev.snapshot()
            result = ev.step(candidate)
            ev.restore(snap)
            return ["too high"] if result.fired else []

        adb.add_commit_validator(validator)
        for price in (60.0, 99.0, 80.0, 99.5, 70.0):
            try:
                adb.execute(
                    lambda t, p=price: t.update(
                        "STOCK", lambda r: True, lambda r: {"price": p}
                    )
                )
            except TransactionAborted:
                pass
            fired.append(ev.step(adb.last_state).fired)
        # 99.0 and 99.5 are vetoed: their candidate value (True) must not
        # be what the committed abort state evaluates to.
        assert fired == [False] * 5
        assert qplan.STATS.atoms_skipped > 0
        assert [r.values for r in adb.state.relation("STOCK").rows] == [
            ("IBM", 70.0)
        ]

    def test_gate_stats_published(self):
        registry, states = self.drive(None)
        metrics = MetricsRegistry()
        formula = parse_formula("price(IBM) > 70", registry)
        ev = IncrementalEvaluator(
            formula, EvalContext(), metrics=metrics
        )
        for s in states:
            ev.step(s)
        assert metrics.value("qplan_atoms_skipped") is not None
        assert metrics.value("qplan_atoms_evaluated") is not None
