"""Only the present is materialised — and nobody can tell.

A superseded relation version is a reverse row-delta off its successor
(:meth:`repro.datamodel.relation.Relation.supersede`); these tests hold
the representation invisible over arbitrary histories.  The crash rows of
the same differential live in ``tests/test_faultinject.py``
(``TestCrashMatrix``) so the ``fault-injection`` CI filters run them.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Relation
from repro.engine import ActiveDatabase
from repro.errors import TransactionAborted
from repro.history.spill import attach_tiered_history
from repro.rules.actions import RecordingAction
from repro.storage.index import index_for

from tests.helpers import (
    ORDERS_SCHEMA,
    VersionRecorder,
    apply_op,
    assert_reads_as,
    assert_versions_invisible,
    make_orders,
    op_body,
)

ROW_OP = st.one_of(
    st.tuples(st.just("ins"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("upd"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("del"), st.integers(0, 9)),
)
OP = st.one_of(
    ROW_OP,
    st.tuples(st.just("set"), st.integers(0, 100)),
    st.tuples(st.just("ev"), st.just("go")),
)
STEP = st.one_of(
    st.tuples(st.just("op"), OP),
    st.tuples(st.just("veto"), ROW_OP),
    st.tuples(st.just("abort"), ROW_OP),
    st.tuples(st.just("batch"), st.lists(OP, min_size=1, max_size=5)),
    st.tuples(
        st.just("drain"),
        st.lists(st.tuples(ROW_OP, st.booleans()), min_size=1, max_size=5),
    ),
)


def make_engine():
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    make_orders(adb)
    adb.define_query(
        "orders_of", ["oid"],
        "COUNT(O.amount) FROM ORDERS O WHERE O.oid = $oid",
    )
    manager = adb.rule_manager()
    # An index probe into ORDERS at every state: under drain() / batch()
    # the rule step runs after later commits superseded what it reads.
    manager.add_trigger("has_one", "orders_of(1) > 0", RecordingAction())
    manager.add_integrity_constraint("cap", "!(price > 1000)")
    return adb, manager


def vetoed(row_op):
    """A body the ``cap`` constraint refuses — after it wrote ORDERS."""

    def work(txn):
        op_body(row_op)(txn)
        txn.set_item("price", 5000)

    return work


def apply_step(adb, step) -> None:
    kind, arg = step
    if kind == "op":
        apply_op(adb, arg)
    elif kind == "veto":
        live = adb.state.raw_item("ORDERS")
        index = index_for(live, ("oid",))
        with pytest.raises(TransactionAborted):
            adb.execute(vetoed(arg))
        # the refused candidate never demoted the live version
        assert adb.state.raw_item("ORDERS") is live
        assert not live.superseded and index_for(live, ("oid",)) is index
    elif kind == "abort":
        live = adb.state.raw_item("ORDERS")
        txn = adb.begin()
        op_body(arg)(txn)
        txn.abort()
        assert adb.state.raw_item("ORDERS") is live and not live.superseded
    elif kind == "batch":
        with adb.batch():
            for op in arg:
                apply_op(adb, op)
    else:
        for row_op, veto in arg:
            adb.enqueue(vetoed(row_op) if veto else op_body(row_op))
        adb.drain()


class TestRepresentationIsInvisible:
    @settings(max_examples=60)
    @given(steps=st.lists(STEP, min_size=1, max_size=25), tiered=st.booleans())
    def test_every_state_reads_as_committed(self, steps, tiered):
        adb, manager = make_engine()
        recorder = VersionRecorder(adb)
        directory = tempfile.mkdtemp(prefix="versions-hyp-") if tiered else None
        try:
            if tiered:
                attach_tiered_history(
                    adb, directory, budget_bytes=2_000, hot_window=4,
                    manager=manager, fsync=False, spill_check_every=2,
                )
            for step in steps:
                apply_step(adb, step)
            manager.flush()
            assert_versions_invisible(adb, recorder)
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)


class TestSupersede:
    """The chain's own rules, on bare relations."""

    def _versions(self, n=5, rows=8):
        versions = [
            Relation.from_values(ORDERS_SCHEMA, [(i, 0.0) for i in range(rows)])
        ]
        for i in range(1, n):
            versions.append(
                versions[-1].update(
                    lambda r: r["oid"] == i, lambda r: {"amount": float(i)}
                )
            )
        return versions

    def _flat(self, relation):
        return Relation(relation.schema, frozenset(list(relation.rows)))

    def test_chain_folds_to_every_version(self):
        versions = self._versions(rows=16)
        oracles = [self._flat(v) for v in versions]
        for old, new in zip(versions, versions[1:]):
            old.supersede(new)
        assert [v.superseded for v in versions] == [True] * 4 + [False]
        assert all(v._rows is None for v in versions[:-1])
        for version, oracle in zip(versions, oracles):
            assert_reads_as(version, oracle)
            assert_reads_as(version.flat(), oracle)
        assert versions[-1].flat() is versions[-1]
        assert versions[0].flat() is not versions[0]

    def test_a_read_never_undoes_more_than_a_table(self):
        # 200 one-row updates of an 8-row relation: a version keeps its
        # table once the deltas chained behind it would outweigh it, so
        # the oldest version is a few links from a table, not 199.
        versions = self._versions(n=200)
        oracles = [self._flat(v) for v in versions]
        for old, new in zip(versions, versions[1:]):
            old.supersede(new)
        kept = [v for v in versions[:-1] if v._rows is not None]
        assert 0 < len(kept) < len(versions) // 2
        for version, oracle in zip(versions, oracles):
            undone, link = 0, version
            while link._rows is None:
                undone += sum(map(len, link._delta)) + 1
                link = link._succ
            assert undone <= len(link._rows)
            assert version.rows == oracle.rows and len(version) == len(oracle)

    def test_adjacent_versions_compare_without_a_table(self):
        a, b = self._versions(2)
        same = a.update(lambda r: False, lambda r: {})
        a.supersede(same)
        same.supersede(b)
        assert a == same and same != b and a != b
        assert a.delta_onto(same) == ((), ())
        assert a.delta_onto(b) is None

    def test_a_bulk_rewrite_keeps_its_table_but_not_its_caches(self):
        a = Relation.from_values(ORDERS_SCHEMA, [(1, 1.0)])
        b = a.update(lambda r: True, lambda r: {"amount": 2.0})
        index_for(a, ("oid",)), a.sorted_rows()
        a.supersede(b)
        assert a.superseded and a._rows is not None
        assert a._index_cache is None and a._sorted_cache is None
        assert a.flat() is not a and a.flat().rows is a.rows
        assert index_for(a, ("oid",)) is not index_for(a, ("oid",))

    def test_first_successor_wins_and_chains_stay_acyclic(self):
        a, b, c = self._versions(3)
        oracle_a, oracle_c = self._flat(a), self._flat(c)
        a.supersede(b)
        a.supersede(c)  # a shared object superseded twice: no-op
        assert a.delta_onto(b) is not None
        b.supersede(c)
        c.supersede(a)  # reverting to a superseded version: refused
        c.supersede(c)
        assert not c.superseded
        assert_reads_as(a, oracle_a)
        assert_reads_as(c, oracle_c)

    def test_a_schema_change_is_not_a_row_delta(self):
        a = Relation.from_values(ORDERS_SCHEMA, [(i, 0.0) for i in range(4)])
        b = a.rename({"amount": "total"})
        a.supersede(b)
        assert a.superseded and a.delta_onto(b) is None
        assert [r["amount"] for r in a.sorted_rows()] == [0.0] * 4
