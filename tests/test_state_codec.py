"""The one state-record codec (``repro.storage.persist``): row-granular
deltas for relations, full images for everything else.

``apply_change(prev, encode_change(prev, cur)) == cur`` for every pair of
item values; a row delta shares every untouched ``Row`` with ``prev`` by
identity; the bytes are deterministic; what the image-only encoder of
earlier builds wrote still applies; and a delta pointed at something it
was not computed against is refused, never merged.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datamodel import FLOAT, INT, STRING, Relation, Schema
from repro.errors import StorageError
from repro.events.model import transaction_commit, user_event
from repro.history.state import SystemState
from repro.storage.persist import (
    _encode_item,
    apply_change,
    apply_state,
    encode_change,
    encode_state,
    state_events,
)
from repro.storage.snapshot import DatabaseState, IndexedItem

SCHEMA = Schema.of(oid=INT, name=STRING, amount=FLOAT)
RENAMED = Schema.of(oid=INT, label=STRING, amount=FLOAT)

ROW = st.tuples(
    st.integers(0, 12),
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 5).map(float),
)
ROWS = st.lists(ROW, max_size=12)
SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
)
INDEXED = st.builds(
    IndexedItem,
    st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(0, 9), max_size=4),
    st.integers(0, 1),
)
ITEM = st.one_of(
    SCALAR,
    INDEXED,
    ROWS.map(lambda rows: Relation.from_values(SCHEMA, rows)),
)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def through_json(payload):
    """What a reader sees: the payload after a trip through the file."""
    return json.loads(canonical(payload))


class TestItemCodec:
    @given(prev=ITEM, cur=ITEM)
    def test_round_trip_any_pair(self, prev, cur):
        payload = encode_change(prev, cur)
        assert apply_change(prev, through_json(payload)) == cur
        # a new item has no predecessor: always an image
        assert apply_change(None, through_json(encode_change(None, cur))) == cur

    @given(before=ROWS, after=ROWS)
    def test_row_delta_shares_untouched_rows(self, before, after):
        """Insert / update / delete mixes, empty <-> non-empty, equal:
        the result equals ``cur``; a delta names only what moved and
        every row present in both is the *same object* as in ``prev``;
        only a rewrite larger than the image is written as the image."""
        prev = Relation.from_values(SCHEMA, before)
        cur = Relation.from_values(SCHEMA, after)
        payload = encode_change(prev, cur)
        out = apply_change(prev, through_json(payload))
        assert out == cur and out.schema == cur.schema
        if payload["kind"] == "rows":
            assert len(payload["del"]) == len(prev.rows - cur.rows)
            assert len(payload["add"]) == len(cur.rows - prev.rows)
            mine = {row: row for row in prev}
            for row in out:
                if row in mine:
                    assert row is mine[row]
        else:
            assert len(prev.rows ^ cur.rows) > len(cur) + len(SCHEMA)

    @given(before=ROWS, after=ROWS)
    def test_encoding_is_deterministic(self, before, after):
        """Row order in the input must not reach the bytes."""
        first = encode_change(
            Relation.from_values(SCHEMA, before),
            Relation.from_values(SCHEMA, after),
        )
        second = encode_change(
            Relation.from_values(SCHEMA, reversed(before)),
            Relation.from_values(SCHEMA, reversed(after)),
        )
        assert canonical(first) == canonical(second)

    @given(rows=ROWS)
    def test_schema_change_is_an_image(self, rows):
        prev = Relation.from_values(SCHEMA, rows)
        cur = Relation.from_values(RENAMED, rows)
        payload = encode_change(prev, cur)
        assert payload["kind"] == "relation"
        out = apply_change(prev, through_json(payload))
        assert out == cur and out.schema == RENAMED

    def test_one_row_relation_still_gets_a_delta(self):
        """The served ``STOCK`` shape: the image would carry the schema
        too, so the two-row delta is the smaller record."""
        prev = Relation.from_values(SCHEMA, [(1, "a", 1.0)])
        cur = Relation.from_values(SCHEMA, [(1, "a", 2.0)])
        payload = encode_change(prev, cur)
        assert payload["kind"] == "rows"
        assert len(canonical(payload)) < len(canonical(_encode_item(cur)))

    def test_one_row_update_costs_one_row(self):
        prev = Relation.from_values(
            SCHEMA, [(i, "a", float(i)) for i in range(400)]
        )
        cur = prev.update(lambda r: r["oid"] == 7, lambda r: {"amount": 99.0})
        payload = encode_change(prev, cur)
        assert payload == {
            "kind": "rows",
            "del": [[7, "a", 7.0]],
            "add": [[7, "a", 99.0]],
        }
        assert len(canonical(payload)) < len(canonical(_encode_item(cur))) / 100

    @given(cur=ITEM)
    def test_full_image_of_earlier_builds_still_applies(self, cur):
        """``_encode_item`` is what every WAL, segment and change log
        written before row deltas holds, whatever the item was before."""
        image = through_json(_encode_item(cur))
        for prev in (None, 3, Relation.from_values(SCHEMA, [(1, "a", 1.0)])):
            assert apply_change(prev, image) == cur

    def test_row_delta_against_a_non_relation_refused(self):
        delta = {"kind": "rows", "del": [], "add": [[1, "a", 1.0]]}
        for prev in (None, 3, IndexedItem()):
            with pytest.raises(StorageError, match="not a relation"):
                apply_change(prev, delta)

    def test_row_delta_against_the_wrong_relation_refused(self):
        """A delta chain with a hole — a row to delete that is not
        there, a row to add that already is — is refused."""
        prev = Relation.from_values(SCHEMA, [(1, "a", 1.0)])
        for delta in (
            {"kind": "rows", "del": [[2, "b", 2.0]], "add": []},
            {"kind": "rows", "del": [], "add": [[1, "a", 1.0]]},
        ):
            with pytest.raises(StorageError, match="does not apply"):
                apply_change(prev, delta)

    def test_row_that_cannot_be_named_by_value_forces_an_image(self):
        """NaN is not equal to itself: a reader could not find the row
        to delete, so the writer does not ask it to."""
        nan = float("nan")
        prev = Relation.from_values(SCHEMA, [(1, "a", nan), (2, "b", 2.0)])
        cur = prev.delete(lambda r: r["oid"] == 1)
        payload = encode_change(prev, cur)
        assert payload["kind"] == "relation"
        assert apply_change(prev, through_json(payload)) == cur

    def test_unknown_kind_refused(self):
        with pytest.raises(StorageError, match="unknown item kind"):
            apply_change(None, {"kind": "rowz"})


class TestStateRecord:
    def _states(self):
        orders = Relation.from_values(
            SCHEMA, [(i, "a", float(i)) for i in range(5)]
        )
        db0 = DatabaseState({"price": 1, "ORDERS": orders, "idx": IndexedItem()})
        db1 = db0.with_updates(
            {
                "price": 2,
                "ORDERS": orders.update(
                    lambda r: r["oid"] == 3, lambda r: {"amount": 30.0}
                ),
            }
        )
        db2 = db1.with_indexed_update("idx", (1,), 5).with_updates(
            {"fresh": "new item"}
        )
        return [
            SystemState(db0, [user_event("go")], 1, index=0, delta=frozenset()),
            SystemState(
                db1, [transaction_commit(1), user_event("go", 3)], 2,
                index=1, delta=frozenset({"price", "ORDERS"}),
            ),
            SystemState(db2, [], 5, index=2, delta=None),
        ]

    def test_chain_round_trips_and_shares_rows(self):
        states = self._states()
        records, prev_db = [], None
        for state in states:
            records.append(through_json(encode_state(state, prev_db)))
            prev_db = state.db
        assert "items" in records[0] and "changes" not in records[0]
        assert records[1]["changes"]["ORDERS"]["kind"] == "rows"
        assert sorted(records[1]["changes"]) == ["ORDERS", "price"]
        assert sorted(records[2]["changes"]) == ["fresh", "idx"]

        db, out = None, []
        for record in records:
            db = apply_state(db, record)
            out.append(db)
        for state, db, record in zip(states, out, records):
            assert db == state.db
            events, delta = state_events(record)
            assert frozenset(events) == state.events
            assert delta == state.delta
            assert record["ts"] == state.timestamp
        # unchanged items, and the untouched rows of a changed relation,
        # are the same objects from one decoded state to the next
        assert out[2].raw_item("ORDERS") is out[1].raw_item("ORDERS")
        before = {row: row for row in out[0].relation("ORDERS")}
        shared = [
            row for row in out[1].relation("ORDERS") if before.get(row) is row
        ]
        assert len(shared) == 4

    def test_record_without_changes_returns_the_same_state(self):
        state = self._states()[0]
        tick = SystemState(state.db, [user_event("tick")], 9, delta=frozenset())
        record = through_json(encode_state(tick, state.db))
        assert record["changes"] == {}
        assert apply_state(state.db, record) is state.db
