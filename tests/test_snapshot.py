"""Unit tests for DatabaseState snapshots and IndexedItem families."""

import pytest

from repro.datamodel import INT, Relation, Schema
from repro.errors import QueryEvaluationError, UnknownRelationError
from repro.storage.snapshot import DatabaseState, IndexedItem


@pytest.fixture
def state():
    rel = Relation.from_values(Schema.of(x=INT), [(1,), (2,)])
    return DatabaseState({"R": rel, "V": 7, "FAM": IndexedItem({("a",): 1}, 0)})


class TestDatabaseState:
    def test_accessors(self, state):
        assert state.item("V") == 7
        assert len(state.relation("R")) == 2
        assert state.has_relation("R") and not state.has_relation("V")
        assert state.item_names() == ["FAM", "R", "V"]

    def test_unknown_item(self, state):
        with pytest.raises(QueryEvaluationError):
            state.item("NOPE")
        with pytest.raises(UnknownRelationError):
            state.relation("V")

    def test_index_misuse(self, state):
        with pytest.raises(QueryEvaluationError):
            state.item("V", ("a",))

    def test_with_updates_shares_structure(self, state):
        new = state.with_updates({"V": 8})
        assert new.item("V") == 8
        assert new.relation("R") is state.relation("R")
        assert state.item("V") == 7  # original untouched
        assert new.raw_item("FAM") is state.raw_item("FAM")
        assert new != state and new.with_updates({"V": 7}) == state

    def test_with_updates_empty_is_identity(self, state):
        assert state.with_updates({}) is state

    def test_changed_items(self, state):
        new = state.with_updates({"V": 8})
        assert new.changed_items(state) == ["V"]
        rel2 = state.relation("R").insert((3,))
        newer = new.with_updates({"R": rel2})
        assert sorted(newer.changed_items(state)) == ["R", "V"]

    def test_equality_by_contents(self, state):
        clone = DatabaseState(state.items_view())
        assert clone == state

    def test_with_indexed_update(self, state):
        new = state.with_indexed_update("FAM", ("b",), 9)
        assert new.item("FAM", ("b",)) == 9
        assert new.item("FAM", ("a",)) == 1
        assert state.item("FAM", ("b",)) == 0  # default, unchanged

    def test_indexed_update_creates_family(self, state):
        new = state.with_updates({"NEW_FAM": IndexedItem()})
        newer = new.with_indexed_update("NEW_FAM", (1,), "x")
        assert newer.item("NEW_FAM", (1,)) == "x"


class TestIndexedItem:
    def test_defaults_and_entries(self):
        fam = IndexedItem({("a",): 1}, default=0)
        assert fam.get(("a",)) == 1
        assert fam.get(("zzz",)) == 0
        assert fam.indices() == [("a",)]

    def test_with_entry_immutable(self):
        fam = IndexedItem(default=0)
        fam2 = fam.with_entry(("k",), 5)
        assert fam.get(("k",)) == 0
        assert fam2.get(("k",)) == 5

    def test_equality_and_hash(self):
        a = IndexedItem({("x",): 1}, 0)
        b = IndexedItem({("x",): 1}, 0)
        assert a == b and hash(a) == hash(b)
        assert a != IndexedItem({("x",): 2}, 0)
