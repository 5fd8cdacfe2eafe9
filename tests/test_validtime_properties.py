"""Property tests for the valid-time machinery.

The checkpointed TentativeTrigger must agree exactly with a from-scratch
oracle that, after every commit, re-evaluates the whole committed history
with the reference semantics and accumulates satisfying (timestamp,
binding) pairs.  DefiniteTrigger firings must be a subset of final-history
satisfaction (nothing fires on values that were later retracted).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.events import user_event
from repro.ptl import parse_formula, satisfies
from repro.validtime import DefiniteTrigger, TentativeTrigger, ValidTimeDatabase

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONDITIONS = [
    "V >= 7",
    "previously V >= 9",
    "[x := V] lasttime (V < x)",
    "throughout_past V >= 0 & V != 3",
    "previously[5] V = 8",
    "@alarm & V >= 5",
    "previously[4] @alarm",
]


class _ScratchOracle:
    """Re-evaluates everything from scratch after each commit."""

    def __init__(self, vtdb, formula):
        self.vtdb = vtdb
        self.formula = formula
        self.keys: set = set()
        vtdb.commit_listeners.append(self._on_commit)

    def _on_commit(self, *args):
        history = self.vtdb.committed_history()
        for i in range(len(history)):
            if satisfies(history.states, i, self.formula):
                self.keys.add(history[i].timestamp)


def random_retroactive_workload(rng, vtdb, max_delay=None):
    """Commits with scattered (possibly retroactive) valid times, and
    ``alarm`` events posted between them at such times too."""
    commit_at = 30
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.4:
            back = rng.randint(0, max_delay if max_delay is not None else 25)
            vtdb.post_event(
                user_event("alarm"), at_time=max(1, vtdb.now - back)
            )
        txn = vtdb.begin()
        for _ in range(rng.randint(1, 3)):
            back = rng.randint(0, max_delay if max_delay is not None else 25)
            vt = max(1, commit_at - back)
            txn.set_item("V", rng.randint(0, 10), valid_time=vt)
        if rng.random() < 0.15:
            txn.abort(at_time=commit_at)
        else:
            txn.commit(at_time=commit_at)
        commit_at += rng.randint(2, 6)


class TestTentativeAgainstOracle:
    @SETTINGS
    @given(seed=st.integers(0, 5000), cond=st.sampled_from(CONDITIONS))
    def test_checkpointed_equals_scratch(self, seed, cond):
        rng = random.Random(seed)
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("V", 0)
        formula = parse_formula(cond, items={"V"})
        trig = TentativeTrigger(vtdb, formula)
        oracle = _ScratchOracle(vtdb, formula)
        random_retroactive_workload(rng, vtdb)
        assert set(trig.fired_at()) == oracle.keys, (
            f"condition {cond!r}: checkpointed {sorted(trig.fired_at())} "
            f"vs scratch {sorted(oracle.keys)}"
        )

    @SETTINGS
    @given(seed=st.integers(0, 2000), cond=st.sampled_from(CONDITIONS))
    def test_definite_subset_of_final_history(self, seed, cond):
        rng = random.Random(seed)
        vtdb = ValidTimeDatabase(start_time=0, max_delay=10)
        vtdb.declare_item("V", 0)
        formula = parse_formula(cond, items={"V"})
        trig = DefiniteTrigger(vtdb, formula)
        random_retroactive_workload(rng, vtdb, max_delay=10)
        vtdb.advance_to(vtdb.now + 100)
        trig.poll()
        history = vtdb.committed_history()
        satisfied = {
            history[i].timestamp
            for i in range(len(history))
            if satisfies(history.states, i, formula)
        }
        assert set(trig.fired_at()) == satisfied


class TestParserFuzz:
    @SETTINGS
    @given(
        text=st.text(
            alphabet="abct ()[]{}<>=!&|@$;:.0123456789previously since 'x",
            max_size=40,
        )
    )
    def test_parser_fails_cleanly(self, text):
        """Arbitrary garbage either parses or raises PTLParseError —
        never an internal exception."""
        from repro.errors import PTLParseError

        try:
            parse_formula(text)
        except PTLParseError:
            pass
