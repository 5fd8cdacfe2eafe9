"""Tentative and definite triggers in the valid-time model (Section 9.2).

*Tentative* triggers act on tentative values: on every commit, the
temporal component re-performs the incremental evaluation "for each state
starting with the oldest system state that was updated by the
transaction, until the last system state in the history" — implemented
with an evaluator snapshot per history position (a snapshot is the plan's
value, captured by reference), so the rollback is to the position of the
oldest retroactively-touched state.

Under a maximum delay DELTA no commit reaches back more than DELTA, so
a tentative trigger keeps only the checkpoints a rollback can still
land on: the newest at or before ``now - DELTA`` and every later one.

*Definite* triggers act only on definite values: under the maximum-delay
assumption, a state older than DELTA can no longer change, so the
evaluator "only considers the system states that have a time-stamp that is
at least DELTA time units smaller than the current time" — firing is
delayed by at least DELTA, but no rollback is ever needed (purely
incremental).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Optional

from repro._value import Value
from repro.errors import ValidTimeError
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.plan import IncrementalEvaluator
from repro.validtime.model import ValidTimeDatabase


class VTFiring(Value):
    """One trigger firing in the valid-time model."""

    timestamp: int
    bindings: tuple[tuple[str, Any], ...]

    @property
    def binding_dict(self) -> dict:
        return dict(self.bindings)


def _firing_key(timestamp: int, binding: dict) -> tuple:
    return (timestamp, tuple(sorted(binding.items(), key=lambda kv: kv[0])))


class TentativeTrigger:
    """Re-evaluates the condition over the committed history after every
    commit, rolling back to the checkpoint before the oldest state touched
    retroactively."""

    def __init__(
        self,
        vtdb: ValidTimeDatabase,
        condition: ast.Formula,
        ctx: Optional[EvalContext] = None,
    ):
        self.vtdb = vtdb
        self.condition = condition
        self.ctx = ctx or EvalContext()
        self.firings: list[VTFiring] = []
        self._fired_keys: set = set()
        self._evaluator = IncrementalEvaluator(condition, self.ctx)
        #: checkpoints[i] = snapshot of the evaluator before processing
        #: history position i (back to the DELTA horizon when the
        #: database has one).
        self._checkpoints: dict[int, Any] = {0: self._evaluator.snapshot()}
        self._processed = 0  # history positions consumed
        self._timestamps: list[int] = []  # timestamp per processed position
        self.replays = 0  # states re-evaluated due to retroactivity (bench metric)
        vtdb.commit_listeners.append(self._on_commit)

    # -- commit handling ----------------------------------------------------

    def _on_commit(self, txn_id: int, commit_time: int, oldest_valid: int) -> None:
        history = self.vtdb.committed_history()
        # first history position whose timestamp >= oldest touched time
        self._rollback_to(bisect_left(self._timestamps, oldest_valid))
        self._run_from(history)
        self._forget_before_horizon()

    def _rollback_to(self, position: int) -> None:
        """Rewind to the snapshot taken before ``position`` (every
        position since the DELTA horizon has one)."""
        if position >= self._processed:
            return
        self._evaluator.restore(self._checkpoints[position])
        self._processed = position
        self._timestamps = self._timestamps[:position]
        self._checkpoints = {
            p: s for p, s in self._checkpoints.items() if p <= position
        }

    def _forget_before_horizon(self) -> None:
        """Drop the checkpoints no later commit can roll back to.  Under
        DELTA a commit happens at or after now and none of its updates is
        older than its commit time minus DELTA, so its rollback lands at
        or after the first position timed ``now - DELTA`` or later: keep
        the newest checkpoint at or before that position and every later
        one."""
        delta = self.vtdb.max_delay
        if delta is None:
            return
        first = bisect_left(self._timestamps, self.vtdb.now - delta)
        keep = max(p for p in self._checkpoints if p <= first)
        if keep > next(iter(self._checkpoints)):
            self._checkpoints = {
                p: s for p, s in self._checkpoints.items() if p >= keep
            }

    def _run_from(self, history) -> None:
        states = history.states
        for i in range(self._processed, len(states)):
            state = states[i]
            if i not in self._checkpoints:
                self._checkpoints[i] = self._evaluator.snapshot()
            result = self._evaluator.step(state)
            self.replays += 1
            self._timestamps.append(state.timestamp)
            if result.fired:
                for binding in result.bindings:
                    key = _firing_key(state.timestamp, dict(binding))
                    if key not in self._fired_keys:
                        self._fired_keys.add(key)
                        self.firings.append(
                            VTFiring(state.timestamp, key[1])
                        )
        self._processed = len(states)

    def fired_at(self) -> list[int]:
        return [f.timestamp for f in self.firings]


class DefiniteTrigger:
    """Fires only on states at least DELTA old — delayed but rollback-free."""

    def __init__(
        self,
        vtdb: ValidTimeDatabase,
        condition: ast.Formula,
        ctx: Optional[EvalContext] = None,
    ):
        if vtdb.max_delay is None:
            raise ValidTimeError(
                "definite triggers need a maximum delay DELTA on the database"
            )
        self.vtdb = vtdb
        self.condition = condition
        self.ctx = ctx or EvalContext()
        self.firings: list[VTFiring] = []
        self._evaluator = IncrementalEvaluator(condition, self.ctx)
        self._consumed_through: Optional[int] = None  # last definite ts consumed
        vtdb.commit_listeners.append(lambda *a: self.poll())

    def poll(self) -> None:
        """Consume newly-definite states (call after commits or whenever
        the clock advances).  All commits known *now* contribute; only
        states older than DELTA are consumed (they can no longer change —
        future commits happen strictly after now and reach back at most
        DELTA)."""
        horizon = self.vtdb.definite_horizon()
        history = self.vtdb.committed_history(
            horizon, committed_by=self.vtdb.now
        )
        for state in history.states:
            if (
                self._consumed_through is not None
                and state.timestamp <= self._consumed_through
            ):
                continue
            result = self._evaluator.step(state)
            self._consumed_through = state.timestamp
            if result.fired:
                for binding in result.bindings:
                    self.firings.append(
                        VTFiring(
                            state.timestamp,
                            tuple(sorted(dict(binding).items())),
                        )
                    )

    def fired_at(self) -> list[int]:
        return [f.timestamp for f in self.firings]
