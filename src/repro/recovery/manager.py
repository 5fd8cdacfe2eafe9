"""Crash recovery: checkpoint load + WAL tail replay.

:class:`RecoveryManager` ties the pieces together for one durable
directory::

    rm = RecoveryManager("run/")
    rm.start(engine)                  # WAL: states durable before actions
    ...workload...
    rm.checkpoint(engine, manager)    # bounds future recovery work

    # after a crash, in a fresh process:
    report = RecoveryManager("run/").recover(setup=register_rules)
    report.engine, report.manager     # at the last durable state

    # offline, any time: the history the WAL recorded, to judge a
    # constraint that was never registered live
    audited = RecoveryManager("run/").audit()
    satisfies(audited.history.states, i, formula)

Recovery (i) loads the newest checkpoint if one exists, rebuilding the
engine's catalog, clock, and evaluator states without touching history
older than the WAL tail; (ii) truncates a torn final WAL record; (iii)
replays only WAL records at or past the checkpoint — re-stepping the
evaluators with rule actions suppressed (they ran, or deliberately never
will run, before the crash).  ``report.replayed_steps`` counts exactly
the replayed tail, which the tests assert never covers checkpointed
history.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import RecoveryError
from repro.recovery.checkpoint import read_checkpoint, write_checkpoint
from repro.recovery.wal import WriteAheadLog, load_wal
from repro.storage.persist import _decode_item, apply_state, state_events
from repro.storage.snapshot import IndexedItem

PathLike = Union[str, Path]


@dataclass
class RecoveryReport:
    """What :meth:`RecoveryManager.recover` rebuilt."""

    engine: object
    manager: object
    #: WAL records re-applied (the tail past the checkpoint) — the
    #: re-evaluation work recovery actually did.
    replayed_steps: int
    #: Total complete state records found in the WAL.
    wal_records: int
    #: Whether a torn final record was truncated.
    truncated: bool
    #: Whether a checkpoint bounded the replay.
    checkpoint_used: bool
    #: Rule-set drift the restore tolerated (``strict_rules=False``):
    #: ``{"added": [...], "dropped": [...], "changed": [...]}`` — names
    #: registered by setup() but absent from the checkpoint, checkpointed
    #: but no longer registered, and re-registered with a different
    #: condition.  ``None`` when no manager state was restored.
    rule_drift: Optional[dict] = None


class RecoveryManager:
    """Durable WAL + checkpoints + recovery for one directory."""

    WAL_NAME = "wal.jsonl"
    CHECKPOINT_NAME = "checkpoint.json"

    def __init__(
        self,
        directory: PathLike,
        fsync: bool = True,
        injector=None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.injector = injector
        self.wal: Optional[WriteAheadLog] = None

    @property
    def wal_path(self) -> Path:
        return self.directory / self.WAL_NAME

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / self.CHECKPOINT_NAME

    # -- logging side ------------------------------------------------------

    def start(self, engine) -> WriteAheadLog:
        """Attach the WAL to ``engine`` (front of the event bus: states
        are durable before rule actions observe them)."""
        self.wal = WriteAheadLog.attach(
            engine, self.wal_path, fsync=self.fsync, injector=self.injector
        )
        return self.wal

    def stop(self) -> None:
        if self.wal is not None:
            self.wal.detach()
            self.wal = None

    def checkpoint(self, engine, manager=None) -> dict:
        """Atomically checkpoint engine (+ temporal component) state.
        With a manager, call after ``manager.flush()`` at a quiet point
        (no batched states)."""
        return write_checkpoint(
            self.checkpoint_path, engine, manager, injector=self.injector
        )

    # -- recovery side -----------------------------------------------------

    def recover(
        self,
        setup: Optional[Callable] = None,
        metrics=None,
        strict_rules: bool = True,
        keep_history: bool = True,
    ) -> RecoveryReport:
        """Rebuild the system from the durable directory.

        ``metrics`` and ``keep_history`` pass through to the rebuilt
        :class:`~repro.engine.ActiveDatabase`.  Without a history the WAL
        tail still re-steps the evaluators, and a checkpoint that carries
        tiers still restores them as the engine's history.

        ``setup(engine)`` re-registers rules against the restored engine
        — the catalog and named queries are already in place when it runs
        — and returns the :class:`~repro.rules.manager.RuleManager` (or
        ``None``).  Rule *code* is not serialized; re-registering it is
        the caller's half of the recovery contract, and the checkpointed
        evaluator state is verified against it (fingerprints) on load.

        With ``strict_rules=False`` a rule set that *drifted* from the
        checkpoint (rules added, dropped, or redefined since it was
        taken) is tolerated instead of raising
        :class:`~repro.errors.RecoveryError`: the intersection's state is
        restored, the rest starts fresh, and the delta is reported on
        :attr:`RecoveryReport.rule_drift`."""
        from repro.engine import ActiveDatabase

        checkpoint = read_checkpoint(self.checkpoint_path)
        records, truncated = load_wal(self.wal_path)
        runtime = None
        base, states = _split_wal(records)

        if checkpoint is not None:
            engine = ActiveDatabase(
                start_time=checkpoint["clock"],
                keep_history=keep_history,
                metrics=metrics,
            )
            self._restore_items(engine, checkpoint["items"])
            self._restore_queries(engine, checkpoint["queries"])
            engine._state_count = checkpoint["state_count"]
            if checkpoint.get("tiers") is not None:
                # The run was spilling to tiered segments: restore the
                # full history (fingerprint-verified segments + empty hot
                # window) instead of a bare suffix.
                from repro.history.spill import SEGMENT_DIR_NAME, restore_tiers

                runtime = restore_tiers(
                    engine,
                    checkpoint["tiers"],
                    self.directory / SEGMENT_DIR_NAME,
                    injector=self.injector,
                )
            elif engine.history is not None:
                # The recovered history is the post-checkpoint suffix;
                # keep its state indices globally consistent.
                engine.history.base_index = checkpoint["state_count"]
            if checkpoint["last"] is not None:
                ts, index = checkpoint["last"]
                engine._last_state = self._stub_state(engine, ts, index)
        elif base is not None:
            engine = self._base_engine(base, keep_history, metrics)
        else:
            raise RecoveryError(
                f"nothing to recover in {str(self.directory)!r}: no "
                "checkpoint and no write-ahead log"
            )

        manager = setup(engine) if setup is not None else None
        manager_state = None if checkpoint is None else checkpoint["manager"]
        rule_drift = None
        if manager_state is not None:
            if manager is None:
                raise RecoveryError(
                    "checkpoint contains temporal-component state but "
                    "setup() returned no manager"
                )
            rule_drift = manager.from_state(manager_state, strict=strict_rules)
        if runtime is not None and manager is not None:
            # Put the manager's stored formulas back under the governor.
            runtime.adopt_manager(manager)

        start_seq = engine.state_count
        tail = [r for r in states if r["seq"] >= start_seq]
        if manager is not None:
            manager._replaying = True
        try:
            replayed = self._replay(engine, tail)
        finally:
            if manager is not None:
                manager._replaying = False

        registry = getattr(engine, "metrics", None)
        if registry is not None and registry.enabled:
            registry.counter("recovery_runs_total").inc()
            registry.gauge("recovery_replayed_steps").set(replayed)
            registry.gauge("recovery_wal_records").set(len(states))
            if truncated:
                registry.counter("recovery_torn_records_total").inc()
        return RecoveryReport(
            engine=engine,
            manager=manager,
            replayed_steps=replayed,
            wal_records=len(states),
            truncated=truncated,
            checkpoint_used=checkpoint is not None,
            rule_drift=rule_drift,
        )

    # -- offline audit -----------------------------------------------------

    def audit(self):
        """The system history the WAL recorded, rebuilt offline: an
        :class:`~repro.engine.ActiveDatabase` holding the base record's
        catalog, its clock at the last logged state, and every logged
        state in ``engine.history``, with the WAL's seqs as indices.  No
        rule is registered and the checkpoint is not read — judge any
        constraint, registered live or not, with
        :func:`repro.ptl.satisfies` / :func:`repro.ptl.answers` over
        ``engine.history.states``.

        The log is read as recovery reads it (a torn tail and a trailing
        group without its commit marker are left out) but never written:
        a torn tail stays on disk for recovery to truncate."""
        records, _ = load_wal(self.wal_path, truncate_torn=False)
        base, states = _split_wal(records)
        if base is None:
            raise RecoveryError(
                f"no base record in {str(self.wal_path)!r}: nothing to audit"
            )
        engine = self._base_engine(base, True, None)
        if states:
            # The log may start after the engine's first state.
            engine._state_count = states[0]["seq"]
            engine.history.base_index = states[0]["seq"]
        self._replay(engine, states)
        return engine

    # -- helpers -----------------------------------------------------------

    @classmethod
    def _base_engine(cls, base: dict, keep_history: bool, metrics):
        """A fresh engine holding the WAL base record's catalog."""
        from repro.engine import ActiveDatabase

        engine = ActiveDatabase(keep_history=keep_history, metrics=metrics)
        cls._restore_items(engine, base["items"])
        cls._restore_queries(engine, base.get("queries", {}))
        return engine

    @staticmethod
    def _replay(engine, records: list) -> int:
        """Append the state each WAL record describes to ``engine`` (its
        subscribers see each one); returns how many were replayed.  A
        ``seq`` that is not the engine's next state index is a hole in
        the delta chain and is refused."""
        for record in records:
            if record["seq"] != engine.state_count:
                raise RecoveryError(
                    f"WAL gap: expected seq {engine.state_count}, "
                    f"found {record['seq']}"
                )
            db_state = apply_state(engine.db.state, record)
            engine.db._set_state(db_state)
            ts = record["ts"]
            if ts > engine.clock.now:
                engine.clock.advance_to(ts)
            events, delta = state_events(record)
            engine._append(engine._new_state(db_state, events, ts, delta))
        return len(records)

    @staticmethod
    def _stub_state(engine, ts: int, index: int):
        from repro.history.state import SystemState

        return SystemState(engine.db.state, (), ts, index=index)

    @staticmethod
    def _restore_items(engine, items: dict) -> None:
        from repro.datamodel.relation import Relation

        for name, payload in sorted(items.items()):
            value = _decode_item(payload)
            if isinstance(value, Relation):
                engine.create_relation(name, value.schema)
            elif isinstance(value, IndexedItem):
                engine.declare_indexed_item(name)
            else:
                engine.declare_item(name, value)
            engine.db._set_state(engine.db.state.with_updates({name: value}))

    @staticmethod
    def _restore_queries(engine, queries: dict) -> None:
        for name, qdef in sorted(queries.items()):
            engine.define_query(name, qdef["params"], qdef["text"])


def _split_wal(records: list) -> tuple[Optional[dict], list]:
    """A loaded WAL's base record (``None`` when absent) and its state
    records."""
    base = records[0] if records and records[0].get("seq") is None else None
    return base, [r for r in records if r.get("seq") is not None]


def recover(
    directory: PathLike,
    setup: Optional[Callable] = None,
    metrics=None,
    strict_rules: bool = True,
) -> RecoveryReport:
    """Convenience wrapper: ``RecoveryManager(directory).recover(...)``."""
    return RecoveryManager(directory).recover(
        setup=setup, metrics=metrics, strict_rules=strict_rules
    )
