"""Crash recovery for the active database: WAL, checkpoints, replay.

The paper's temporal component "maintains only information necessary for
future evaluation of conditions" — which makes that retained state
precious: losing it silently changes which rules fire.  This package
makes it durable:

* :class:`~repro.recovery.wal.WriteAheadLog` — every committed system
  state hits the disk before any rule action sees it;
* :mod:`~repro.recovery.checkpoint` — atomic snapshots of engine +
  evaluator state (via the ``to_state``/``from_state`` protocol) that
  bound replay work;
* :class:`~repro.recovery.manager.RecoveryManager` — checkpoint load +
  torn-tail truncation + WAL tail replay with actions suppressed, and
  the offline audit (:meth:`~repro.recovery.manager.RecoveryManager.audit`:
  the whole recorded history, replayed from the WAL);
* :mod:`~repro.recovery.faultinject` — deterministic crash points for
  differential crash-consistency tests.
"""

from repro.recovery.checkpoint import read_checkpoint, write_checkpoint
from repro.recovery.faultinject import (
    CRASH_POINTS,
    DISK_FULL,
    FSYNC_FAIL,
    IO_POINTS,
    MID_CHECKPOINT,
    MID_GROUP_COMMIT,
    MID_SEGMENT_WRITE,
    MID_WAL,
    POST_COMMIT,
    PRE_COMMIT,
    TORN_SEGMENT,
    FaultInjector,
    SimulatedCrash,
)
from repro.recovery.manager import RecoveryManager, RecoveryReport, recover
from repro.recovery.wal import WriteAheadLog, load_wal

__all__ = [
    "CRASH_POINTS",
    "DISK_FULL",
    "FSYNC_FAIL",
    "IO_POINTS",
    "MID_CHECKPOINT",
    "MID_GROUP_COMMIT",
    "MID_SEGMENT_WRITE",
    "MID_WAL",
    "POST_COMMIT",
    "PRE_COMMIT",
    "TORN_SEGMENT",
    "FaultInjector",
    "RecoveryManager",
    "RecoveryReport",
    "SimulatedCrash",
    "WriteAheadLog",
    "load_wal",
    "read_checkpoint",
    "recover",
    "write_checkpoint",
]
