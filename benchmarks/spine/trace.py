"""Outside-in stage trace: spans around the layers' public entry points.

The traced pass runs inside the child process.  :func:`install` replaces
each wrap point of ISSUE 11's per-layer table — a public function or
method of :mod:`repro` — by a wrapper that records one span
``[name, start, end, parent, op]`` in memory; :meth:`Tracer.dump` writes
them out once the run is over and :func:`summarise` (driver side) turns
them into per-layer metrics.  Nothing under ``src/`` is edited.

* **parent** is the span that was current *in the same asyncio task*
  (a :class:`contextvars.ContextVar`, so interleaved sessions do not
  adopt each other's children);
* **op** identifies the request: ``[tenant, frame id]`` from the moment
  ``decode_frame`` returns, ``["batch", n]`` inside the drain whose span
  index is n (a drain serves several requests; ``batches`` maps it back);
* a layer's time is its spans' **self time**: duration minus the part of
  that interval its child spans cover.

A time metric is either *per op* (total self time in the timed phase
divided by that phase's operations — the stage budget of one request) or
*per call* (set-up, checkpoint and recovery work that does not recur per
request).  To add a counter, add a span name or a ``counts`` key here and
a row to :data:`TIME_METRICS` and the README; never re-point an existing
name at different code.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import json
import os
import statistics
import sys
import time

now = time.perf_counter

#: layer metric -> (span name, phase, divisor).  Self time, microseconds.
#: phase: "timed" = spans started between the ``timed_start`` and
#: ``timed_end`` marks, "setup" = before ``timed_start``, "any" = all.
TIME_METRICS = {
    "serve.decode_us": ("serve.decode", "timed", "op"),
    "serve.encode_us": ("serve.encode", "timed", "op"),
    "serve.compile_stmts_us": ("serve.compile_stmts", "timed", "op"),
    "serve.admit_us": ("serve.admit", "timed", "op"),
    "serve.queue_wait_us": ("serve.queue_wait", "timed", "op"),
    "serve.pump_us": ("serve.pump", "timed", "op"),
    "serve.query_us": ("serve.query", "timed", "op"),
    "serve.open_us": ("serve.open", "setup", "call"),
    "engine.execute_us": ("engine.execute", "timed", "op"),
    "engine.drain_us": ("engine.drain", "timed", "op"),
    "engine.commit_us": ("engine.commit", "timed", "op"),
    "events.publish_us": ("events.publish", "timed", "op"),
    "wal.prepare_us": ("wal.prepare", "timed", "op"),
    "wal.end_group_us": ("wal.end_group", "timed", "op"),
    "wal.fsync_us": ("wal.fsync", "timed", "op"),
    "rules.validate_us": ("rules.validate", "timed", "op"),
    "rules.flush_us": ("rules.flush", "timed", "op"),
    "rules.action_us": ("rules.action", "timed", "op"),
    "ptl.step_us": ("ptl.step", "timed", "op"),
    "ptl.add_rule_us": ("ptl.add_rule", "setup", "call"),
    "query.eval_us": ("query.eval", "timed", "op"),
    "history.spill_us": ("history.spill", "timed", "op"),
    "history.as_of_us": ("history.as_of", "timed", "op"),
    "storage.segment_write_us": ("storage.segment_write", "timed", "op"),
    "storage.segment_load_us": ("storage.segment_load", "timed", "op"),
    "recovery.checkpoint_us": ("recovery.checkpoint", "any", "call"),
    "recovery.load_wal_us": ("recovery.load_wal", "any", "call"),
    "recovery.restore_us": ("recovery.restore", "any", "call"),
}

#: Spans reported under another span's metric, and whether one of them
#: counts as a call of it: ``maybe_spill`` and the governor sum are the
#: policy half of a spill; ``read_checkpoint``, ``restore_tiers`` and
#: ``from_state`` together are the restore half of one recovery.
SPAN_ALIASES = {
    "history.maybe_spill": ("history.spill", False),
    "history.governor": ("history.spill", False),
    "recovery.read_checkpoint": ("recovery.restore", True),
    "recovery.restore_tiers": ("recovery.restore", False),
    "recovery.from_state": ("recovery.restore", False),
}

#: The served stage table, in request order.
STAGES = (
    ("decode", "serve.decode"),
    ("resolve tenant", "serve.open"),
    ("compile stmts", "serve.compile_stmts"),
    ("admit", "serve.admit"),
    ("queue wait", "serve.queue_wait"),
    ("drain (engine)", "engine.drain"),
    ("  commit", "engine.commit"),
    ("  validate (IC)", "rules.validate"),
    ("  WAL write", "wal.prepare"),
    ("  WAL fsync", "wal.fsync"),
    ("  WAL end group", "wal.end_group"),
    ("  bus publish", "events.publish"),
    ("  rules flush", "rules.flush"),
    ("  ptl step", "ptl.step"),
    ("  query atoms", "query.eval"),
    ("  action", "rules.action"),
    ("pump", "serve.pump"),
    ("encode", "serve.encode"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder and the wrappers that feed it.  Patches are
    never undone: the traced child exists for one repeat."""

    def __init__(self):
        self.spans: list = []
        #: drain span index -> the ops that drain served
        self.batches: dict = {}
        self.counts: dict = {}
        #: name -> {"t": time, "counts": counts so far}
        self.marks: dict = {}
        self._current = contextvars.ContextVar("spine_span", default=-1)
        self._op = contextvars.ContextVar("spine_op", default=None)
        #: engine id -> [(op, admit end)] waiting for their drain
        self._admitted: dict = {}
        self._drain_started = 0.0
        self._gc_started = 0.0
        self._validators: dict = {}

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def mark(self, name: str) -> None:
        self.marks[name] = {"t": now(), "counts": dict(self.counts)}

    def wrap_callable(self, fn, name, before=None, after=None):
        """``fn`` inside a span called ``name``.  ``before(index, args)``
        runs ahead of the call (and may set the op); ``after(index, args,
        result)`` after a call that returned."""
        spans, current, op_var = self.spans, self._current, self._op

        def open_span(args):
            row = [name, 0.0, 0.0, current.get(), None]
            index = len(spans)
            spans.append(row)
            token = current.set(index)
            if before is not None:
                before(index, args)
            return row, index, token

        def close_span(row, token, start):
            row[END] = now()
            row[START] = start
            row[OP] = op_var.get()
            current.reset(token)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                row, index, token = open_span(args)
                start = now()
                try:
                    result = await fn(*args, **kwargs)
                    if after is not None:
                        after(index, args, result)
                    return result
                finally:
                    close_span(row, token, start)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row, index, token = open_span(args)
            start = now()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(index, args, result)
                return result
            finally:
                close_span(row, token, start)

        return wrapper

    def patch(self, owner, attr, name, before=None, after=None) -> None:
        setattr(
            owner, attr,
            self.wrap_callable(getattr(owner, attr), name, before, after),
        )

    def patch_imported(self, original, name, before=None, after=None) -> None:
        """Wrap a module-level function everywhere :mod:`repro` imported
        it by name (``from x import f`` copies the reference)."""
        wrapped = self.wrap_callable(original, name, before, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def action(self, fn):
        """The benchmark's own rule action, timed."""
        return self.wrap_callable(fn, "rules.action")

    # -- hooks -------------------------------------------------------------

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = now()
            return
        self.count("proc.gc_pause_s", now() - self._gc_started)
        if info.get("generation") == 2:
            self.count("proc.gc_gen2")

    def _after_decode(self, index, args, frame) -> None:
        self._op.set([frame.get("tenant"), frame.get("id")])
        self.count("serve.frames_in")
        self.count("serve.bytes_in", len(args[0]))

    def _after_encode(self, index, args, data) -> None:
        self.count("serve.frames_out")
        self.count("serve.bytes_out", len(data))
        if "ev" in args[0]:
            self.count("serve.notify_frames")

    def _after_admit(self, index, args, future) -> None:
        engine = args[1].engine
        self._admitted.setdefault(id(engine), []).append(
            (self._op.get(), now())
        )

    def _before_drain(self, index, args) -> None:
        self._op.set(["batch", index])
        self._drain_started = now()

    def _after_drain(self, index, args, done) -> None:
        waiting = self._admitted.get(id(args[0]))
        if not waiting:
            return  # an embedded drain: nothing came in over a session
        served, waiting[: len(done)] = waiting[: len(done)], []
        self.batches[index] = [op for op, _ in served]
        for op, admitted in served:
            self.spans.append(
                ["serve.queue_wait", admitted, self._drain_started, -1, op]
            )

    def _traced_fsync(self, original):
        span = self.wrap_callable(original, "wal.fsync")
        spans, current = self.spans, self._current

        def fsync(fd):
            # Attributed to the enclosing span: under a WAL span the
            # fsync is a stage of its own; anywhere else (segment seal,
            # checkpoint rename) it stays in that layer's self time.
            parent = current.get()
            if parent >= 0 and spans[parent][NAME].startswith("wal."):
                return span(fd)
            return original(fd)

        return fsync

    def _traced_validators(self, engine_cls):
        original_add = engine_cls.add_commit_validator
        original_remove = engine_cls.remove_commit_validator
        wrapped_by = self._validators

        def add_commit_validator(engine, validator):
            wrapped = self.wrap_callable(validator, "rules.validate")
            wrapped_by[(id(engine), validator)] = wrapped
            return original_add(engine, wrapped)

        def remove_commit_validator(engine, validator):
            return original_remove(
                engine, wrapped_by.pop((id(engine), validator), validator)
            )

        engine_cls.add_commit_validator = add_commit_validator
        engine_cls.remove_commit_validator = remove_commit_validator

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(
                {
                    "spans": self.spans,
                    "batches": self.batches,
                    "counts": self.counts,
                    "marks": self.marks,
                },
                fp,
            )


def install() -> Tracer:
    """Patch every wrap point.  Call before any engine, manager or server
    object exists: bound methods captured at construction (the server's
    ``on_drained=self.pump``) must already be the wrapped ones."""
    import repro.history.spill as spill
    import repro.recovery.manager as recovery_manager
    import repro.serve.server as server
    from repro.engine import ActiveDatabase
    from repro.events.bus import EventBus
    from repro.ptl.plan import SharedPlan
    from repro.query.evaluator import eval_query
    from repro.recovery.manager import RecoveryManager
    from repro.recovery.wal import WriteAheadLog
    from repro.rules.manager import RuleManager
    from repro.serve.admission import AdmissionController
    from repro.serve.tenant import TenantRegistry
    from repro.storage.tiers import SegmentStore
    from repro.storage.transactions import Transaction
    from repro.workloads import stock

    t = Tracer()
    p = t.patch

    p(server, "decode_frame", "serve.decode", after=t._after_decode)
    p(server, "encode_frame", "serve.encode", after=t._after_encode)
    p(server, "compile_statements", "serve.compile_stmts")
    p(AdmissionController, "admit", "serve.admit", after=t._after_admit)
    p(server.ReproServer, "pump", "serve.pump")
    p(server.Session, "op_query", "serve.query")
    p(TenantRegistry, "get", "serve.open")

    p(ActiveDatabase, "execute", "engine.execute")
    p(ActiveDatabase, "post_event", "engine.execute")
    # rules_dense commits through the stock workload's helper instead of
    # ActiveDatabase.execute; it is the same stage.
    t.patch_imported(stock.apply_tick, "engine.execute")
    p(ActiveDatabase, "drain", "engine.drain", t._before_drain, t._after_drain)
    p(Transaction, "commit", "engine.commit")
    p(EventBus, "publish", "events.publish")

    p(WriteAheadLog, "prepare", "wal.prepare")
    p(WriteAheadLog, "end_group", "wal.end_group")
    os.fsync = t._traced_fsync(os.fsync)

    t._traced_validators(ActiveDatabase)
    p(RuleManager, "flush", "rules.flush")

    p(SharedPlan, "step", "ptl.step")
    p(RuleManager, "add_trigger", "ptl.add_rule")
    t.patch_imported(
        eval_query, "query.eval", after=lambda i, a, r: t.count("query.evals")
    )

    p(spill.TieredRuntime, "maybe_spill", "history.maybe_spill")
    p(
        spill.TieredHistory, "spill", "history.spill",
        after=lambda i, a, dropped: t.count("history.spills", bool(dropped)),
    )
    p(spill.TieredHistory, "as_of", "history.as_of")
    p(
        spill.MemoryGovernor, "total", "history.governor",
        after=lambda i, a, total: t.counts.update(
            {"history.governor_bytes": total}
        ),
    )

    def wrote_segment(index, args, info):
        t.count("storage.segments")
        t.count("storage.segment_bytes", info["bytes"])

    p(SegmentStore, "write_segment", "storage.segment_write",
      after=wrote_segment)
    p(SegmentStore, "load_segment", "storage.segment_load",
      after=lambda i, a, r: t.count("storage.faults"))

    p(RecoveryManager, "checkpoint", "recovery.checkpoint")
    p(RecoveryManager, "recover", "recovery.recover")
    p(recovery_manager, "load_wal", "recovery.load_wal")
    p(recovery_manager, "read_checkpoint", "recovery.read_checkpoint")
    p(spill, "restore_tiers", "recovery.restore_tiers")
    p(RuleManager, "from_state", "recovery.from_state")

    gc.callbacks.append(t._on_gc)
    return t


# ---------------------------------------------------------------------------
# Driver side: spans -> per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list:
    """Self time per span: duration minus the part of its interval that
    its direct children cover (a child outliving its parent — a drain
    task spawned from an admit — only counts for the overlap)."""
    out = [row[END] - row[START] for row in spans]
    for row in spans:
        parent = row[PARENT]
        if parent < 0:
            continue
        p = spans[parent]
        overlap = min(row[END], p[END]) - max(row[START], p[START])
        if overlap > 0:
            out[parent] -= overlap
    return out


def _op_key(op):
    return None if op is None else tuple(op)


def summarise(dump: dict, ops: int, txns: int, client=None) -> dict:
    """Per-layer metrics of one traced repeat.

    ``client`` maps a served request ``(tenant, frame id)`` to the load
    generator's ``(sent, received)`` stamps.  Returns the span- and
    count-derived layer metrics, each layer's share of the busy time, the
    served stage table (mean µs a transaction spends per stage, in
    request order) and the share of the embedded op span that child spans
    cover."""
    spans = dump["spans"]
    marks = dump["marks"]
    t0 = marks["timed_start"]["t"]
    t1 = marks["timed_end"]["t"]
    selfs = self_times(spans)

    def phase_of(row):
        if row[START] < t0:
            return "setup"
        return "timed" if row[START] <= t1 else "after"

    total: dict = {}  # (metric span name, phase) -> [self seconds, calls]
    busy: dict = {}  # layer -> self seconds in the timed phase
    for row, own in zip(spans, selfs):
        name, is_call = SPAN_ALIASES.get(row[NAME], (row[NAME], True))
        phase = phase_of(row)
        cell = total.setdefault((name, phase), [0.0, 0])
        cell[0] += own
        cell[1] += is_call
        if phase == "timed" and name != "serve.queue_wait":
            layer = name.split(".")[0]
            busy[layer] = busy.get(layer, 0.0) + own

    def bucket(name, phase):
        phases = ("setup", "timed", "after") if phase == "any" else (phase,)
        cells = [total.get((name, ph), (0.0, 0)) for ph in phases]
        return sum(c[0] for c in cells), sum(c[1] for c in cells)

    metrics = {}
    for metric, (name, phase, per) in TIME_METRICS.items():
        seconds, calls = bucket(name, phase)
        divisor = ops if per == "op" else calls
        metrics[metric] = seconds * 1e6 / divisor if divisor else 0.0

    timed = {
        key: value - marks["timed_start"]["counts"].get(key, 0)
        for key, value in marks["timed_end"]["counts"].items()
    }
    for key in (
        "serve.frames_in", "serve.frames_out", "serve.bytes_in",
        "serve.bytes_out", "serve.notify_frames", "query.evals",
        "history.spills", "storage.faults", "proc.gc_gen2",
    ):
        metrics[key] = timed.get(key, 0)
    # Segments sealed by a checkpoint count too, whenever it ran.
    for key in ("storage.segments", "storage.segment_bytes",
                "history.governor_bytes"):
        metrics[key] = dump["counts"].get(key, 0)
    metrics["proc.gc_pause_ms"] = timed.get("proc.gc_pause_s", 0.0) * 1e3

    batches = {
        int(index): [_op_key(op) for op in served]
        for index, served in dump["batches"].items()
        if t0 <= spans[int(index)][START] <= t1
    }
    metrics["serve.drains"] = len(batches)
    metrics["serve.drain_batch_txns"] = (
        statistics.fmean(len(b) for b in batches.values()) if batches else 0.0
    )
    fsyncs = bucket("wal.fsync", "timed")[1]
    metrics["wal.fsyncs"] = fsyncs
    metrics["wal.fsyncs_per_txn"] = fsyncs / txns if txns else 0.0
    metrics["trace.spans"] = len(spans)
    # The replay loop is what recover() did outside its helpers.
    metrics["recovery.replay_s"] = bucket("recovery.recover", "any")[0]

    stages, stage_sum = stage_table(spans, selfs, batches, client)
    metrics["serve.unattributed_share"] = (
        1 - stage_sum["server"] / stage_sum["client"]
        if stage_sum.get("client") else 0.0
    )

    # Embedded: do the spans under the op span cover it?
    covered = whole = 0.0
    for row, own in zip(spans, selfs):
        if row[NAME] == "engine.execute" and phase_of(row) == "timed":
            whole += row[END] - row[START]
            covered += row[END] - row[START] - own
    return {
        "metrics": metrics,
        "busy": busy,
        "stages": stages,
        "coverage": covered / whole if whole else 0.0,
    }


def stage_table(spans, selfs, batches, client):
    """Where a served transaction's latency goes, as means over the timed
    transactions: every traced stage's self time (a request waits for its
    whole batch, so batch stages count in full for each member), the
    waits between stages inside the server (event loop), and — when the
    load generator's stamps are on the same clock — the waits before
    ``decode`` and after ``encode`` (socket, loop, scheduler).  Together
    they add up to the client-observed latency."""
    if not batches:
        return [], {}
    op_stage: dict = {}  # op -> {span name: self seconds}
    op_wall: dict = {}  # op -> [decode start, last encode end]
    batch_stage: dict = {}
    for row, own in zip(spans, selfs):
        op = _op_key(row[OP])
        if op is None:
            continue
        if op[0] == "batch":
            cell = batch_stage.setdefault(op[1], {})
        else:
            cell = op_stage.setdefault(op, {})
            wall = op_wall.setdefault(op, [row[START], row[END]])
            if row[NAME] == "serve.encode":
                wall[1] = row[END]
        cell[row[NAME]] = cell.get(row[NAME], 0.0) + own

    sums: dict = {}
    n = 0
    for index, served in batches.items():
        shared = batch_stage.get(index, {})
        for op in served:
            if op not in op_wall:
                continue
            n += 1
            own = 0.0
            for cell in (op_stage[op], shared):
                for name, seconds in cell.items():
                    sums[name] = sums.get(name, 0.0) + seconds
                    own += seconds
            start, end = op_wall[op]
            sums["server"] = sums.get("server", 0.0) + own
            sums["loop"] = sums.get("loop", 0.0) + (end - start - own)
            if client and op in client:
                sent, received = client[op]
                sums["ingress"] = sums.get("ingress", 0.0) + start - sent
                sums["egress"] = sums.get("egress", 0.0) + received - end
                sums["client"] = sums.get("client", 0.0) + received - sent
    if not n:
        return [], {}
    mean = {name: seconds / n for name, seconds in sums.items()}
    rows = []
    if "client" in mean:
        rows.append(("wait before decode", mean["ingress"] * 1e6))
    rows += [
        (label, mean.get(name, 0.0) * 1e6) for label, name in STAGES
    ]
    rows.append(("waits between stages", mean["loop"] * 1e6))
    if "client" in mean:
        rows.append(("wait after encode", mean["egress"] * 1e6))
        rows.append(("= client-observed mean", mean["client"] * 1e6))
    rows.append(("traced stages alone", mean["server"] * 1e6))
    return rows, mean
