"""Compiled recurrence chains: the Section 5 recurrences as flat code.

The interpreted evaluator (:mod:`repro.ptl.incremental`) walks a node-object
graph on every state: each subformula is a Python object whose ``compute``
dispatches dynamically, re-enters the epoch-memoization wrapper, builds
operand lists, and calls the fully general smart constructors.  The
recurrences themselves are tiny — ``F_{g since h,i} = F_{h,i} | (F_{g,i} &
F_{g since h,i-1})`` is two boolean combinations — so per-state cost is
dominated by interpretive overhead, exactly as the tree-walking query
evaluator was before the compiled query plans (PR 3).

This module lowers a rule set's node DAG (post-normalize, post-hash-consing,
post common-subformula elimination) into generated Python step functions,
compiled per :class:`~repro.ptl.plan.SharedPlan` and reused across steps:

* every distinct subformula becomes one *slot* — computed exactly once per
  state without any memoization machinery;
* distinct ground queries are read **once per state** at the top of each
  segment through a shared delta gate;
* ground atoms compare raw query values with ``apply_comparison`` directly;
  symbolic atoms rebuild their constraint atom with the same smart
  constructors the interpreter uses, so the produced ``F_{g,i}`` formulas
  are structurally identical;
* the ``Since``/``Lasttime`` recurrences become direct loads/stores of the
  interpreted nodes' ``stored``/``started`` attributes;
* **aggregate maintenance** (window-log append/expire, running
  sum/count/min/max deltas) is lowered into the same step function: an
  aggregate is one more slot, emitted after the slots of its φ/ψ (ordinary
  subformulas of the DAG) and before its first reader, with state
  authority staying in the interpreted ``_AggregateState`` objects.

Chains are built as **segments**: hot rule adds
compile only the new rules' unshared suffix into a fresh segment appended
to the run list; hot removes decrement per-slot refcounts mirroring the
plan's memo refcounts, swap dead temporal slots to an inert sentinel, and
drop whole segments once nothing in them is live.  The slot-layout
fingerprint is *canonical* (order-independent over the live rows) so a
patched chain and a freshly rebuilt chain for the same rule set agree, and
checkpoint drift detection keeps refusing real mismatches.

State authority stays with the node objects: the chain reads and writes the
same per-node storage the interpreter uses, which keeps snapshot/restore,
checkpointing, time-bound pruning, and ``stored_formulas`` introspection
working unchanged — and makes the two backends freely switchable mid-run
(the differential suite in ``tests/test_ptl_compile.py`` holds them
together step-by-step).

Toggle with ``REPRO_PTL_COMPILE=1`` (default off — the interpreted path is
the differential oracle) or :func:`set_ptl_compile`; the toggle lives in
:mod:`repro.ptl.compile_toggle` (re-exported here), so the plan reads it
without loading this module.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro.errors import PTLError, QueryEvaluationError, RecoveryError
from repro.ptl import ast
from repro.ptl import constraints as cs
from repro.ptl.compile_toggle import (  # noqa: F401 (re-exported)
    ptl_compile_enabled,
    set_ptl_compile,
)
from repro.ptl.values import UNDEFINED
from repro.query.evaluator import apply_comparison


class ChainLoweringError(PTLError):
    """The node graph contains a shape the lowering does not handle."""


#: Sentinel: a term is not a compile-time constant.
_DYN = object()

#: Running-aggregate functions whose per-sample delta the lowering inlines.
_RUNNING_FUNCS = ("sum", "avg", "count", "min", "max")


class _DeadSlot:
    """Inert stand-in swapped into a segment's globals when a temporal
    slot is released: stores are dropped and loads are constants, so the
    dead slot's still-emitted lines cost O(1) and its stored formula can
    never grow."""

    __slots__ = ()

    @property
    def started(self):
        return True

    @started.setter
    def started(self, value):
        pass

    @property
    def stored(self):
        return cs.CFALSE

    @stored.setter
    def stored(self, value):
        pass


_DEAD = _DeadSlot()


class _TemporalRow:
    """One live temporal slot: the interpreted node plus the segment
    global-name it is reachable through (for the dead-slot swap)."""

    __slots__ = ("kind", "label", "prune", "node", "env", "name")

    def __init__(self, kind, label, prune, node, env, name):
        self.kind = kind
        self.label = label
        self.prune = prune
        self.node = node
        self.env = env
        self.name = name


class _MaintEntry:
    """One aggregate slot: its maintenance runs in a segment, gated by the
    ``flag`` cell so releasing the last reader turns it off without
    regenerating code."""

    __slots__ = ("agg", "flag")

    def __init__(self, agg, flag):
        self.agg = agg
        self.flag = flag


class _Slot:
    """Refcount bookkeeping for one compiled node in a chain (``row``:
    its temporal row, ``maint``: its aggregate entry — else None)."""

    __slots__ = ("node", "seg", "children", "row", "maint")

    def __init__(self, node, row, maint):
        self.node = node
        self.seg = None
        self.children: list[int] = []
        self.row = row
        self.maint = maint


class _Segment:
    """One generated step function covering a batch of slots (the initial
    build, or one hot-add patch)."""

    __slots__ = ("fn", "env", "source", "alive", "n_qslots")

    def __init__(self, fn, env, source, alive, n_qslots):
        self.fn = fn
        self.env = env
        self.source = source
        self.alive = alive
        self.n_qslots = n_qslots


# ---------------------------------------------------------------------------
# The compiled chain
# ---------------------------------------------------------------------------


class CompiledChain:
    """One rule set's recurrences as generated step functions.

    ``run(state)`` executes the segments in build order (updating the
    temporal nodes' ``stored``/``started`` and the maintained aggregates'
    state in place); ``top_of(root)`` reads a rule root's value for the
    last state run.  A chain is patched incrementally: :meth:`add_roots`
    compiles only the new rules' unshared suffix into a fresh segment,
    :meth:`release_roots` refcounts slots down exactly as the plan's memo
    table does.
    """

    __slots__ = (
        "segments",
        "temporal",
        "maintained",
        "node_slot",
        "slots",
        "slot_refs",
        "dead_slots",
        "n_nodes",
        "n_query_slots",
        "fingerprint",
        "layout",
        "_root_refs",
        "_root_obj",
        "_root_slot",
        "_V",
    )

    def __init__(self):
        self.segments: list[_Segment] = []
        #: Live temporal rows, in lowering order.
        self.temporal: list[_TemporalRow] = []
        #: id(aggregate) -> _MaintEntry for the live aggregate slots.
        self.maintained: dict[int, _MaintEntry] = {}
        self.node_slot: dict[int, int] = {}
        self.slots: list[Optional[_Slot]] = []
        self.slot_refs: list[int] = []
        self.dead_slots = 0
        self.n_nodes = 0
        self.n_query_slots = 0
        self.fingerprint = ""
        self.layout: list = []
        self._root_refs: dict[int, int] = {}
        self._root_obj: dict[int, Any] = {}
        self._root_slot: dict[int, int] = {}
        #: The slot value vector every segment reads and writes.
        self._V: list = []

    # -- execution -----------------------------------------------------------

    def run(self, state) -> None:
        for seg in self.segments:
            seg.fn(state)

    def top_of(self, root) -> cs.C:
        """The value computed for ``root`` by the last :meth:`run`."""
        return self._V[self._root_slot[id(root)]]

    @property
    def roots(self) -> list:
        return list(self._root_obj.values())

    @property
    def n_temporal(self) -> int:
        return len(self.temporal)

    @property
    def source(self) -> str:
        return "\n".join(seg.source for seg in self.segments)

    def slot_values(self) -> list:
        """Current contents of the live temporal slots, in chain order:
        ``(kind, label, stored state)`` rows for the differential tests."""
        return [
            (row.kind, row.label, row.node.get_state())
            for row in self.temporal
        ]

    def layout_fingerprint(self) -> str:
        return self.fingerprint

    # -- incremental patching -------------------------------------------------

    def add_roots(self, roots, temporal_meta=None) -> None:
        """Compile the unshared suffix of ``roots`` into a fresh segment
        and take one root reference per occurrence.  Raises
        :class:`ChainLoweringError` when some new node shape is
        unsupported — the caller falls back to the interpreter wholesale."""
        fresh = []
        seen: set[int] = set()
        for root in roots:
            rid = id(root)
            if rid in seen or rid in self.node_slot:
                continue
            seen.add(rid)
            fresh.append(root)
        if fresh:
            _Lowering(
                fresh, chain=self, temporal_meta=temporal_meta
            ).build_segment()
        for root in roots:
            rid = id(root)
            if rid in self._root_refs:
                self._root_refs[rid] += 1
            else:
                self._root_refs[rid] = 1
                self._root_obj[rid] = root
                self._root_slot[rid] = self.node_slot[rid]
            self.slot_refs[self.node_slot[rid]] += 1

    def release_roots(self, roots) -> None:
        """Drop one root reference per occurrence, freeing slots whose
        refcount reaches zero (mirrors the plan's memo-table release)."""
        for root in roots:
            rid = id(root)
            if rid not in self._root_refs:
                continue
            j = self._root_slot[rid]
            n = self._root_refs[rid] - 1
            if n:
                self._root_refs[rid] = n
            else:
                del self._root_refs[rid]
                del self._root_obj[rid]
                del self._root_slot[rid]
            self._deref(j)

    def _deref(self, j: int) -> None:
        self.slot_refs[j] -= 1
        if self.slot_refs[j] <= 0 and self.slots[j] is not None:
            self._kill(j)

    def _kill(self, j: int) -> None:
        slot = self.slots[j]
        self.slots[j] = None
        del self.node_slot[id(slot.node)]
        self.n_nodes -= 1
        self.dead_slots += 1
        seg = slot.seg
        seg.alive -= 1
        if seg.alive == 0:
            self.segments.remove(seg)
            self.n_query_slots -= seg.n_qslots
        row = slot.row
        if row is not None:
            # Stores become no-ops, loads constants: the dead recurrence
            # can never grow its stored formula again.
            row.env[row.name] = _DEAD
            self.temporal.remove(row)
        if slot.maint is not None:
            # The last reader is gone: stop accumulating.
            slot.maint.flag[0] = False
            del self.maintained[id(slot.maint.agg)]
        for cj in slot.children:
            self._deref(cj)

    def should_compact(self) -> bool:
        """Whether enough released slots have accumulated that a full
        rebuild (which the plan performs lazily) beats carrying them."""
        return self.dead_slots >= 64 and self.dead_slots >= self.n_nodes

    # -- fingerprint ---------------------------------------------------------

    def refingerprint(self) -> None:
        """Recompute the canonical slot-layout fingerprint over the *live*
        rows.  Rows are sorted, so a chain patched into a layout and a
        chain rebuilt from scratch for the same rule set agree — which is
        what lets checkpoints restore across differing patch histories
        while still refusing real layout drift."""
        rows: list = [
            [row.kind, row.label, list(row.prune)] for row in self.temporal
        ]
        for entry in self.maintained.values():
            agg = entry.agg
            rows.append(
                ["agg", str(agg.term), sorted(agg.avail), agg.mode]
            )
        rows.sort(key=lambda r: json.dumps(r, separators=(",", ":")))
        rows.append(["roots", len(self._root_slot)])
        self.layout = rows
        blob = json.dumps(rows, separators=(",", ":"))
        self.fingerprint = hashlib.sha256(
            blob.encode("utf-8")
        ).hexdigest()[:16]

    # -- serialization (recovery checkpoints) --------------------------------

    def to_state(self) -> dict:
        """The chain's checkpoint section: the canonical layout
        fingerprint plus the live temporal-slot count.  The slot *states*
        are owned by the interpreted nodes and ride in the evaluator/plan
        sections; the chain section only verifies layout on restore."""
        return {
            "fingerprint": self.fingerprint,
            "slots": len(self.temporal),
        }

    def from_state(self, payload: dict) -> None:
        """Verify a checkpoint section against this chain's layout;
        refuses on slot-layout drift.  The temporal-node states themselves
        are restored by the owning evaluator/plan (the slots alias those
        same node objects)."""
        if payload.get("fingerprint") != self.fingerprint:
            raise RecoveryError(
                "compiled slot-layout drift: checkpoint fingerprint "
                f"{payload.get('fingerprint')!r} does not match this "
                f"chain's layout {self.fingerprint!r}"
            )
        slots = payload.get("slots")
        if slots != len(self.temporal):
            raise RecoveryError(
                f"checkpoint has {slots} temporal slots; chain has "
                f"{len(self.temporal)}"
            )


def _fast_subst(c, var, value):
    """``substitute(c, {var: value})`` specialized for the Assign step of a
    lowered chain: one variable, one value, and stored window formulas
    whose atoms are already normalized to ``var <op> const`` — those fold
    straight to a boolean via ``apply_comparison`` without rebuilding any
    terms, and conjunctions/disjunctions whose changes are all constant
    collapses keep their untouched canonical operand subsequence (flat,
    deduplicated, complement-free) without the general rebuild.  Produces
    the same formula as the generic path; any shape outside the fast cases
    falls back to it."""
    if isinstance(c, cs.CBool):
        return c
    if var not in c.variables():
        # Substitution is the identity on every subterm, and canonical
        # nodes are normalization-stable, so the generic walk would
        # reproduce ``c`` itself.
        return c
    if isinstance(c, cs.CAtom):
        if (
            isinstance(c.left, cs.SVar)
            and c.left.name == var
            and isinstance(c.right, cs.SConst)
        ):
            try:
                return (
                    cs.CTRUE
                    if apply_comparison(c.op, value, c.right.value)
                    else cs.CFALSE
                )
            except QueryEvaluationError:
                return cs.CFALSE
        env = {var: value}
        return cs.catom(
            c.op, cs.subst_term(c.left, env), cs.subst_term(c.right, env)
        )
    if isinstance(c, cs.CAnd):
        ops = [_fast_subst(x, var, value) for x in c.operands]
        bools_only = True
        for a, b in zip(ops, c.operands):
            if a is b:
                continue
            if isinstance(a, cs.CBool):
                if not a.value:
                    return cs.CFALSE
            else:
                bools_only = False
        if bools_only:
            kept = tuple(b for a, b in zip(ops, c.operands) if a is b)
            if not kept:
                return cs.CTRUE
            if len(kept) == 1:
                return kept[0]
            return cs._intern(cs.CAnd, kept)
        return cs.cand(ops)
    if isinstance(c, cs.COr):
        ops = [_fast_subst(x, var, value) for x in c.operands]
        bools_only = True
        for a, b in zip(ops, c.operands):
            if a is b:
                continue
            if isinstance(a, cs.CBool):
                if a.value:
                    return cs.CTRUE
            else:
                bools_only = False
        if bools_only:
            kept = tuple(b for a, b in zip(ops, c.operands) if a is b)
            if not kept:
                return cs.CFALSE
            if len(kept) == 1:
                return kept[0]
            return cs._intern(cs.COr, kept)
        return cs.cor(ops)
    return cs.substitute(c, {var: value})


def _partial_normalize(op, fixed, dyn_on_left):
    """Run :func:`repro.ptl.constraints._normalize_linear` symbolically
    with the dynamic side as a numeric placeholder.  Returns
    ``(final_op, var_side, steps)`` where ``steps`` replays, in order and
    with identical arithmetic, the rearrangements the normalizer applies to
    the constant side — or None when the shape can't be specialized."""
    if isinstance(fixed, cs.SConst):
        # Both sides constant at runtime: catom folds to a CBool up front,
        # which the residual-atom fast path cannot reproduce.
        return None
    if dyn_on_left:
        # Dynamic constant on the left: the normalizer flips it right.
        op = cs._FLIPPED_OP[op]
    left = fixed
    steps: list = []
    changed = True
    while changed:
        changed = False
        if isinstance(left, cs.SApp) and len(left.args) == 2:
            a, b = left.args
            a_num = isinstance(a, cs.SConst) and cs._is_number(a.value)
            b_num = isinstance(b, cs.SConst) and cs._is_number(b.value)
            if left.func in ("+", "-") and b_num:
                steps.append(("sub" if left.func == "+" else "add", b.value))
                left = a
                changed = True
            elif left.func == "+" and a_num:
                steps.append(("sub", a.value))
                left = b
                changed = True
            elif left.func == "*" and a_num and a.value != 0:
                if a.value < 0 and op not in ("=", "!="):
                    op = cs._FLIPPED_OP[op]
                steps.append(("div", a.value))
                left = b
                changed = True
            elif left.func == "*" and b_num and b.value != 0:
                if b.value < 0 and op not in ("=", "!="):
                    op = cs._FLIPPED_OP[op]
                steps.append(("div", b.value))
                left = a
                changed = True
            elif left.func == "/" and b_num and b.value != 0:
                if b.value < 0 and op not in ("=", "!="):
                    op = cs._FLIPPED_OP[op]
                steps.append(("mul", b.value))
                left = a
                changed = True
    return op, left, steps


def _atom_builder(op, var_side):
    """Closure interning ``var_side <op> SConst(d)`` directly — the
    residual of ``catom`` once normalization has been evaluated away."""
    intern = cs._intern
    SConst = cs.SConst
    CAtom = cs.CAtom

    def build(d):
        return intern(CAtom, op, var_side, SConst(d))

    return build


def _apply_steps(steps, d):
    for kind, c in steps:
        if kind == "add":
            d = d + c
        elif kind == "sub":
            d = d - c
        elif kind == "div":
            d = cs._intify(d / c)
        else:
            d = cs._intify(d * c)
    return d


def _specialization_agrees(builder, steps, op, fixed, dyn_on_left) -> bool:
    """Cross-check the residual atom program against the real ``catom`` on
    probe values; the fast path is only trusted when they agree *by
    identity* (same interned object) on every probe."""
    for d in (0, 1, -3, 2, 7.5, -0.5, 1000):
        if dyn_on_left:
            want = cs.catom(op, cs.SConst(d), fixed)
        else:
            want = cs.catom(op, fixed, cs.SConst(d))
        try:
            got = builder(_apply_steps(steps, d))
        except Exception:
            return False
        if got is not want:
            return False
    return True


def try_lower(roots, temporal_meta=None):
    """Lower ``roots`` into a chain, or None when some node shape is
    unsupported — callers then fall back to the interpreted path wholesale
    (never a half-compiled mix)."""
    try:
        return lower(roots, temporal_meta)
    except ChainLoweringError:
        return None


def lower(roots, temporal_meta=None) -> CompiledChain:
    """Lower the node DAG reachable from ``roots`` (memo wrappers
    included) into a :class:`CompiledChain`.  ``temporal_meta`` maps
    ``id(inner temporal node)`` to its sorted prune-variable tuple for the
    canonical layout rows."""
    chain = CompiledChain()
    chain.add_roots(list(roots), temporal_meta)
    chain.refingerprint()
    return chain


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Lowering:
    """Lowers a batch of roots into one generated step function — one
    chain segment."""

    def __init__(self, roots, chain, temporal_meta=None):
        from repro.ptl import incremental as inc

        self._inc = inc
        self.roots = list(roots)
        self.chain = chain
        self.temporal_meta = temporal_meta
        #: Query-slot loads, emitted once at the top of the function.
        self.head: list[str] = []
        self.body: list[str] = []
        #: The exec globals of the generated function.  Temporal nodes are
        #: reachable through names in this dict, so releasing a slot can
        #: swap the interpreted node for the inert ``_DEAD`` sentinel.
        self.env: dict[str, Any] = {
            "_T": cs.CTRUE,
            "_F": cs.CFALSE,
            "_U": UNDEFINED,
            "_not": cs.cnot,
            "_and": cs.cand,
            "_or": cs.cor,
            "_and2": cs.cand2,
            "_or2": cs.cor2,
            "_catom": cs.catom,
            "_subst": cs.substitute,
            "_fs": _fast_subst,
            "_SC": cs.SConst,
            "_sapp": cs.sapp,
            "_ii": cs._intify,
            "_cmp": apply_comparison,
            "_QEE": QueryEvaluationError,
            "_gqv": inc.gated_query_value,
            "_frs": inc.fire_result,
            "_V": chain._V,
        }
        #: id(node as referenced) -> expression for its value.
        self.expr: dict[int, str] = {}
        self._n = 0
        #: query -> local name of its per-state value slot.
        self._qslots: dict[Any, str] = {}
        self.temporal_rows: list[_TemporalRow] = []
        #: Extra indentation applied by _emit (maintenance flag guards).
        self._indent = 0
        #: The temporal row / aggregate entry of the node being lowered.
        self._cur_row: Optional[_TemporalRow] = None
        self._cur_maint: Optional[_MaintEntry] = None

    # -- helpers -------------------------------------------------------------

    def _capture(self, prefix: str, obj) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.env[name] = obj
        return name

    def _local(self) -> str:
        name = f"v{self._n}"
        self._n += 1
        return name

    def _emit(self, line: str, indent: int = 1) -> None:
        self.body.append("    " * (indent + self._indent) + line)

    # -- graph walk ----------------------------------------------------------

    def _toposort(self, roots) -> list:
        """Topological order of the *new* nodes reachable from ``roots``.
        Nodes already compiled into the chain are not recursed:
        their expression becomes a read of their value-vector slot."""
        known = self.chain.node_slot
        children = self._inc.children
        order: list = []
        seen: set[int] = set()
        stack = [(n, False) for n in reversed(roots)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            nid = id(node)
            if nid in seen:
                continue
            seen.add(nid)
            if nid in known:
                self.expr[nid] = f"_V[{known[nid]}]"
                continue
            stack.append((node, True))
            for child in reversed(children(node)):
                if id(child) not in seen:
                    stack.append((child, False))
        return order

    # -- per-node lowering ---------------------------------------------------

    def _add_row(self, kind: str, inner, name: str) -> None:
        prune = ()
        if self.temporal_meta is not None:
            prune = self.temporal_meta.get(id(inner), ())
        row = _TemporalRow(
            kind, inner.label, tuple(prune), inner, self.env, name
        )
        self.temporal_rows.append(row)
        self._cur_row = row

    def _lower_node(self, node) -> None:
        inc = self._inc
        inner = inc.peel(node)
        key = id(node)
        if isinstance(inner, inc._AggregateState):
            self.expr[key] = self._lower_aggregate(inner)
            return
        if isinstance(inner, inc._BoolNode):
            self.expr[key] = "_T" if inner.value is cs.CTRUE else "_F"
            return
        if isinstance(inner, inc._NotNode):
            v = self._local()
            self._emit(f"{v} = _not({self.expr[id(inner.child)]})")
            self.expr[key] = v
            return
        if isinstance(inner, (inc._AndNode, inc._OrNode)):
            is_and = isinstance(inner, inc._AndNode)
            xs = [self.expr[id(c)] for c in inner.children]
            v = self._local()
            if len(xs) == 2:
                fn = "_and2" if is_and else "_or2"
                self._emit(f"{v} = {fn}({xs[0]}, {xs[1]})")
            else:
                fn = "_and" if is_and else "_or"
                self._emit(f"{v} = {fn}(({', '.join(xs)},))")
            self.expr[key] = v
            return
        if isinstance(inner, inc._LasttimeNode):
            # F_{lasttime g, i} = F_{g, i-1}: return the slot, then refill.
            n = self._capture("N", inner)
            v = self._local()
            self._emit(f"{v} = {n}.stored")
            self._emit(f"{n}.stored = {self.expr[id(inner.child)]}")
            self._add_row("last", inner, n)
            self.expr[key] = v
            return
        if isinstance(inner, inc._SinceNode):
            # F_{g since h, i} = F_{h,i} | (F_{g,i} & F_{g since h, i-1}).
            n = self._capture("N", inner)
            a = self.expr[id(inner.lhs)]
            b = self.expr[id(inner.rhs)]
            v = self._local()
            self._emit(f"if {n}.started:")
            self._emit(f"{v} = _or2({b}, _and2({a}, {n}.stored))", 2)
            self._emit("else:")
            self._emit(f"{n}.started = True", 2)
            self._emit(f"{v} = {b}", 2)
            self._emit(f"{n}.stored = {v}")
            self._add_row("since", inner, n)
            self.expr[key] = v
            return
        if isinstance(inner, inc._AssignNode):
            c = self.expr[id(inner.child)]
            # The assignment query reads through the shared per-state query
            # slots, so e.g. every ``previously[w]``'s ``[u := time]``
            # costs one ``time`` evaluation per state, not one per rule.
            x = self._query_slot(inner.query)
            v = self._local()
            self._emit(f"if {x} is _U:")
            self._emit(f"{v} = _F", 2)
            self._emit(f"elif {c} is _T or {c} is _F:")
            self._emit(f"{v} = {c}", 2)
            self._emit("else:")
            self._emit(f"{v} = _fs({c}, {inner.var!r}, {x})", 2)
            self.expr[key] = v
            return
        if isinstance(inner, inc._ComparisonNode):
            self.expr[key] = self._lower_comparison(inner)
            return
        if isinstance(
            inner, (inc._EventNode, inc._ExecutedNode, inc._InQueryNode)
        ):
            # Relation-shaped leaves keep their interpreted compute (their
            # cost is data-dependent, not dispatch-dominated).
            self.expr[key] = self._bound_leaf(inner)
            return
        raise ChainLoweringError(
            f"cannot lower node type {type(inner).__name__}"
        )

    def _bound_leaf(self, inner) -> str:
        fn = self._capture("L", inner.compute)
        v = self._local()
        self._emit(f"{v} = {fn}(state)")
        return v

    # -- comparisons ---------------------------------------------------------

    def _lower_comparison(self, inner) -> str:
        f = inner.formula
        lc = self._const_sterm(f.left)
        rc = self._const_sterm(f.right)
        if lc is not _DYN and rc is not _DYN:
            # Both terms are compile-time constants: the atom is too.
            if lc is None or rc is None:
                return "_F"
            try:
                k = cs.catom(f.op, lc, rc)
            except Exception:
                return self._bound_leaf(inner)
            if k is cs.CTRUE:
                return "_T"
            if k is cs.CFALSE:
                return "_F"
            return self._capture("K", k)
        if self._is_value_term(f.left) and self._is_value_term(f.right):
            return self._value_comparison(inner)
        return self._symbolic_comparison(inner)

    def _const_sterm(self, term):
        """Compile-time symbolic value of a term: an ``STerm``, ``None``
        for constant-undefined, or :data:`_DYN` if it depends on the
        state (queries / aggregates)."""
        if isinstance(term, ast.ConstT):
            return cs.SConst(term.value)
        if isinstance(term, ast.Var):
            return cs.SVar(term.name)
        if isinstance(term, ast.FuncT):
            args = []
            dyn = False
            for a in term.args:
                s = self._const_sterm(a)
                if s is None:
                    return None
                if s is _DYN:
                    dyn = True
                else:
                    args.append(s)
            if dyn:
                return _DYN
            try:
                return cs.sapp(term.func, tuple(args))
            except Exception:
                return None
        if isinstance(term, (ast.QueryT, ast.AggT)):
            return _DYN
        raise ChainLoweringError(f"unknown term {term!r}")

    def _is_value_term(self, term) -> bool:
        """No symbolic variables anywhere: the term reduces to a raw
        runtime value (or undefined), so the atom folds to a CBool."""
        if isinstance(term, (ast.ConstT, ast.QueryT, ast.AggT)):
            return True
        if isinstance(term, ast.FuncT):
            return all(self._is_value_term(a) for a in term.args)
        return False

    def _value_comparison(self, inner) -> str:
        f = inner.formula
        lv, lu = self._value_term(f.left, inner)
        rv, ru = self._value_term(f.right, inner)
        v = self._local()
        checks = [f"{e} is _U" for e, u in ((lv, lu), (rv, ru)) if u]
        indent = 1
        if checks:
            self._emit(f"if {' or '.join(checks)}:")
            self._emit(f"{v} = _F", 2)
            self._emit("else:")
            indent = 2
        self._emit("try:", indent)
        self._emit(
            f"{v} = _T if _cmp({f.op!r}, {lv}, {rv}) else _F", indent + 1
        )
        self._emit("except _QEE:", indent)
        self._emit(f"{v} = _F", indent + 1)
        return v

    def _value_term(self, term, inner):
        """Emit a raw-value computation; returns (expression, may be
        UNDEFINED)."""
        if isinstance(term, ast.ConstT):
            return self._capture("K", term.value), False
        if isinstance(term, ast.QueryT):
            return self._query_slot(term.query), True
        if isinstance(term, ast.AggT):
            return self._agg_value(inner, term), True
        if isinstance(term, ast.FuncT):
            try:
                from repro.query.functions import scalar_function

                fn = scalar_function(term.func)
            except Exception:
                raise ChainLoweringError(
                    f"unresolvable scalar function {term.func!r}"
                )
            parts = [self._value_term(a, inner) for a in term.args]
            t = self._local()
            checks = [f"{e} is _U" for e, u in parts if u]
            fname = self._capture("F", fn)
            arglist = ", ".join(e for e, _ in parts)
            indent = 1
            if checks:
                self._emit(f"if {' or '.join(checks)}:")
                self._emit(f"{t} = _U", 2)
                self._emit("else:")
                indent = 2
            self._emit("try:", indent)
            self._emit(f"{t} = {fname}({arglist})", indent + 1)
            self._emit("except Exception:", indent)
            self._emit(f"{t} = _U", indent + 1)
            return t, True
        raise ChainLoweringError(f"unsupported value term {term!r}")

    def _symbolic_comparison(self, inner) -> str:
        f = inner.formula
        spec = self._specialized_atom(inner)
        if spec is not None:
            return spec
        ls, lu = self._sym_term(f.left, inner)
        rs, ru = self._sym_term(f.right, inner)
        v = self._local()
        checks = [f"{e} is None" for e, u in ((ls, lu), (rs, ru)) if u]
        if checks:
            self._emit(f"if {' or '.join(checks)}:")
            self._emit(f"{v} = _F", 2)
            self._emit("else:")
            self._emit(f"{v} = _catom({f.op!r}, {ls}, {rs})", 2)
        else:
            self._emit(f"{v} = _catom({f.op!r}, {ls}, {rs})")
        return v

    def _sym_term(self, term, inner):
        """Emit an ``STerm``-or-None computation (the `_term_value`
        contract); returns (expression, may be None)."""
        const = self._const_sterm(term)
        if const is None:
            return self._capture("K", None), True
        if const is not _DYN:
            return self._capture("K", const), False
        if isinstance(term, ast.QueryT):
            q = self._query_slot(term.query)
            t = self._local()
            self._emit(f"{t} = None if {q} is _U else _SC({q})")
            return t, True
        if isinstance(term, ast.AggT):
            raw = self._agg_value(inner, term)
            t = self._local()
            self._emit(f"{t} = None if {raw} is _U else _SC({raw})")
            return t, True
        if isinstance(term, ast.FuncT):
            parts = [self._sym_term(a, inner) for a in term.args]
            t = self._local()
            checks = [f"{e} is None" for e, u in parts if u]
            args = ", ".join(e for e, _ in parts)
            fn = self._capture("FN", term.func)
            indent = 1
            if checks:
                self._emit(f"if {' or '.join(checks)}:")
                self._emit(f"{t} = None", 2)
                self._emit("else:")
                indent = 2
            self._emit("try:", indent)
            self._emit(f"{t} = _sapp({fn}, ({args},))", indent + 1)
            self._emit("except Exception:", indent)
            self._emit(f"{t} = None", indent + 1)
            return t, True
        raise ChainLoweringError(f"unsupported symbolic term {term!r}")

    def _specialized_atom(self, inner) -> Optional[str]:
        """Partially evaluate ``catom``'s linear normalization at lowering
        time for the dominant symbolic-atom shape: one side a bare
        query/aggregate (a number at runtime), the other a fixed symbolic
        term.  The normalization's control flow depends only on the fixed
        side's structure, so the whole rearrangement collapses here into a
        short arithmetic expression over the runtime value plus one intern
        probe — e.g. the deadline atom ``time >= u - w`` becomes
        ``u <= <ts + w>`` with the addition inlined in the chain.  The
        residual program is cross-checked against :func:`catom` on probe
        values before being trusted; any disagreement falls back to the
        generic path."""
        f = inner.formula
        lc = self._const_sterm(f.left)
        rc = self._const_sterm(f.right)
        if (
            lc is _DYN
            and rc is not None
            and rc is not _DYN
            and isinstance(f.left, (ast.QueryT, ast.AggT))
        ):
            dyn_term, fixed, dyn_on_left = f.left, rc, True
        elif (
            rc is _DYN
            and lc is not None
            and lc is not _DYN
            and isinstance(f.right, (ast.QueryT, ast.AggT))
        ):
            dyn_term, fixed, dyn_on_left = f.right, lc, False
        else:
            return None
        plan = _partial_normalize(f.op, fixed, dyn_on_left)
        if plan is None:
            return None
        final_op, var_side, steps = plan
        builder = _atom_builder(final_op, var_side)
        if not _specialization_agrees(builder, steps, f.op, fixed, dyn_on_left):
            return None

        if isinstance(dyn_term, ast.QueryT):
            q = self._query_slot(dyn_term.query)
        else:
            q = self._agg_value(inner, dyn_term)
        mk = self._capture("A", builder)
        kf = self._capture("K", fixed)
        e = q
        for kind, c in steps:
            if kind == "add":
                e = f"({e} + {c!r})"
            elif kind == "sub":
                e = f"({e} - {c!r})"
            elif kind == "div":
                e = f"_ii({e} / {c!r})"
            else:
                e = f"_ii({e} * {c!r})"
        v = self._local()
        self._emit(f"if {q} is _U:")
        self._emit(f"{v} = _F", 2)
        self._emit(f"elif {q}.__class__ is int or {q}.__class__ is float:")
        self._emit(f"{v} = {mk}({e})", 2)
        self._emit("else:")
        if dyn_on_left:
            self._emit(f"{v} = _catom({f.op!r}, _SC({q}), {kf})", 2)
        else:
            self._emit(f"{v} = _catom({f.op!r}, {kf}, _SC({q}))", 2)
        return v

    def _query_slot(self, query) -> str:
        """One load per distinct ground query per state, via a shared
        delta gate."""
        name = self._qslots.get(query)
        if name is None:
            inc = self._inc
            g = self._capture("QG", inc._atom_gate((query,)))
            q = self._capture("QQ", query)
            name = f"q{len(self._qslots)}"
            self._qslots[query] = name
            self.head.append(f"    {name} = _gqv({g}, {q}, state)")
        return name

    def _agg_value(self, inner, term) -> str:
        """The aggregate's value this state: its slot, computed once
        right after its maintenance however many atoms read it."""
        return self.expr[id(inner.evaluator._aggregates[term])]

    # -- aggregate maintenance -----------------------------------------------

    def _fired(self, node, ctx) -> str:
        """Emit the firing decision of a ground φ/ψ root from its slot
        (``fire_result``, its constant-top cases inlined)."""
        top = self.expr[id(node)]
        fv = self._local()
        ec = self._capture("EC", ctx)
        self._emit(
            f"{fv} = {top} is _T or "
            f"({top} is not _F and _frs({top}, state, {ec}).fired)"
        )
        return fv

    def _lower_aggregate(self, agg) -> str:
        """One aggregate slot: its step (φ/ψ read off their slots, which
        precede it in the order) under a flag cell, then its value.  An
        accumulator shape the inliner declines is rolled back to a call
        of the interpreted ``advance`` — still fed from the slots."""
        flag = [True]
        fl = self._capture("FL", flag)
        A = self._capture("A", agg)
        v = self._local()
        self._emit(f"{v} = _U")
        self._emit(f"if {fl}[0]:")
        self._indent += 1
        fs = "False" if agg.start is None else self._fired(agg.start, agg.ctx)
        fv = self._fired(agg.sample, agg.ctx)
        mark = len(self.body)
        try:
            self._lower_agg_state(agg, A, fs, fv)
        except ChainLoweringError:
            del self.body[mark:]
            self._emit(f"{A}.advance(state, {fs}, {fv})")
        self._emit(f"{v} = {A}.value()")
        self._indent -= 1
        self._cur_maint = self.chain.maintained[id(agg)] = _MaintEntry(
            agg, flag
        )
        return v

    def _lower_agg_state(self, agg, A, fs, fv) -> None:
        """Inline one ``_AggregateState.advance`` (both modes), state
        authority staying in the interpreted object."""
        self._emit(f"{A}.now = _ts")
        qg = self._capture("QG", agg._qgate)
        qq = self._capture("QQ", agg.term.query)
        if agg.mode == "running":
            if agg.agg.name not in _RUNNING_FUNCS:
                raise ChainLoweringError(
                    f"unsupported running aggregate {agg.agg.name!r}"
                )
            ag = self._capture("G", agg.agg)
            self._emit(f"if {fs}:")
            self._emit(f"{ag}.reset()", 2)
            self._emit(f"{A}.started = True", 2)
            self._emit(f"{A}.poisoned = False", 2)
            t = self._local()
            self._emit(f"if {fv} and {A}.started:")
            self._emit(f"{t} = _gqv({qg}, {qq}, state)", 2)
            self._emit(f"if {t} is _U:", 2)
            self._emit(f"{A}.poisoned = True", 3)
            self._emit("else:", 2)
            self._lower_running_add(ag, agg.agg.name, t, 3)
            return
        # windowed: record, then value() evaluates lazily at read time.
        val = self._local()
        t = self._local()
        self._emit(f"{val} = None")
        self._emit(f"if {fv}:")
        self._emit(f"{t} = _gqv({qg}, {qq}, state)", 2)
        self._emit(f"if {t} is _U:", 2)
        self._emit(f"{A}.poisoned = True", 3)
        self._emit("else:", 2)
        self._emit(f"{val} = {t}", 3)
        self._emit(f"{A}.log.append((_ts, {fv}, {val}))")
        if agg.prunable:
            self._lower_window_prune(agg, A)

    def _lower_running_add(self, ag, name, t, indent) -> None:
        """Inline ``RunningAggregate.add`` for one sample."""
        self._emit(f"{ag}._count += 1", indent)
        if name in ("sum", "avg"):
            self._emit(f"{ag}._sum += {t}", indent)
        elif name in ("min", "max"):
            c = self._local()
            self._emit(f"{c} = {ag}._extremum", indent)
            self._emit(
                f"{ag}._extremum = {t} if {c} is None else {name}({c}, {t})",
                indent,
            )
        self._emit(f"{ag}._samples.append({t})", indent)

    def _lower_window_prune(self, agg, A) -> None:
        """Inline the monotone-window prune: drop log entries strictly
        below the latest start index (same backward scan and same
        ``j > 0`` guard as ``_AggregateState._prune``)."""
        start = agg.term.start
        right = start.right
        if isinstance(right, ast.Var):
            bound = "_ts"
        else:
            kc = self._capture("K", right.args[1].value)
            sign = "-" if right.func == "-" else "+"
            bound = f"(_ts {sign} {kc})"
        L = self._local()
        b = self._local()
        k = self._local()
        self._emit(f"{L} = {A}.log")
        self._emit(f"if {L}:")
        self._emit(f"{b} = {bound}", 2)
        self._emit(f"{k} = len({L}) - 1", 2)
        self._emit(f"while {k} >= 0 and not ({L}[{k}][0] {start.op} {b}):", 2)
        self._emit(f"{k} -= 1", 3)
        self._emit(f"if {k} > 0:", 2)
        self._emit(f"del {L}[:{k}]", 3)

    # -- assembly ------------------------------------------------------------

    def _assemble(self):
        lines = ["def _chain_step(state):", "    _ts = state.timestamp"]
        lines.extend(self.head)
        lines.extend(self.body)
        source = "\n".join(lines) + "\n"
        code = compile(source, "<ptl-compiled-chain>", "exec")
        exec(code, self.env)
        return self.env["_chain_step"], source

    def build_segment(self) -> None:
        """Compile this batch of new roots as one fresh segment appended
        to the chain (hot add patches: only the unshared suffix
        is lowered; everything already compiled is read from ``_V``)."""
        chain = self.chain
        new_slots: list[_Slot] = []
        for node in self._toposort(self.roots):
            self._cur_row = self._cur_maint = None
            self._lower_node(node)
            j = len(chain.slots)
            self._emit(f"_V[{j}] = {self.expr[id(node)]}")
            slot = _Slot(node, self._cur_row, self._cur_maint)
            chain.slots.append(slot)
            chain.slot_refs.append(0)
            chain._V.append(cs.CFALSE)
            chain.node_slot[id(node)] = j
            chain.n_nodes += 1
            new_slots.append(slot)
        fn, source = self._assemble()
        seg = _Segment(fn, self.env, source, len(new_slots), len(self._qslots))
        for slot in new_slots:
            slot.seg = seg
            for child in self._inc.children(slot.node):
                cj = chain.node_slot[id(child)]
                slot.children.append(cj)
                chain.slot_refs[cj] += 1
        chain.segments.append(seg)
        chain.temporal.extend(self.temporal_rows)
        chain.n_query_slots += len(self._qslots)
