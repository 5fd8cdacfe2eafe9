"""The Section 5 optimization: pruning doomed time-bounded clauses.

"Suppose g has a clause of the form t <= c where t is a free variable in g,
c is a constant, and t is assigned the value of time ... If the value of
time in s_i is greater than c, then it clearly is the case that the clause
t <= c will never get satisfied in the future.  In this case, we can
replace the clause t <= c by the constant false and simplify the formula."

Because timestamps strictly increase, a variable assigned from the ``time``
item is only ever substituted with values > now in future steps; any atom
``t <= c`` / ``t < c`` / ``t = c`` with ``now >= c`` is therefore
unsatisfiable from now on and collapses to false.  "The above method
applied to triggers formed using only bounded temporal operators allows us
to keep only bounded information from the past history" — benchmark E4
measures exactly that.

Polarity rules
--------------
The paper states the rule for positively-occurring deadline atoms.  Under
negation the *dual* applies, and getting it wrong either breaks soundness
(collapsing a still-live clause) or bounded memory (keeping a settled one
forever).  The rules, for a time variable ``t`` and constant ``c`` with
``now >= c``:

* ``t <= c``, ``t < c``, ``t = c`` (:data:`_DOOMED_OPS`) → **false**: every
  future binding of ``t`` exceeds ``c``, so the atom can never hold again.
* ``t > c``, ``t >= c``, ``t != c`` (:data:`_SETTLED_OPS`) → **true**: every
  future binding satisfies it unconditionally.  These atoms are exactly the
  negations of the doomed ones, and they *must* be settled to true — a
  bounded ``throughout_past[w] f`` desugars to
  ``!(previously[w] !f) = !([u:=time](true since (!f & time >= u - w)))``,
  and :func:`repro.ptl.constraints.cnot` pushes the outer negation into the
  atoms, flipping each doomed ``t <= c`` into a settled ``t > c``.  Pruning
  only the doomed polarity would leave the negated window's tail growing
  without bound.

Two structural invariants make the atom-level rewrite sufficient:

* :func:`~repro.ptl.constraints.cnot` pushes negation into atoms on
  construction, so stored state formulas contain no ``CNot`` above a
  deadline atom — each atom's surface operator already reflects its
  polarity.  (The ``CNot`` branch below is defensive: pruning inside a
  residual negation is sound precisely because doomed→false and
  settled→true are duals — ``!false = true`` lands on the settled rule and
  vice versa.)
* :func:`~repro.ptl.constraints.catom` normalizes atoms to
  ``var <op> const`` form, so a deadline written ``c >= t`` is matched too.

Both polarities are exercised by the bounded-memory tests: pruning disabled
must violate the growth bound, enabled must stay flat (E4 and
``tests/test_bounded_memory.py``).
"""

from __future__ import annotations

from typing import AbstractSet

from repro.ptl import constraints as cs

_INF = float("inf")


def _min_deadline(c: cs.C) -> float:
    """Smallest constant among deadline-shaped atoms (``var <op> number``)
    anywhere in ``c`` — the earliest clock value at which pruning could
    possibly change the formula.  Cached on the hash-consed node, so the
    per-step prune pass degenerates to one comparison for formulas whose
    deadlines are all in the future (or absent)."""
    if isinstance(c, cs.CBool):
        return _INF
    md = c._mdl
    if md is None:
        if isinstance(c, cs.CAtom):
            if (
                isinstance(c.left, cs.SVar)
                and isinstance(c.right, cs.SConst)
                and cs._is_number(c.right.value)
            ):
                md = c.right.value
            else:
                md = _INF
        elif isinstance(c, (cs.CAnd, cs.COr)):
            md = min(_min_deadline(x) for x in c.operands)
        elif isinstance(c, cs.CNot):
            md = _min_deadline(c.operand)
        else:
            md = _INF
        c._mdl = md
    return md

#: Comparison operators whose ``time_var <op> const`` atom is doomed once
#: the clock passes the constant.
_DOOMED_OPS = frozenset({"<=", "<", "="})
#: ... and those that become tautological (their negations): pruning them to
#: true collapses bounded ``throughout_past`` windows, whose desugaring
#: nests the deadline atom under a negation.
_SETTLED_OPS = frozenset({">", ">=", "!="})


def prune_time_bounds(
    c: cs.C, now: int, time_vars: AbstractSet[str]
) -> cs.C:
    """Replace doomed deadline atoms with false and re-simplify.

    ``time_vars`` are the variables assigned from the ``time`` data item
    (detected at compile time); ``now`` is the current timestamp, i.e. all
    future bindings of those variables are strictly greater.
    """
    if not time_vars:
        return c
    if isinstance(c, cs.CBool):
        return c
    if _min_deadline(c) > now:
        # No deadline anywhere in the formula has been reached yet:
        # nothing can prune, skip the rebuild entirely.
        return c
    if isinstance(c, cs.CAtom):
        if (
            isinstance(c.left, cs.SVar)
            and c.left.name in time_vars
            and isinstance(c.right, cs.SConst)
            and cs._is_number(c.right.value)
            and now >= c.right.value
        ):
            # Future bindings of the variable are strictly greater than
            # ``now``, hence strictly greater than the constant.
            if c.op in _DOOMED_OPS:
                return cs.CFALSE
            if c.op in _SETTLED_OPS:
                return cs.CTRUE
        return c
    if isinstance(c, cs.CAnd):
        ops = [prune_time_bounds(x, now, time_vars) for x in c.operands]
        same = bools_only = True
        for a, b in zip(ops, c.operands):
            if a is b:
                continue
            same = False
            if isinstance(a, cs.CBool):
                if not a.value:
                    return cs.CFALSE
            else:
                bools_only = False
        if same:
            return c
        if bools_only:
            # The typical prune: some operands collapsed to constants, the
            # rest are untouched.  Survivors are a subsequence of an
            # operand tuple :func:`~repro.ptl.constraints.cand` already
            # flattened, deduplicated, and complement-checked, so those
            # properties still hold and the general rebuild is skipped.
            kept = tuple(b for a, b in zip(ops, c.operands) if a is b)
            if not kept:
                return cs.CTRUE
            if len(kept) == 1:
                return kept[0]
            return cs._intern(cs.CAnd, kept)
        return cs.cand(ops)
    if isinstance(c, cs.COr):
        ops = [prune_time_bounds(x, now, time_vars) for x in c.operands]
        same = bools_only = True
        for a, b in zip(ops, c.operands):
            if a is b:
                continue
            same = False
            if isinstance(a, cs.CBool):
                if a.value:
                    return cs.CTRUE
            else:
                bools_only = False
        if same:
            return c
        if bools_only:
            # Dual of the CAnd fast path above: drop collapsed-to-false
            # disjuncts, keep the untouched canonical subsequence.
            kept = tuple(b for a, b in zip(ops, c.operands) if a is b)
            if not kept:
                return cs.CFALSE
            if len(kept) == 1:
                return kept[0]
            return cs._intern(cs.COr, kept)
        return cs.cor(ops)
    if isinstance(c, cs.CNot):
        inner = prune_time_bounds(c.operand, now, time_vars)
        if inner is c.operand:
            return c
        return cs.cnot(inner)
    return c
