"""Cross-backend conformance matrix — the single oracle every trigger
backend must pass.

Three rows evaluate the same PTL conditions — the reference semantics and
the one production backend with and without Section 8 filtering:

* ``naive`` — full-history re-evaluation per state (the reference
  semantics, :class:`repro.baselines.NaiveDetector` per rule);
* ``shared-plan`` — one :class:`~repro.ptl.plan.SharedPlan` with
  common-subformula elimination (the default);
* ``filtered`` — the same with ``relevance_filtering=True``: the manager
  skips a stateless event-gated rule (``@go``, ``@go & price > 50``) on
  a state without its event, and the plan computes no root for it there.

Each hypothesis-generated rule set × operation sequence runs on every
backend, and all backends must produce identical firings (rule,
bindings, state index, timestamp) and identical executed-relation
contents.

A fourth row, ``group-commit``, feeds the same operations through
``engine.batch()`` in chunks and adds one rule whose T-CA action posts an
event.  Those actions run when a batch is durable, so they append states
after the batch's own: this row's history differs from the others', and
each of its firings is checked against :mod:`repro.ptl.semantics` over
that engine's own history.  A fifth row judges integrity constraints:
every commit verdict — direct, or made by an action that commits once or
twice — is checked against the same semantics over the engine's history
plus the candidate.  Query plans and delta skipping are not cells: they are always
on in the incremental rows, and the naive row never consults a
:class:`~repro.query.plan.DeltaGate`.

The generated conditions are ``executed``-free: the naive backend
re-evaluates old states against the *current* executed store, which is
outside the paper's semantics for executed atoms.  Executed-coupled
conformance across the incremental backends is covered separately
below.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ActiveDatabase
from repro.errors import TransactionAborted
from repro.events import user_event
from repro.ptl import EvalContext, answers
from repro.rules.actions import RecordingAction
from repro.rules.manager import RuleManager
from repro.rules.rule import FireMode

from tests.helpers import NaiveRuleManager


BACKENDS = [
    ("naive", NaiveRuleManager),
    ("shared-plan", RuleManager),
    ("filtered", lambda e: RuleManager(e, relevance_filtering=True)),
]


# -- generated rule sets -----------------------------------------------------

#: Executed-free condition templates spanning the language: stateless
#: event-gated, stateless with negation, temporal (lasttime / bounded
#: previously / since), and an assignment binding.
TEMPLATES = [
    "@go",
    "@go & price > 50",
    "price > 30 & !@halt",
    "price > 50 & lasttime price <= 50",
    "previously[3] (price > 60)",
    "@go & (price > 10 since @go)",
    "[x := price] (x > 50 & @go)",
]

rule_sets = st.lists(
    st.tuples(
        st.integers(0, len(TEMPLATES) - 1),
        st.sampled_from([FireMode.ALWAYS, FireMode.RISING_EDGE]),
        st.integers(0, 2),  # priority
    ),
    min_size=1,
    max_size=4,
)

op_streams = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 100)),
        st.tuples(st.just("ev"), st.sampled_from(["go", "halt"])),
    ),
    min_size=4,
    max_size=10,
)


def run_backend(factory, rules, ops):
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    manager = factory(adb)
    for i, (template, fire_mode, priority) in enumerate(rules):
        manager.add_trigger(
            f"r{i}", TEMPLATES[template], RecordingAction(),
            fire_mode=fire_mode, priority=priority,
        )
    for op in ops:
        if op[0] == "set":
            adb.execute(lambda t, v=op[1]: t.set_item("price", v))
        else:
            adb.post_event(user_event(op[1]))
    manager.flush()
    sig = (
        [
            (f.rule, f.bindings, f.state_index, f.timestamp)
            for f in manager.firings
        ],
        manager.executed.to_state(),
    )
    manager.detach()
    return sig


@given(rules=rule_sets, ops=op_streams)
@settings(max_examples=100)  # 3 rows x 100 examples: ~0.6 s
def test_backends_agree(rules, ops):
    results = {
        name: run_backend(factory, rules, ops)
        for name, factory in BACKENDS
    }
    oracle = results["naive"]
    for name, sig in results.items():
        assert sig == oracle, (
            f"backend {name} diverged from the naive reference"
        )


# -- group commit: every firing against the oracle over its own history -------


def post_halt(ctx):
    ctx.engine.post_event(user_event("halt"))


def oracle_firings(states, name, condition, fire_mode) -> list:
    """``name``'s firings over ``states`` by the reference semantics."""
    out, previous = [], frozenset()
    for i, state in enumerate(states):
        current = frozenset(
            tuple(sorted(b.items())) for b in answers(states, i, condition)
        )
        new = current
        if fire_mode is FireMode.RISING_EDGE:
            new = current - previous
        previous = current
        out.extend((name, b, i, state.timestamp) for b in new)
    return out


@given(rules=rule_sets, ops=op_streams, chunk=st.integers(1, 4))
@example(  # the action's @halt state comes after the batch's @set 60
    rules=[(3, FireMode.ALWAYS, 0)], ops=[("ev", "go"), ("set", 60)], chunk=2
)
@settings(max_examples=100)
def test_group_commit_row_agrees_with_the_oracle(rules, ops, chunk):
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    manager = RuleManager(adb)
    specs = []
    for i, (template, fire_mode, priority) in enumerate(rules):
        rule = manager.add_trigger(
            f"r{i}", TEMPLATES[template], RecordingAction(),
            fire_mode=fire_mode, priority=priority,
        )
        specs.append((rule, fire_mode))
    specs.append((manager.add_trigger("post", "@go", post_halt), None))
    for start in range(0, len(ops), chunk):
        with adb.batch():
            for op in ops[start:start + chunk]:
                if op[0] == "set":
                    adb.execute(lambda t, v=op[1]: t.set_item("price", v))
                else:
                    adb.post_event(user_event(op[1]))
    manager.flush()
    states = adb.history.states
    assert len(states) == len(ops) + sum(op == ("ev", "go") for op in ops)
    expected = []
    for rule, fire_mode in specs:
        expected += oracle_firings(
            states, rule.name, rule.condition, fire_mode
        )
    got = [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings
    ]
    assert sorted(got, key=repr) == sorted(expected, key=repr)


# -- integrity constraints: every commit verdict against the oracle ----------

#: IC templates: stateless, ``lasttime``, and two reading the executions of
#: the trigger ``one`` (a price of 1), one of them time-bounded.
IC_TEMPLATES = [
    "price <= 90",
    "!(price = 2 & lasttime price = 1)",
    "!(price = 2 & executed(one, t))",
    "!(price > 50 & executed(one, t) & time <= t + 2)",
]

ic_prices = st.sampled_from([1, 2, 30, 60, 95])

#: ``("set", p)`` commits a price directly; ``("go", [p, ...])`` posts
#: ``@go``, whose action commits each price in turn (once or twice).
ic_streams = st.lists(
    st.one_of(
        st.tuples(st.just("set"), ic_prices),
        st.tuples(st.just("go"), st.lists(ic_prices, min_size=1, max_size=2)),
    ),
    min_size=2,
    max_size=8,
)


def commit_price(engine, price) -> None:
    try:
        engine.execute(lambda t: t.set_item("price", price))
    except TransactionAborted:
        pass


@given(
    ics=st.lists(
        st.integers(0, len(IC_TEMPLATES) - 1), min_size=1, max_size=3,
        unique=True,
    ),
    ops=ic_streams,
)
@example(ics=[2], ops=[("go", [1, 2])])  # the cascade reads one's record
@settings(max_examples=100)
def test_ic_row_verdicts_agree_with_the_oracle(ics, ops):
    """Each commit candidate is vetoed exactly when some IC condition
    (``attempts_to_commit(X) & !c``) holds at it by
    :mod:`repro.ptl.semantics`, over the engine's history up to it plus
    the candidate — whether it was committed directly or by an action."""
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    manager = RuleManager(adb)
    one = manager.add_trigger("one", "price = 1", RecordingAction())
    queued = []

    def commit_queued(ctx):
        while queued:
            commit_price(ctx.engine, queued.pop(0))

    manager.add_trigger("go", "@go", commit_queued)
    constraints = [
        manager.add_integrity_constraint(f"ic{i}", IC_TEMPLATES[i])
        for i in ics
    ]
    candidates = []
    adb.add_commit_validator(lambda c, txn: candidates.append(c) or [])
    for op in ops:
        if op[0] == "set":
            commit_price(adb, op[1])
        else:
            queued.extend(op[1])
            adb.post_event(user_event("go"))
    manager.flush()
    states = adb.history.states
    ctx = EvalContext(executed=manager.executed)
    assert len(candidates) == sum(
        1 if op[0] == "set" else len(op[1]) for op in ops
    )
    for candidate in candidates:
        i = candidate.index
        prefix = [*states[:i], candidate]
        vetoed = any(answers(prefix, i, ic.condition, ctx) for ic in constraints)
        assert vetoed is (states[i] is not candidate), (
            f"candidate #{i} (price {candidate.db.item('price')})"
        )
    assert [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings_of("one")
    ] == oracle_firings(states, "one", one.condition, FireMode.ALWAYS)


# -- executed-coupled conformance (incremental backends only) ---------------

def register_executed_coupled(manager):
    manager.add_trigger(
        "spike", "price > 50", RecordingAction(),
        fire_mode=FireMode.RISING_EDGE,
    )
    manager.add_trigger(
        "follow", "executed(spike, t) & time <= t + 4",
        RecordingAction(), params=("t",),
    )
    return manager


EXEC_OPS = [
    ("set", 20), ("set", 60), ("ev", "go"), ("set", 40),
    ("set", 80), ("set", 55), ("ev", "go"), ("set", 90),
]


def test_executed_coupling_agrees_across_incremental_backends():
    results = {}
    for name, factory in BACKENDS:
        if name == "naive":
            continue
        adb = ActiveDatabase()
        adb.declare_item("price", 0)
        manager = register_executed_coupled(factory(adb))
        for op in EXEC_OPS:
            if op[0] == "set":
                adb.execute(lambda t, v=op[1]: t.set_item("price", v))
            else:
                adb.post_event(user_event(op[1]))
        manager.flush()
        results[name] = (
            [
                (f.rule, f.bindings, f.state_index, f.timestamp)
                for f in manager.firings
            ],
            manager.executed.to_state(),
        )
        manager.detach()
    oracle = results["shared-plan"]
    assert any(r[0] == "follow" for r in oracle[0])  # coupling exercised
    for name, sig in results.items():
        assert sig == oracle, f"backend {name} diverged"
