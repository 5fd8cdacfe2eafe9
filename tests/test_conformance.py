"""Cross-backend conformance matrix — the single oracle every trigger
backend must pass.

Three rows evaluate the same PTL conditions — the reference semantics and
two groupings of the one production backend:

* ``naive`` — full-history re-evaluation per state (the reference
  semantics, :class:`repro.baselines.NaiveDetector` per rule);
* ``unshared`` — one private one-rule plan per rule
  (``shared_plan=False``: the same code as ``shared-plan`` with no
  sharing across rules);
* ``shared-plan`` — one :class:`~repro.ptl.plan.SharedPlan` with
  common-subformula elimination (the default).

Each hypothesis-generated rule set × operation sequence runs on every
backend, and all backends must produce identical firings (rule,
bindings, state index, timestamp) and identical executed-relation
contents.  Query plans and delta skipping are not cells: they are always
on in the incremental rows, and the naive row never consults a
:class:`~repro.query.plan.DeltaGate`.

The generated conditions are ``executed``-free: the naive backend
re-evaluates old states against the *current* executed store, which is
outside the paper's semantics for executed atoms.  Executed-coupled
conformance across the incremental backends is covered separately
below.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NaiveDetector
from repro.engine import ActiveDatabase
from repro.events import user_event
from repro.ptl.context import EvalContext
from repro.rules.actions import RecordingAction
from repro.rules.manager import RuleManager
from repro.rules.rule import FireMode


class NaiveRuleManager(RuleManager):
    """A rule manager whose per-rule evaluators re-run the reference
    (offline) semantics over the full retained history."""

    def __init__(self, engine, **kwargs):
        kwargs["shared_plan"] = False
        super().__init__(engine, **kwargs)

    def add_trigger(self, name, condition, action, **kwargs):
        rule = super().add_trigger(name, condition, action, **kwargs)
        reg = self._rules[name]
        reg.evaluator = NaiveDetector(
            reg.rule.condition, EvalContext(executed=self.executed)
        )
        return rule


BACKENDS = [
    ("naive", NaiveRuleManager),
    ("unshared", lambda e: RuleManager(e, shared_plan=False)),
    ("shared-plan", lambda e: RuleManager(e, shared_plan=True)),
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
