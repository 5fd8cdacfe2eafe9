"""E9 — the execution model (Section 8).

Two optimizations the paper sketches for the temporal component:

* **relevance filtering**: "whenever an event occurs, the temporal
  component considers only the relevant triggers" — measured as
  throughput and evaluation counts with many event-guarded rules;
* **batched invocation**: "the temporal component invocation can be
  executed for multiple events at the same time.  The only implication
  ... is that trigger firing may be delayed, but not go unrecognized" —
  measured as firing delay (in states) vs batch size, with identical
  total firings.
"""

import random

from conftest import report

from repro.bench import Table, time_best
from repro.engine import ActiveDatabase
from repro.events import user_event
from repro.rules import RecordingAction, RuleManager

N_RULES = 150
N_EVENTS = 400


def build_engine():
    return ActiveDatabase(start_time=0)


def run_filtering(filtering: bool):
    adb = build_engine()
    # the rules are stateless and event-gated: with filtering the manager
    # reads one rule per event and the plan computes that rule's root only
    manager = RuleManager(adb, relevance_filtering=filtering)
    actions = []
    for k in range(N_RULES):
        action = RecordingAction()
        actions.append(action)
        manager.add_trigger(f"watch_{k}", f"@evt_{k}(u)", action, params=("u",))
    rng = random.Random(3)
    for i in range(N_EVENTS):
        k = rng.randrange(N_RULES)
        adb.post_event(user_event(f"evt_{k}", f"p{i}"), at_time=i + 1)
    evaluations = sum(
        manager.stats_of(f"watch_{k}").evaluations for k in range(N_RULES)
    )
    firings = len(manager.firings)
    return evaluations, firings


def test_e9_relevance_filtering(benchmark):
    t_filtered = benchmark.pedantic(
        lambda: time_best(lambda: run_filtering(True), 1),
        rounds=1,
        iterations=1,
    )
    t_unfiltered = time_best(lambda: run_filtering(False), 1)
    ev_f, fire_f = run_filtering(True)
    ev_u, fire_u = run_filtering(False)

    table = Table(
        f"E9: relevance filtering with {N_RULES} event-guarded rules, "
        f"{N_EVENTS} events",
        ["mode", "rule evaluations", "firings", "total time (s)"],
    )
    table.add_row("filtered (Section 8)", ev_f, fire_f, t_filtered)
    table.add_row("unfiltered", ev_u, fire_u, t_unfiltered)
    report(table)

    assert fire_f == fire_u == N_EVENTS
    # each event is relevant to exactly one rule
    assert ev_f == N_EVENTS
    assert ev_u == N_RULES * N_EVENTS
    assert t_filtered < t_unfiltered


def test_e9_batched_invocation(benchmark):
    def compute():
        rows = []
        for batch in (1, 8, 32, 128):
            adb = build_engine()
            manager = RuleManager(adb, batch_size=batch)
            action = RecordingAction()
            manager.add_trigger("ping_watch", "@ping(u)", action, params=("u",))
            worst_delay = 0
            for i in range(N_EVENTS):
                adb.post_event(user_event("ping", f"p{i}"), at_time=i + 1)
                processed = len(manager.firings)
                worst_delay = max(worst_delay, (i + 1) - processed)
            manager.flush()
            rows.append((batch, len(manager.firings), worst_delay))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    table = Table(
        "E9b: batched invocation — delayed, never lost",
        ["batch size", "total firings", "worst backlog (events)"],
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    # identical firings regardless of batch size
    assert len({r[1] for r in rows}) == 1
    # backlog grows with the batch size
    delays = [r[2] for r in rows]
    assert delays[0] == 0
    assert delays == sorted(delays)
    assert delays[-1] >= 127
