"""Rule-manager introspection and remaining edge cases."""

import pytest

from repro.errors import UnknownRuleError
from repro.events import user_event
from repro.rules import RecordingAction, RuleManager
from repro.workloads import apply_tick, make_stock_db


@pytest.fixture
def setup():
    adb = make_stock_db([("IBM", 40.0)])
    return adb, RuleManager(adb)


def test_total_state_size_tracks_rules(setup):
    adb, manager = setup
    assert manager.total_state_size() == 0
    manager.add_trigger(
        "w", "previously price(IBM) > 45", RecordingAction()
    )
    apply_tick(adb, "IBM", 50.0, at_time=1)
    assert manager.total_state_size() >= 1


def test_stats_of_unknown_rule(setup):
    _, manager = setup
    with pytest.raises(UnknownRuleError):
        manager.stats_of("ghost")
    # firings_of filters the log; unknown rules simply have none
    assert manager.firings_of("ghost") == []


def test_firing_log_reads_back_every_firing():
    """A run of firings shares one state record, the ids outgrow two
    bytes, and a read may start anywhere, before or after the last."""
    from repro.rules.rule import FiringLog, FiringRecord

    log, want = FiringLog(), []

    def append(i):
        rule, bindings, state = f"r{i % 5}", (("x", i),), i // 3
        # Varints of every width and sign: a timestamp may go back.
        ts = 10 * state if state % 50 else -(2**40) - state
        log.append(rule, bindings, state, ts, shadow=i % 7 == 0)
        want.append(FiringRecord(rule, bindings, state, ts, i % 7 == 0))

    for i in range(66_000):
        append(i)
    assert log._rows.typecode == "I"
    assert len(log) == len(want) and list(log) == want
    for start in (65_998, 2, 66_000, 65_536, -4, 40_001):
        assert log.records(start) == want[start:]
    for i in range(66_000, 66_010):
        append(i)
    assert log.records(66_000) == want[66_000:]
    assert log.records_of("r3") == [f for f in want if f.rule == "r3"]


def test_firing_log_reads_back_each_bindings_type():
    """Equal bindings of other types (``1``, ``1.0``, ``True``; ``0.0``
    and ``-0.0``) read back as they were appended."""
    from repro.rules.rule import FiringLog

    log = FiringLog()
    values = [1, 1.0, True, 0.0, -0.0, 1, -0.0]
    for i, value in enumerate(values):
        log.append("r", (("x", value),), i, i)
    assert [repr(f.bindings[0][1]) for f in log] == [repr(v) for v in values]


def test_rule_names_lists_both_kinds(setup):
    adb, manager = setup
    manager.add_trigger("t1", "@ping", RecordingAction())
    manager.add_integrity_constraint("ic1", "price(IBM) <= 100")
    assert manager.rule_names() == ["ic1", "t1"]


def test_ic_stats_track_evaluations(setup):
    adb, manager = setup
    manager.add_integrity_constraint("cap", "price(IBM) <= 100")
    apply_tick(adb, "IBM", 50.0, at_time=1)
    apply_tick(adb, "IBM", 60.0, at_time=2)
    assert manager.stats_of("cap").evaluations == 2


def test_states_seen_counter(setup):
    adb, manager = setup
    adb.post_event(user_event("a"), at_time=1)
    adb.post_event(user_event("b"), at_time=2)
    assert manager.states_seen == 2


def test_two_managers_coexist(setup):
    adb, manager = setup
    other = RuleManager(adb)
    a1, a2 = RecordingAction(), RecordingAction()
    manager.add_trigger("m1", "@ping", a1)
    other.add_trigger("m2", "@ping", a2)
    adb.post_event(user_event("ping"))
    assert len(a1.calls) == len(a2.calls) == 1
