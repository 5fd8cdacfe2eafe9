#!/usr/bin/env python
"""Stock monitoring: the paper's Sections 1, 4 and 6 scenarios end to end.

* a condition mixing an event interval and a database predicate: "the
  price of IBM stays above 50 while user X is logged in" (Section 4.3's
  login/logout pattern);
* a free-variable rule over *all* stocks via domains (Section 6.1.1's
  indexing): any stock that doubled within 10 units;
* temporal aggregates: the moving hourly average (Section 6), its
  accumulator maintained on the rule manager's one condition plan;
* the Dow-Jones condition from the introduction: "the index fell more
  than 250 points in the last 2 hours".

The whole run executes with the observability layer on: per-rule firing
counters and evaluation-latency histograms, and the plan's size gauges,
are printed at the end, together with a structured trace of one firing and its
explanation.

Run:  python examples/stock_monitor.py
"""

from repro.events import user_event
from repro.rules import FireMode, RuleManager
from repro.workloads import (
    apply_tick,
    dow_jones_trace,
    make_stock_db,
)


def main() -> None:
    adb = make_stock_db(
        [("IBM", 60.0), ("XYZ", 40.0), ("OIL", 80.0)], metrics=True
    )
    adb.declare_item("DOW", 10_000.0)
    rules = RuleManager(adb, trace=True)

    log: list[str] = []

    def report(label):
        def action(ctx):
            log.append(
                f"t={ctx.state.timestamp:>4}  {label}  {dict(ctx.bindings)}"
            )

        return action

    # -- 1. event + state interval condition -------------------------------
    rules.add_trigger(
        "ibm_high_while_x_logged_in",
        "price(IBM) > 50 & (!@user_logout('X') since @user_login('X'))",
        report("IBM above 50 while X is logged in"),
        fire_mode=FireMode.RISING_EDGE,
    )

    # -- 2. free-variable rule over all stocks -----------------------------
    rules.add_trigger(
        "any_stock_doubled",
        "[t := time] [x := price($s)] "
        "previously (price($s) <= 0.5 * x & time >= t - 10)",
        report("stock doubled within 10 units"),
        params=("s",),
        domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
    )

    # -- 3. temporal aggregate: moving hourly average ------------------------
    cond = (
        "[u := time] avg(price(IBM); time <= u - 60; @update_stocks) < 45"
    )
    rules.add_trigger(
        "ibm_hourly_avg_low",
        cond,
        report("IBM hourly average below 45"),
        fire_mode=FireMode.RISING_EDGE,
    )

    # -- 4. the introduction's Dow-Jones condition ----------------------------
    rules.add_trigger(
        "dow_crash",
        "[d := DOW] previously[120] (DOW >= d + 250)",
        report("Dow fell more than 250 points within 2 hours"),
        fire_mode=FireMode.RISING_EDGE,
    )

    # -- drive the scenario ---------------------------------------------------
    adb.post_event(user_event("user_login", "X"), at_time=5)
    apply_tick(adb, "IBM", 62.0, at_time=10)     # high while logged in
    apply_tick(adb, "XYZ", 85.0, at_time=14)     # XYZ doubled (40 -> 85)
    adb.post_event(user_event("user_logout", "X"), at_time=20)
    apply_tick(adb, "IBM", 40.0, at_time=30)

    # an hour of low prices drags the moving average down
    for k, ts in enumerate(range(40, 140, 10)):
        apply_tick(adb, "IBM", 40.0 + (k % 3), at_time=ts)

    # a Dow crash within two hours
    def set_dow(value, ts):
        txn = adb.begin()
        txn.set_item("DOW", value)
        txn.commit(ts)

    set_dow(9_980.0, 150)
    set_dow(9_690.0, 200)  # fell 290 within 50 minutes

    print("\n".join(log))

    by_rule = {}
    for f in rules.firings:
        by_rule.setdefault(f.rule, []).append(f.timestamp)
    # fires at the login state itself: the price is already above 50
    assert by_rule["ibm_high_while_x_logged_in"] == [5]
    # XYZ doubled at t=14 and is still double its 10-units-ago price at 20
    assert by_rule["any_stock_doubled"] == [14, 20]
    assert ("s", "XYZ") in rules.firings_of("any_stock_doubled")[0].bindings
    # an hour of prices at 40-42 drags the moving average below 45
    assert by_rule["ibm_hourly_avg_low"] == [80]
    assert by_rule["dow_crash"] == [200]
    print("\nall monitor assertions hold")

    # -- observability: what the run looked like from the outside -------------
    registry = adb.metrics
    print("\nper-rule metrics:")
    for counter in registry.find("rule_firings_total"):
        rule = dict(counter.labels)["rule"]
        lat = registry.value("rule_eval_seconds", rule=rule)
        p50 = f"{lat['p50'] * 1e6:7.1f}us" if lat else "      --"
        print(f"  {rule:<32} fired={counter.value:<3} eval p50={p50}")
    print(
        f"plan: {registry.value('plan_distinct_nodes')} distinct nodes, "
        f"state size {registry.value('plan_state_size')}"
    )
    print(
        f"engine: {registry.value('engine_states_total')} states, "
        f"{registry.value('engine_commits_total')} commits, "
        f"{registry.value('bus_delivery_total')} bus deliveries"
    )

    from repro.obs import FIRING

    firing_events = rules.trace.events(FIRING)
    first = firing_events[0]
    print(f"\nfirst firing trace event: {first.to_dict()}")
    explanation = rules.explain_firing(rules.firings[0], rendered=True)
    print(f"\nwhy it fired:\n{explanation}")
    assert registry.value("rule_firings_total", rule="dow_crash") == 1
    assert len(firing_events) == len(rules.firings)


if __name__ == "__main__":
    main()
