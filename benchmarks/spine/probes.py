"""Child-side probes: the process's own cost and the program's public counters.

Everything the benchmark reports besides span times and stopwatch
latencies comes from here: CPU and RSS of the child itself,
``RuleManager.stats_of``, the shared plan's
``distinct_nodes``/``state_size``/``compiled_ops`` and
``repro.query.plan.STATS`` — public surface only, nothing private.
"""

from __future__ import annotations

import hashlib
import resource


def firing_rows(manager) -> list:
    return [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings
    ]


def digest(rows) -> str:
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode())
    return sha.hexdigest()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def plan_counters(manager) -> dict:
    plan = manager.plan
    evaluations = skips = firings = 0
    for name in manager.rule_names():
        stats = manager.stats_of(name)
        evaluations += stats.evaluations
        skips += stats.skips
        firings += stats.firings
    return {
        "ptl.plan_nodes": plan.distinct_nodes(),
        "ptl.dedup_ratio": plan.dedup_ratio(),
        "ptl.state_size": plan.state_size(),
        "ptl.compiled_ops": plan.compiled_ops(),
        "rules.firings": firings,
        "rules.skip_ratio": skips / evaluations if evaluations else 0.0,
    }


def query_counters() -> dict:
    from repro.query.plan import STATS

    s = STATS.snapshot()
    atoms = s["atoms_skipped"] + s["atoms_evaluated"]
    lookups = s["cache_hits"] + s["cache_misses"]
    return {
        "query.atoms_skipped_ratio": s["atoms_skipped"] / atoms if atoms else 0.0,
        "query.plan_cache_hit_ratio": s["cache_hits"] / lookups if lookups else 0.0,
        "query.hash_join_execs": s["hash_join_execs"],
        "query.scan_execs": s["scan_execs"],
    }


def peak_rss_kb() -> int:
    """This process's own high-water RSS.  Not ``ru_maxrss``: Linux folds
    the forking parent's high-water mark into it across ``exec``, so a
    child of a 100 MB driver would never report less than 100 MB."""
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
