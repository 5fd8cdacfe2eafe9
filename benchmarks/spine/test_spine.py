"""Tests of the measurement spine itself (``pytest benchmarks/spine``; not
part of tier-1, whose ``testpaths`` is ``tests/``).

* the generators are deterministic: same seed, byte-identical op streams
  and rule texts; another seed, another stream;
* the root ``BENCHMARK.json`` declares exactly the catalogue in
  ``metrics.py``;
* a ``--scale 0.05`` smoke of all four workloads, both passes, finishes
  in under 20 s with no failure and a finite value for every metric.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spine import metrics
from spine import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = wl.stream_bytes(workload, 11, 0.1)
    assert first == wl.stream_bytes(workload, 11, 0.1)
    assert first != wl.stream_bytes(workload, 12, 0.1)


def test_streams_do_not_depend_on_the_process():
    """Seeding must not go through ``hash()`` (salted per process)."""
    script = (
        "import sys, hashlib; sys.path.insert(0, sys.argv[1]);"
        "from spine import workloads as wl;"
        "print(hashlib.sha256(b''.join(wl.stream_bytes(w, 11, 0.1) "
        "for w in wl.WORKLOADS)).hexdigest())"
    )
    here = hashlib.sha256(
        b"".join(wl.stream_bytes(w, 11, 0.1) for w in wl.WORKLOADS)
    ).hexdigest()
    there = subprocess.run(
        [sys.executable, "-c", script, str(HERE.parent)],
        capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": "12345"},
    ).stdout.strip()
    assert here == there


def test_rule_texts_follow_the_seed():
    assert wl.dense_triggers(11) == wl.dense_triggers(11)
    assert wl.dense_triggers(11) != wl.dense_triggers(12)
    assert len(wl.dense_triggers(11)) == wl.DENSE_TRIGGERS


def test_scale_is_one_common_factor():
    full = [wl.inputs_for(w, 11, 1.0).total_ops for w in wl.WORKLOADS]
    assert full == [8000, 12000, wl.DENSE_OPS, 4000]
    half = [wl.inputs_for(w, 11, 0.5).total_ops for w in wl.WORKLOADS]
    assert half == [n // 2 for n in full]


def test_benchmark_json_declares_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["benchmarks/spine"]
    assert declared["command"] == ["python3", "benchmarks/spine/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"] == wl.WHY[w["name"]] and len(w["why"]) <= 200
    bounds = {row[0]: row[1:4] for row in metrics.END_TO_END}
    assert [m["name"] for m in declared["end_to_end"]] == list(metrics.GATED)
    for m in declared["end_to_end"]:
        assert (m["unit"], m["better"], m["bound"]) == bounds[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert len(declared["per_layer"]) <= 128


def test_smoke_all_workloads_both_passes(tmp_path):
    out = tmp_path / "report.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05",
         "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 20, f"smoke took {elapsed:.1f} s"
    reports = json.loads(out.read_text())["sets"][0]
    assert [r["workload"] for r in reports] == list(wl.WORKLOADS)
    for report in reports:
        assert report["e2e"]["failed_ratio"] == 0 and not report["failures"]
        for name, _, _, _, where in metrics.END_TO_END:
            if report["workload"] in where:
                assert metrics.finite(report["e2e"][name]), name
        for name, _, _ in metrics.PER_LAYER:
            assert metrics.finite(report["layers"]["metrics"][name]), name
    # The contract's last line: one JSON object per (workload, pass).
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
