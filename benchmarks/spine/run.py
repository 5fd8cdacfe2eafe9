#!/usr/bin/env python3
"""The measurement spine: four workloads, end to end and layer by layer.

    python3 benchmarks/spine/run.py                       # everything
    python3 benchmarks/spine/run.py --workload rules_dense --seed 7
    python3 benchmarks/spine/run.py --agree               # two sets must agree
    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the one the root ``BENCHMARK.json`` declares: one
workload and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (``--trace 0``: the
end-to-end metrics; ``--trace 1``: the per-layer ones).  The untraced
repeats always run, and every end-to-end number comes from them; unless
``--trace 0`` one traced repeat follows (per-layer numbers, stage table).

The system under test always runs in a child process on its default
production path — every ``REPRO_*`` variable is scrubbed, no backend
switch is passed.  Every workload is a closed loop; a repeat is a fresh
child on a fresh root directory; repeats go on until ``--seconds`` of
timed phase have been measured (at least three); every reported value is
the median over repeats with the min-max spread beside it.  See the
README next to this file for the why of every choice.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[0] = str(HERE.parent)  # the benchmark's modules: package ``spine``
sys.path.insert(1, str(ROOT / "src"))  # the oracles replay on ``repro``

from spine import loadgen, metrics, oracle, probes, trace  # noqa: E402
from spine import workloads as wl  # noqa: E402

now = time.perf_counter

#: Common shrink factor on ISSUE 11's op counts, so that the contract's
#: 4 + 22 x 4 runs of >= 3 repeats each fit its 57 minutes (README,
#: "What the builder's contract changed").
DEFAULT_SCALE = 0.5
DEFAULT_SECONDS = 16
MIN_REPEATS = 3
#: Scratch roots (WAL, checkpoints, segments, sockets) live inside the
#: checkout; relative paths keep the unix socket under the 108-byte limit.
TMP_PARENT = ".spine_tmp"
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The default production path: no ``REPRO_*`` switch, and bytecode
    caching on — a sandbox that sets ``PYTHONDONTWRITEBYTECODE`` would
    have every set-up compile all of ``repro`` (0.35 s against 0.15 s),
    which users pay once, not per start."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """A system-under-test process: scrubbed environment, line protocol on
    its pipes, always killed and reaped."""

    def __init__(self, script: str, args: list, root: Path):
        self.stderr_path = root / "stderr.log"
        self._stderr = open(self.stderr_path, "wb")
        self.spawned = now()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, env=child_env(), cwd=ROOT, bufsize=0,
        )
        self._buffer = b""

    def readline(self, timeout: float = CHILD_TIMEOUT) -> str:
        deadline = now() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - now()))
            chunk = os.read(fd, 1 << 16) if ready else b""
            if not chunk:
                self.kill()
                tail = self.stderr_path.read_text(errors="replace")[-2000:]
                why = "exited" if ready else f"silent for {timeout:.0f} s"
                raise ChildFailed(f"child {why}; stderr tail:\n{tail}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def ready(self) -> list:
        """Wait for ``READY [fields...]``."""
        line = self.readline().split()
        if line[:1] != ["READY"]:
            raise ChildFailed(f"expected READY, got {line}")
        self.setup_wall = now() - self.spawned
        return line[1:]

    def ask(self, command: str) -> dict:
        self.proc.stdin.write((command + "\n").encode())
        return json.loads(self.readline())

    def kill(self) -> None:
        """SIGKILL (crash semantics, not a close) and reap.  What a dying
        server prints on stderr (asyncio ``CancelledError`` noise) is
        ignored, not fixed: that is ``src/``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self._stderr):
            pipe.close()


def disk_bytes(root: Path) -> int:
    """WAL + checkpoints + segments under ``root``."""
    skip = {"stderr.log", "spans.json", "serve.sock"}
    return sum(
        f.stat().st_size
        for f in root.rglob("*")
        if f.is_file() and f.name not in skip
    )


# ---------------------------------------------------------------------------
# One repeat
# ---------------------------------------------------------------------------


def served_repeat(inputs, root: Path, traced: bool) -> dict:
    args = ["--root", os.path.relpath(root, ROOT)]
    if traced:
        args += ["--trace", os.path.relpath(root / "spans.json", ROOT)]
    child = Child("sut_server.py", args, root)
    try:
        sock = child.ready()[0]
        stamps = {}

        def on_ready():
            stamps["setup_s"] = now() - child.spawned
            stamps["start"] = child.ask("mark timed_start")

        def on_done():
            stamps["end"] = child.ask("mark timed_end")
            stamps["stats"] = child.ask("stats")

        results, elapsed = asyncio.run(
            loadgen.run_load(sock, inputs, on_ready, on_done)
        )
        if traced:
            child.ask("dump")
        stats = stamps["stats"]
        txn_lat, read_lat, aborts = [], [], 0
        for stream, result in zip(inputs.tenants, results):
            for (kind, _), lat, out in zip(
                stream.ops, result.latency, result.outcome
            ):
                (txn_lat if kind == "txn" else read_lat).append(lat)
                aborts += kind == "txn" and out is False
        stats["counters"]["engine.aborts"] = aborts
        client_stamps = {
            (stream.tenant, wl.frame_id(i, k)): (sent, sent + lat)
            for i, (stream, result) in enumerate(zip(inputs.tenants, results))
            for k, (sent, lat) in enumerate(zip(result.sent, result.latency))
        } if traced else None
        return {
            "client_stamps": client_stamps,
            "setup_s": stamps["setup_s"],
            "elapsed": elapsed,
            "cpu": stamps["end"]["cpu"] - stamps["start"]["cpu"],
            "txn_lat": txn_lat,
            "read_lat": read_lat,
            "peak_rss_kb": stats["peak_rss_kb"],
            "state_size": stats["state_size"],
            "disk_bytes": disk_bytes(root),
            "counters": stats["counters"],
            "results": results,
            "failed": sum(len(r.errors) for r in results)
            + stats["counters"]["serve.backpressure"],
        }
    finally:
        child.kill()


def embedded_repeat(workload, seed, scale, root: Path, traced, with_oracle):
    args = [
        "--workload", workload, "--seed", seed, "--scale", scale,
        "--root", os.path.relpath(root, ROOT),
    ]
    if traced:
        args += ["--trace", os.path.relpath(root / "spans.json", ROOT)]
    if with_oracle:
        args.append("--oracle")
    child = Child("sut_embedded.py", args, root)
    try:
        child.ready()
        out = json.loads(child.readline())
        out["setup_s"] = child.setup_wall
        out["failed"] = len(out["oracle_mismatches"])
        return out
    finally:
        child.kill()


def summarise_repeat(rep: dict, inputs) -> dict:
    """The issue's eleven end-to-end metrics of one repeat, as the
    stopwatch, the child's rusage and the file system read them."""
    ops, txns = inputs.total_ops, inputs.total_txns
    values = {
        "setup_s": rep["setup_s"],
        "throughput_tps": ops / rep["elapsed"],
        "txn_p50_ms": statistics.median(rep["txn_lat"]) * 1e3,
        "txn_p99_ms": metrics.quantile(rep["txn_lat"], 0.99) * 1e3,
        "read_p50_ms": statistics.median(rep["read_lat"]) * 1e3,
        "cpu_ms_per_op": rep["cpu"] / ops * 1e3,
        "peak_rss_mb": rep["peak_rss_kb"] / 1024,
        "evaluator_state_size": rep["state_size"],
        "failed_ratio": rep["failed"] / ops,
    }
    if "recover_s" in rep:
        values["recover_s"] = rep["recover_s"]
    if "disk_bytes" in rep:
        values["disk_bytes_per_txn"] = rep["disk_bytes"] / txns
    return values


def layer_metrics(rep: dict, inputs, e2e: dict, untraced_tps: float):
    """Per-layer metrics of the traced repeat: span self times plus the
    public counters the child reported plus the demoted ``bench.*``."""
    with open(rep["spans_path"]) as fp:
        dump = json.load(fp)
    summary = trace.summarise(
        dump, inputs.total_ops, inputs.total_txns, rep.get("client_stamps")
    )
    values = {name: 0.0 for name, _, _ in metrics.PER_LAYER}
    values.update(summary["metrics"])
    values.update(rep["counters"])
    steps = values["recovery.replay_steps"]
    values["recovery.replay_us_per_step"] = (
        values.pop("recovery.replay_s") * 1e6 / steps if steps else 0.0
    )
    traced_tps = inputs.total_ops / rep["elapsed"]
    values["trace.overhead_ratio"] = untraced_tps / traced_tps
    for name in metrics.DEMOTED:
        values[f"bench.{name}"] = e2e.get(name, 0.0)
    summary["metrics"] = {
        name: values[name] for name, _, _ in metrics.PER_LAYER
    }
    return summary


def check_repeats(inputs, served: bool, repeats: list) -> list:
    """The untimed oracles; returns the mismatches and charges them to
    each repeat's ``failed`` count."""
    failures = []
    if served:
        twins = [oracle.standalone(t.ops) for t in inputs.tenants]
        for rep in repeats:
            bad = []
            results = rep.pop("results")
            for stream, result, twin in zip(inputs.tenants, results, twins):
                bad += oracle.check_tenant(stream, result, twin)
            rep["failed"] += len(bad)
            failures += bad
            rep["firings_sha256"] = probes.digest(
                (stream.tenant, *row)
                for stream, result in zip(inputs.tenants, results)
                for row in result.firings
            )
    else:
        for rep in repeats:
            failures += rep["oracle_mismatches"]
    for what, key in (("firings_sha256", "firings_sha256"),
                      ("evaluator_state_size", "state_size")):
        seen = {rep[key] for rep in repeats}
        if len(seen) != 1:
            failures.append(f"{what} differs across repeats: {seen}")
    return failures


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, scale, traced, log) -> dict:
    """Run ``workload``: untraced repeats until ``seconds`` of timed phase
    (never fewer than ``MIN_REPEATS``), then, if ``traced``, one traced
    repeat, then the oracles."""
    inputs = wl.inputs_for(workload, seed, scale)
    served = workload in wl.SERVED
    (ROOT / TMP_PARENT).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / TMP_PARENT))
    repeats, traced_rep = [], None
    try:
        def one(tracing: bool) -> dict:
            root = tmp / f"r{len(repeats)}{'t' if tracing else ''}"
            root.mkdir()
            try:
                if served:
                    rep = served_repeat(inputs, root, tracing)
                else:
                    # The offline-semantics oracle costs as much as a
                    # repeat; inputs are identical across repeats, so it
                    # runs once and the others are held to its digest.
                    rep = embedded_repeat(
                        workload, seed, scale, root, tracing,
                        with_oracle=not repeats and not tracing,
                    )
                if tracing:
                    rep["spans_path"] = str(tmp / "spans.json")
                    shutil.move(root / "spans.json", rep["spans_path"])
                return rep
            finally:
                shutil.rmtree(root, ignore_errors=True)

        timed = 0.0
        while len(repeats) < MIN_REPEATS or timed < seconds:
            rep = one(tracing=False)
            repeats.append(rep)
            timed += rep["elapsed"]
            log(f"  {workload} repeat {len(repeats)}: "
                f"{inputs.total_ops / rep['elapsed']:.0f} op/s")
        per_repeat = [summarise_repeat(rep, inputs) for rep in repeats]
        e2e = {
            name: statistics.median(values[name] for values in per_repeat)
            for name in per_repeat[0]
        }
        layers = None
        if traced:
            traced_rep = one(tracing=True)
            layers = layer_metrics(
                traced_rep, inputs, e2e, e2e["throughput_tps"]
            )

        everything = repeats + ([traced_rep] if traced_rep else [])
        failures = check_repeats(inputs, served, everything)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / TMP_PARENT).rmdir()
        except OSError:
            pass  # another run's scratch is still there

    attempted = inputs.total_ops * len(everything)
    failed = sum(rep["failed"] for rep in everything)
    if failures and not failed:
        failed = len(failures)
    e2e["failed_ratio"] = failed / attempted
    if layers:
        layers["metrics"]["bench.failed_ratio"] = e2e["failed_ratio"]
    return {
        "workload": workload,
        "ops": inputs.total_ops,
        "txns": inputs.total_txns,
        "repeats": len(repeats),
        "samples": {
            "txn": len(repeats[0]["txn_lat"]),
            "read": len(repeats[0]["read_lat"]),
            "beyond_p99": metrics.beyond(repeats[0]["txn_lat"], 0.99),
        },
        "e2e": e2e,
        "spread": {
            name: (
                min(values[name] for values in per_repeat),
                max(values[name] for values in per_repeat),
            )
            for name in per_repeat[0]
        },
        "layers": layers,
        "firings_sha256": repeats[0]["firings_sha256"],
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def print_e2e(report: dict, scale: float, seed: int) -> None:
    s = report["samples"]
    print(
        f"\n== {report['workload']}: end to end  (seed {seed}, scale {scale}, "
        f"{report['repeats']} repeats x {report['ops']} ops, "
        f"{s['txn']} txn + {s['read']} read samples per repeat, "
        f"{s['beyond_p99']} beyond p99) =="
    )
    print(f"{'metric':<22}{'unit':<7}{'median':>12}{'min':>12}{'max':>12}"
          f"{'bound':>7}")
    for name, unit, _, bound, where in metrics.END_TO_END:
        if report["workload"] not in where or name not in report["e2e"]:
            continue
        low, high = report["spread"].get(name, (report["e2e"][name],) * 2)
        gate = f"{bound:g}" + ("*" if name in metrics.GATED else "")
        print(f"{name:<22}{unit:<7}{fmt(report['e2e'][name]):>12}"
              f"{fmt(low):>12}{fmt(high):>12}{gate:>7}")
    print("(* gated by BENCHMARK.json; the other bounds are what --agree "
          "compares two sets against)")
    print(f"firings_sha256 {report['firings_sha256']} "
          f"(identical across repeats and to the oracle: "
          f"{'yes' if not report['failures'] else 'NO'})")
    for failure in report["failures"][:10]:
        print(f"  MISMATCH {failure}")


def print_layers(report: dict) -> None:
    layers = report["layers"]
    print(f"\n== {report['workload']}: per layer (one traced repeat; *_us is "
          f"self time per op unless the README says per call) ==")
    for name, unit, _ in metrics.PER_LAYER:
        value = layers["metrics"][name]
        if value:
            print(f"{name:<32}{unit:<7}{fmt(value):>14}")
    m = layers["metrics"]
    total = sum(layers["busy"].values())
    shares = ", ".join(
        f"{layer} {seconds / total:.0%}"
        for layer, seconds in sorted(
            layers["busy"].items(), key=lambda kv: -kv[1]
        )
    )
    print(f"share of traced busy time: {shares}")
    if layers["stages"]:
        print("-- stage table (mean us per txn, request order) --")
        for label, value in layers["stages"]:
            print(f"{label:<26}{value:>10.1f}")
        print(f"{'unattributed share':<26}"
              f"{m['serve.unattributed_share']:>10.2f}")
        if m["serve.unattributed_share"] > 0.35:
            print("WARNING: more than 35 % of the client-observed latency "
                  "is outside every traced stage (socket, loop, scheduler)")
    else:
        print(f"spans under the op span cover {layers['coverage']:.1%} of it")
        if layers["coverage"] < 0.9:
            print("WARNING: less than 90 % of the op span is covered")
    if m["trace.overhead_ratio"] > 1.25:
        print(f"WARNING: tracing slowed the run by "
              f"{m['trace.overhead_ratio']:.2f}x (> 1.25)")


def contract_line(report: dict, per_layer: bool) -> str:
    if per_layer:
        values = report["layers"]["metrics"]
    else:
        values = {name: report["e2e"][name] for name in metrics.GATED}
    return json.dumps({
        "correct": not report["failures"] and not report["failed"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    })


def stamp(seed, scale, seconds) -> dict:
    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed, "scale": scale, "seconds": seconds,
        "min_repeats": MIN_REPEATS,
    }


# ---------------------------------------------------------------------------
# --agree
# ---------------------------------------------------------------------------


def disagreements(first: list, second: list) -> list:
    """Per-metric ratio table of two full sets; returns the rows outside
    their bound (exact-count metrics must be equal).  A demoted timing
    outside its bound is marked, not returned: ISSUE 11's demotion rule
    took it out of the gate."""
    bad = []
    print(f"\n== agreement of two sets (second / first) ==")
    print(f"{'workload':<17}{'metric':<22}{'first':>12}{'second':>12}"
          f"{'ratio':>8}{'bound':>7}")
    for a, b in zip(first, second):
        for name, _, _, bound, where in metrics.END_TO_END:
            if a["workload"] not in where or name not in a["e2e"]:
                continue
            x, y = a["e2e"][name], b["e2e"][name]
            ratio = y / x if x else (1.0 if y == x else float("inf"))
            ok = abs(ratio - 1) <= bound
            gates = name in metrics.GATED or name in metrics.EXACT
            note = "" if ok else (
                "  <-- DISAGREE" if gates else "  (beyond; demoted, not gated)"
            )
            print(f"{a['workload']:<17}{name:<22}{fmt(x):>12}{fmt(y):>12}"
                  f"{ratio:>8.3f}{bound:>7g}{note}")
            if gates and not ok:
                bad.append((a["workload"], name, x, y))
    return bad


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed phase to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: no traced repeat, result line = end-to-end "
                             "metrics; 1: result line = per-layer metrics")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--out", default=None, help="write the JSON report")
    parser.add_argument("--agree", action="store_true",
                        help="run two full sets; exit 1 if they disagree")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    workloads = args.workload or list(wl.WORKLOADS)
    traced = args.trace != 0

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    def full_set() -> list:
        reports = []
        for workload in workloads:
            report = measure(
                workload, args.seed, args.seconds, args.scale, traced, log
            )
            print_e2e(report, args.scale, args.seed)
            if traced:
                print_layers(report)
            reports.append(report)
        return reports

    try:
        sets = [full_set()]
        bad = []
        if args.agree:
            sets.append(full_set())
            bad = disagreements(*sets)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    if args.out:
        with open(args.out, "w") as fp:
            json.dump(
                {"stamp": stamp(args.seed, args.scale, args.seconds),
                 "sets": sets},
                fp, indent=1,
            )
    sys.stdout.flush()
    for report in sets[-1]:
        print(contract_line(report, per_layer=args.trace == 1))
    failed = any(r["failures"] or r["failed"] for s in sets for r in s)
    return 1 if failed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
