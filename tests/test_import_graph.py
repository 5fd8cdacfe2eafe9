"""What a served process loads: the production import graph, pinned.

A served tenant evaluates its conditions on the shared plan.  It needs
none of: the reference semantics (``ptl.semantics``, the oracle of every
Theorem-1 differential), the future-formula monitor (``ptl.future*``),
the Section 5 auxiliary relations (``ptl.auxrel``), the Section 7
composite actions (``rules.composite``) or the facade; and, keeping no
history and only the stock profile, neither the tiered history
(``history.spill``) nor the random workload generators
(``workloads.generator``).  Package exports are lazy (PEP 562), so none
of them loads unless something reads one of its names.

The graph is read in a fresh interpreter: once ``import repro.serve``,
and once more after a started server has opened a ``StockProfile``
tenant and served it a transaction and a query.  A module on either list
that is not allowed fails the test; add it to the allow-list only if the
served path really needs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

NEVER_SERVED = (
    "repro.ptl.semantics",
    "repro.ptl.future",
    "repro.ptl.future_parser",
    "repro.ptl.auxrel",
    "repro.rules.composite",
    "repro.facade",
)

#: ``import repro.serve``.
ALLOWED_AT_IMPORT = {
    "repro",
    "repro._lazy",
    "repro.datamodel",
    "repro.datamodel.relation",
    "repro.datamodel.schema",
    "repro.datamodel.tuples",
    "repro.datamodel.types",
    "repro.engine",
    "repro.errors",
    "repro.events",
    "repro.events.bus",
    "repro.events.clock",
    "repro.events.model",
    "repro.history",
    "repro.history.history",
    "repro.history.state",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.query",
    "repro.query.ast",
    "repro.query.deps",
    "repro.query.evaluator",
    "repro.query.functions",
    "repro.query.lexer",
    "repro.query.parser",
    "repro.query.plan",
    "repro.query.subst",
    "repro.recovery",
    "repro.recovery.checkpoint",
    "repro.recovery.faultinject",
    "repro.recovery.manager",
    "repro.recovery.wal",
    "repro.serve",
    "repro.serve.admission",
    "repro.serve.protocol",
    "repro.serve.server",
    "repro.serve.tenant",
    "repro.storage",
    "repro.storage.database",
    "repro.storage.persist",
    "repro.storage.snapshot",
    "repro.storage.tiers",
    "repro.storage.transactions",
}

#: ... plus what an open tenant's catalog, rules and first drain load.
ALLOWED_SERVED = ALLOWED_AT_IMPORT | {
    "repro.ptl",
    "repro.ptl.aggregates",
    "repro.ptl.ast",
    "repro.ptl.constraints",
    "repro.ptl.context",
    "repro.ptl.incremental",
    "repro.ptl.optimize",
    "repro.ptl.parser",
    "repro.ptl.plan",
    "repro.ptl.rewrite",
    "repro.ptl.safety",
    "repro.ptl.values",
    "repro.rules",
    "repro.rules.actions",
    "repro.rules.manager",
    "repro.rules.rule",
    "repro.storage.index",
    "repro.workloads",
    "repro.workloads.stock",
}

SERVED_PROCESS = r"""
import asyncio, json, os, sys, tempfile

import repro.serve

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro"))

at_import = loaded()

async def serve(root):
    from repro.serve import ReproServer, StockProfile

    sock = os.path.join(root, "s.sock")
    server = ReproServer(
        os.path.join(root, "data"), StockProfile(), unix_path=sock,
        fsync=False, sweep_interval=0,
    )
    await server.start()
    reader, writer = await asyncio.open_unix_connection(sock)
    frames = [
        {"op": "open", "tenant": "t1", "id": 1},
        {"op": "txn", "tenant": "t1", "id": 2, "stmts": [
            ["update", "STOCK", {"name": "IBM"}, {"price": 12.0}]]},
        {"op": "query", "tenant": "t1", "id": 3,
         "text": "RETRIEVE (S.price) FROM STOCK S"},
    ]
    replies = []
    for frame in frames:
        writer.write((json.dumps(frame) + "\n").encode())
        await writer.drain()
        while True:
            reply = json.loads(await reader.readline())
            if reply.get("id") == frame["id"]:
                replies.append(reply)
                break
    writer.close()
    await server.stop()
    return replies

with tempfile.TemporaryDirectory() as root:
    replies = asyncio.run(serve(root))
print(json.dumps({"import": at_import, "served": loaded(), "replies": replies}))
"""


@pytest.fixture(scope="module")
def served_process():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SERVED_PROCESS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_repro_serve_loads_only_the_allow_list(served_process):
    loaded = set(served_process["import"])
    assert not loaded & set(NEVER_SERVED)
    assert loaded <= ALLOWED_AT_IMPORT, sorted(loaded - ALLOWED_AT_IMPORT)


def test_a_served_tenant_loads_only_the_allow_list(served_process):
    assert all(reply["ok"] for reply in served_process["replies"])
    assert served_process["replies"][1]["committed"]
    loaded = set(served_process["served"])
    assert not loaded & set(NEVER_SERVED)
    assert loaded <= ALLOWED_SERVED, sorted(loaded - ALLOWED_SERVED)


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.ptl", "repro.rules", "repro.workloads", "repro.history"],
)
def test_every_public_name_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
