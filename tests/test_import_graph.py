"""What a served process loads: the production import graph, pinned.

A served tenant evaluates its conditions on the shared plan.  It needs
none of: the reference semantics (``ptl.semantics``, the oracle of every
Theorem-1 differential), the future-formula monitor (``ptl.future*``),
the Section 5 auxiliary relations (``ptl.auxrel``), the Section 6.1.1
aggregate rewriting (``ptl.aggregates``, benchmark E5's comparison), the
Section 7 composite actions (``rules.composite``) or the facade; and,
keeping no history and only the stock profile, neither the tiered
history (``history.spill``, ``storage.tiers``) nor the random workload
generators (``workloads.generator``).  Package exports are lazy (PEP
562), so none of them loads unless something reads one of its names.

Nor does it load the standard library's ``dataclasses``: the package's
value classes share their methods (``repro._value``), so no class of a
loaded ``repro`` module holds a method ``exec`` generated.

Nor does any ``tuple`` of the package start at a guessed size: one built
from an iterable of unknown length (a generator expression, ``map``,
``zip``, ``filter``) is allocated with ten slots and shrunk, and when it
dies it is parked on the interpreter's free list for its final size,
which no later tuple of the same kind draws from (DESIGN.md, "Tuples
are built at their final size").

Nor does any module but ``repro/_intern.py`` hash-cons: it alone
files a node in a weak intern table, so one rule decides when two values
are one node (the scan below).

The graph is read in a fresh interpreter: once ``import repro.serve``,
and once more after a started server has opened a ``StockProfile``
tenant and served it a transaction and a query.  A module on either list
that is not allowed fails the test; add it to the allow-list only if the
served path really needs it.
"""

import ast
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
    "repro.ptl.aggregates",
    "repro.rules.composite",
    "repro.facade",
    "repro.storage.tiers",
)

#: ``import repro.serve``.
ALLOWED_AT_IMPORT = {
    "repro",
    "repro._lazy",
    "repro._intern",
    "repro._value",
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
    "repro.storage.transactions",
}

#: ... plus what an open tenant's catalog, rules and first drain load.
ALLOWED_SERVED = ALLOWED_AT_IMPORT | {
    "repro.ptl",
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
import asyncio, inspect, json, os, sys, tempfile

import repro.serve

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro"))

def generated_methods():
    # Functions held by a class of a loaded repro module whose code was
    # compiled from a string (exec / eval), not read from a file.
    out = []
    for name in loaded():
        for cls in vars(sys.modules[name]).values():
            if not inspect.isclass(cls) or cls.__module__ != name:
                continue
            for attr, fn in vars(cls).items():
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    out.append(f"{cls.__qualname__}.{attr}")
    return out

at_import = loaded()
dataclasses_at_import = "dataclasses" in sys.modules

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
print(json.dumps({
    "import": at_import, "served": loaded(), "replies": replies,
    "dataclasses": [dataclasses_at_import, "dataclasses" in sys.modules],
    "generated": generated_methods(),
}))
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


def test_a_served_process_never_loads_dataclasses(served_process):
    at_import, served = served_process["dataclasses"]
    assert not at_import
    assert not served


def test_no_loaded_class_holds_generated_methods(served_process):
    assert served_process["generated"] == []


def test_no_package_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def _unsized(node) -> bool:
    """A generator expression or a ``map`` / ``zip`` / ``filter`` call: an
    iterable whose length is unknown until it has run."""
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("map", "zip", "filter")
    )


def test_every_tuple_is_built_at_its_final_size():
    # ``tuple(x)`` and a call's ``*x`` both build a tuple from ``x``.
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            built = [a.value for a in node.args if isinstance(a, ast.Starred)]
            if isinstance(node.func, ast.Name) and node.func.id == "tuple":
                built += node.args[:1]
            if any(_unsized(arg) for arg in built):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


#: What filing a node in a weak intern table takes: the entry and table
#: classes of ``repro._intern``, and a hand-rolled interner's helpers.
INTERN_NAMES = {"_Entry", "_Table", "_forget", "file", "_file", "_intern"}


def test_only_the_intern_module_files_nodes():
    """Outside ``repro/_intern.py`` no module imports or calls an intern
    table's machinery, nor subclasses ``weakref.ref`` (a weak entry)."""
    home = SRC / "repro" / "_intern.py"
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "repro._intern":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Call):
                func = node.func
                names = {getattr(func, "id", None) or getattr(func, "attr", None)}
            elif isinstance(node, ast.ClassDef):
                names = {
                    "_Entry"
                    for base in node.bases
                    if ast.unparse(base) in ("ref", "_weakref", "weakref.ref")
                }
            else:
                continue
            if names & INTERN_NAMES:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.ptl",
        "repro.rules",
        "repro.workloads",
        "repro.history",
        "repro.storage",
    ],
)
def test_every_public_name_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
