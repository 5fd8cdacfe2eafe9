"""Every repository path a document names must exist.

The documents cite source files, test suites, experiment modules and
result files by path; deleting or renaming one must fail here rather than
leave a reader with a dangling pointer.  Checked: README.md, DESIGN.md,
EXPERIMENTS.md, ``docs/*.md`` and the verify skill.  A reference is a
rooted path (``src/repro/…``, ``tests/…``, ``benchmarks/…``, ``docs/…``),
a root-level ``BENCH*.json``, or a bare ``bench_e*.py`` / ``test_*.py``
module name; ``*`` in a reference is a glob that must match something.

The same documents, and the CI workflow, name environment toggles: every
``REPRO_*`` token they mention must be read through ``os.environ``
somewhere under ``src/repro/`` — a toggle deleted from the source must
not live on in a CI step or a how-to.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTS = sorted(
    [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + list((ROOT / "docs").glob("*.md"))
    + [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)

_SEGMENT = r"[A-Za-z0-9_.*\-]+"
REFERENCE = re.compile(
    r"(?<![A-Za-z0-9_./\-])(?:"
    rf"(?:src/repro|tests|benchmarks|docs)(?:/{_SEGMENT})+/?"
    r"|BENCH[A-Za-z0-9_*]*\.json"
    r"|(?:bench_e|test_)[A-Za-z0-9_*]*\.py"
    r")"
)

ENV_TOGGLE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
ENV_READ = re.compile(
    r"os\.environ(?:\.get\(|\[)\s*[\"'](REPRO_[A-Z0-9_]+)[\"']"
)

#: Where a bare module name may live.
BARE_HOMES = {
    "bench_e": ("benchmarks",),
    "test_": ("tests", "benchmarks/spine"),
}


def references(text: str) -> set[str]:
    return {m.group(0).rstrip(".") for m in REFERENCE.finditer(text)}


def exists(reference: str) -> bool:
    candidates = [reference]
    if "/" not in reference:
        for prefix, homes in BARE_HOMES.items():
            if reference.startswith(prefix):
                candidates = [f"{home}/{reference}" for home in homes]
    return any(
        next(ROOT.glob(c.rstrip("/")), None) is not None for c in candidates
    )


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=lambda p: str(p.relative_to(ROOT))
)
def test_named_paths_exist(document):
    dangling = sorted(
        r for r in references(document.read_text()) if not exists(r)
    )
    assert not dangling, f"{document.relative_to(ROOT)} names {dangling}"


def env_reads() -> set[str]:
    return {
        name
        for source in (ROOT / "src" / "repro").rglob("*.py")
        for name in ENV_READ.findall(source.read_text())
    }


def test_named_env_toggles_are_read():
    read = env_reads()
    assert "REPRO_PTL_COMPILE" in read  # the extractor matches something
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    stale = {}
    for document in DOCUMENTS + [workflow]:
        unread = set(ENV_TOGGLE.findall(document.read_text())) - read
        if unread:
            stale[str(document.relative_to(ROOT))] = sorted(unread)
    assert not stale, f"toggles no source file reads: {stale}"


def test_reference_pattern():
    """The extractor sees the forms the documents use (so the guard above
    cannot pass by matching nothing)."""
    text = (
        "see `tests/test_query_plans.py::TestDeltaSkip`, src/repro/obs/, "
        "`bench_e3_incremental_vs_naive.py`, (`BENCH_E13.json`), "
        "benchmarks/bench_e*.py and docs/QUERY_PLANS.md."
    )
    assert references(text) == {
        "tests/test_query_plans.py",
        "src/repro/obs/",
        "bench_e3_incremental_vs_naive.py",
        "BENCH_E13.json",
        "benchmarks/bench_e*.py",
        "docs/QUERY_PLANS.md",
    }
    assert exists("BENCHMARK.json") and not exists("BENCH_E13.json")
    assert not exists("BENCH_*.json")
    assert exists("test_spine.py") and not exists("bench_e13_query_plans.py")
