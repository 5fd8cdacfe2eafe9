"""Experiment support: result tables are registered here and printed in the
terminal summary, so ``pytest benchmarks/bench_e*.py`` emits both the
timing statistics and the paper-style result tables."""

from __future__ import annotations

_TABLES: list[str] = []


def report(table) -> None:
    """Register a rendered :class:`repro.bench.Table` (or string) for the
    end-of-run summary."""
    _TABLES.append(table.render() if hasattr(table, "render") else str(table))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "reproduction result tables")
    for text in _TABLES:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
