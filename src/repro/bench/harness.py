"""Shared utilities of the paper experiments (E1-E10) and the CLI demo:
timing and paper-style result tables."""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence


def time_best(fn: Callable[[], Any], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class Table:
    """A fixed-width ASCII results table (every benchmark prints one)."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append(sep)
        for row in self.rows:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
        print()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def per_update_micros(total_seconds: float, updates: int) -> float:
    return 1e6 * total_seconds / max(1, updates)
