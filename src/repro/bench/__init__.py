"""Benchmark support: timing helpers and result tables."""

from repro.bench.harness import Table, per_update_micros, time_best

__all__ = ["Table", "time_best", "per_update_micros"]
