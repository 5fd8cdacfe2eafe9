"""repro — reproduction of Sistla & Wolfson (SIGMOD 1995).

Past Temporal Logic (PTL) conditions, an incremental evaluation algorithm,
temporal aggregates, composite/temporal actions, and valid-time semantics,
over an in-memory active relational database engine.

Public API highlights
---------------------
- :mod:`repro.datamodel` — schemas, rows, relations.
- :mod:`repro.storage` — the database engine and transactions.
- :mod:`repro.ptl` — the PTL language and evaluators.
- :mod:`repro.rules` — triggers, integrity constraints, the rule manager.
- :mod:`repro.validtime` — the valid-time model.

Names are exported lazily: ``repro.TemporalDatabase`` loads the facade
the first time it is read.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["ActiveDatabase", "TemporalDatabase", "__version__"]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ActiveDatabase": "repro.engine",
        "TemporalDatabase": "repro.facade",
    },
)
