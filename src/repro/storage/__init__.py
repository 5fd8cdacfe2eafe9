"""Storage engine: snapshots, catalog, transactions.

Names are exported lazily: importing one submodule (the write-ahead log
imports :mod:`repro.storage.persist`) does not load the segment store.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Database",
    "DatabaseState",
    "IndexedItem",
    "SegmentStore",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
    "retry_io",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Database": "repro.storage.database",
        "DatabaseState": "repro.storage.snapshot",
        "IndexedItem": "repro.storage.snapshot",
        "SegmentStore": "repro.storage.tiers",
        "Transaction": "repro.storage.transactions",
        "TransactionManager": "repro.storage.transactions",
        "TxnStatus": "repro.storage.transactions",
        "retry_io": "repro.storage.persist",
    },
)
