"""Lazy package exports (PEP 562).

A package lists what it exports and where each name is defined; the
defining module is imported the first time the name is read.  Importing
one submodule of a package therefore loads that submodule's own imports,
not everything the package re-exports.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict):
    """The ``__getattr__`` and ``__dir__`` of the package whose globals
    are ``namespace``, exporting ``exports`` (name -> defining module).
    A resolved name is cached in ``namespace``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
