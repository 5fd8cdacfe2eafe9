"""Term values shared by every PTL evaluator.

The undefined sentinel and a query read as a term value.  The production
evaluators (:mod:`repro.ptl.incremental`, :mod:`repro.ptl.plan`) import
them from here, so they do not load the reference semantics
(:mod:`repro.ptl.semantics`, the oracle), which re-exports both.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.datamodel.relation import Relation
from repro.errors import PTLTypeError, QueryEvaluationError
from repro.history.state import SystemState
from repro.query.evaluator import eval_query


class Undefined:
    """Sentinel for undefined term values; any comparison involving it is
    false."""

    _instance: Optional["Undefined"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<undefined>"


UNDEFINED = Undefined()


def eval_query_value(query, state: SystemState, env: Mapping[str, Any]) -> Any:
    """A query as a term value: scalars pass through, 1x1 relations unwrap,
    empty results are undefined."""
    try:
        result = eval_query(query, state, env)
    except (QueryEvaluationError, TypeError):
        # Undefined item arithmetic (e.g. CUM_PRICE before initialization)
        # or division by zero: the term is undefined, the enclosing atom
        # false.
        return UNDEFINED
    if result is None:
        return UNDEFINED
    if isinstance(result, Relation):
        if result.is_empty():
            return UNDEFINED
        try:
            return result.scalar()
        except Exception:
            raise PTLTypeError(
                f"query {query} used as a term but returned a "
                f"{len(result)}-row relation"
            )
    return result
