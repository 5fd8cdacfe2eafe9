"""Dependency analysis for queries: which database items does a query read?

The delta-aware evaluation machinery (:mod:`repro.query.plan`) needs to
know, for a ground query, the set of database items (relations and scalar
items) its value can depend on.  A query whose analysis is *stable* is a
pure function of those items' stored values (plus the parameter
environment): re-evaluating it against a state whose referenced item
objects are unchanged must return an equal value.

Scalar expressions (:class:`repro.query.ast.Expr`) never read the
database — columns resolve against range-variable bindings and parameters
— so only the query layer contributes dependencies.
"""

from __future__ import annotations


from repro._value import Value
from repro.events.clock import TIME_ITEM
from repro.query import ast


class QueryDeps(Value):
    """The database items a query reads.

    ``items``
        Names of relations and scalar items the query's value may depend
        on (``time`` excluded — see ``uses_time``).
    ``uses_time``
        The query reads the ``time`` item, whose value comes from the
        system-state timestamp rather than the database state, so it
        changes at every state even when no item does.
    ``stable``
        The analysis covered every node; ``False`` means an unknown query
        node was seen and the dependency set must be treated as "anything".
    """

    items: frozenset[str]
    uses_time: bool
    stable: bool


def query_deps(query: ast.Query) -> QueryDeps:
    """Dependency set of ``query`` (see :class:`QueryDeps`)."""
    items: set[str] = set()
    state = {"time": False, "stable": True}

    def visit(q: ast.Query) -> None:
        if isinstance(q, ast.RelationRef):
            items.add(q.name)
        elif isinstance(q, ast.ItemRef):
            if q.name == TIME_ITEM:
                state["time"] = True
            else:
                items.add(q.name)
        elif isinstance(q, (ast.ConstQuery, ast.ParamQuery)):
            pass
        elif isinstance(q, ast.ExprQuery):
            for arg in q.args:
                visit(arg)
        elif isinstance(q, ast.Retrieve):
            for rv in q.ranges:
                items.add(rv.relation)
        elif isinstance(q, ast.AggregateQuery):
            for rv in q.ranges:
                items.add(rv.relation)
        else:
            state["stable"] = False

    visit(query)
    return QueryDeps(frozenset(items), state["time"], state["stable"])
