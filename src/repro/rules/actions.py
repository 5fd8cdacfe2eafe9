"""Actions of Condition-Action rules (Section 3).

"The action part of our C-A rules may be a database operation, a program,
or it may simply be an abort operation on the current transaction.
Furthermore, the action part can refer to some of the free variables
referred to in the condition part."
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro._value import Value
from repro.errors import ActionError


class ActionContext(Value, frozen=False):
    """What an action sees when it runs: the engine, the satisfying
    bindings of the condition's free variables (parameter passing), and
    the system state that fired the rule."""

    engine: Any
    bindings: Mapping[str, Any]
    state: Any
    rule_name: str

    def __init__(
        self, engine: Any, bindings: Mapping[str, Any], state: Any, rule_name: str
    ) -> None:
        self.engine = engine
        self.bindings = bindings
        self.state = state
        self.rule_name = rule_name


class Action:
    """Base class of rule actions."""

    __slots__ = ()

    def execute(self, ctx: ActionContext) -> None:
        raise NotImplementedError


def _failure(label: str, ctx: ActionContext, exc: Exception) -> ActionError:
    """The error an action that raised ``exc`` surfaces as: it names the
    rule and the state it fired at (a valid-time firing has no index)."""
    index = getattr(ctx.state, "index", None)
    at = "" if index is None else f"#{index} "
    return ActionError(
        f"action {label!r} of rule {ctx.rule_name!r} failed at state "
        f"{at}(t={ctx.state.timestamp}): {exc}"
    )


class PyAction(Action):
    """A program as action: an arbitrary callable receiving the context."""

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[[ActionContext], Any], label: str = ""):
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "callback")

    def execute(self, ctx: ActionContext) -> None:
        try:
            self.fn(ctx)
        except Exception as exc:
            raise _failure(self.label, ctx, exc) from exc

    def __repr__(self) -> str:
        return f"PyAction({self.label})"


class DbAction(Action):
    """A database operation as action: runs inside a fresh transaction
    (the rule system's T-CA / T-C-A couplings execute actions as their own
    transactions)."""

    def __init__(self, fn: Callable[[Any, Mapping[str, Any]], Any], label: str = ""):
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "db_action")

    def execute(self, ctx: ActionContext) -> None:
        txn = ctx.engine.begin()
        try:
            self.fn(txn, ctx.bindings)
        except Exception as exc:
            txn.abort(reason=f"action {self.label!r} failed")
            raise _failure(self.label, ctx, exc) from exc
        txn.commit()

    def __repr__(self) -> str:
        return f"DbAction({self.label})"


class AbortAction(Action):
    """The integrity-constraint action abort(X).  Never executed directly:
    the rule manager turns a satisfied IC condition into a commit veto."""

    def execute(self, ctx: ActionContext) -> None:
        raise ActionError(
            "abort(X) is enforced at commit validation, not executed"
        )

    def __repr__(self) -> str:
        return "AbortAction()"


class RecordingAction(Action):
    """Test/bench helper: remembers every firing it receives."""

    def __init__(self):
        self.calls: list[tuple[dict, int]] = []

    def execute(self, ctx: ActionContext) -> None:
        self.calls.append((dict(ctx.bindings), ctx.state.timestamp))

    def __repr__(self) -> str:
        return f"RecordingAction({len(self.calls)} calls)"


def as_action(action) -> Action:
    """Coerce a callable into an :class:`Action`."""
    if isinstance(action, Action):
        return action
    if callable(action):
        return PyAction(action)
    raise ActionError(f"not an action: {action!r}")
