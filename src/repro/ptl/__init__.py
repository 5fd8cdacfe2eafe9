"""Past Temporal Logic: language, reference semantics, incremental algorithm."""

from repro.ptl.ast import (
    FALSE,
    TRUE,
    AggT,
    And,
    Assign,
    BoolConst,
    Comparison,
    ConstT,
    EventAtom,
    ExecutedAtom,
    Formula,
    FuncT,
    InQuery,
    Lasttime,
    Not,
    Or,
    Previously,
    QueryT,
    Since,
    Term,
    ThroughoutPast,
    Var,
    assigned_variables,
    free_variables,
)
from repro.ptl.auxrel import AuxiliaryRelation, AuxiliaryStore
from repro.ptl.compiled import (
    CompiledChain,
    ptl_compile_enabled,
    set_ptl_compile,
)
from repro.ptl.context import EvalContext, ExecutedStore, ExecutionRecord
from repro.ptl.incremental import FireResult
from repro.ptl.plan import IncrementalEvaluator, PlanBoundEvaluator, SharedPlan
from repro.ptl.future_parser import parse_future_formula
from repro.ptl.parser import parse_formula
from repro.ptl.rewrite import normalize
from repro.ptl.safety import check_safety, unsafe_variables
from repro.ptl.semantics import UNDEFINED, answers, satisfies

__all__ = [
    "Formula",
    "Term",
    "Var",
    "ConstT",
    "FuncT",
    "QueryT",
    "AggT",
    "BoolConst",
    "TRUE",
    "FALSE",
    "Comparison",
    "EventAtom",
    "InQuery",
    "ExecutedAtom",
    "Not",
    "And",
    "Or",
    "Since",
    "Lasttime",
    "Previously",
    "ThroughoutPast",
    "Assign",
    "free_variables",
    "assigned_variables",
    "parse_formula",
    "parse_future_formula",
    "normalize",
    "satisfies",
    "answers",
    "UNDEFINED",
    "IncrementalEvaluator",
    "SharedPlan",
    "PlanBoundEvaluator",
    "FireResult",
    "EvalContext",
    "ExecutedStore",
    "ExecutionRecord",
    "AuxiliaryRelation",
    "AuxiliaryStore",
    "CompiledChain",
    "ptl_compile_enabled",
    "set_ptl_compile",
    "check_safety",
    "unsafe_variables",
]
