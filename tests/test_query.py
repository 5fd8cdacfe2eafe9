"""Unit tests for the QUEL-like query language (parser + evaluator)."""

import pytest

from repro.datamodel import FLOAT, INT, STRING, Relation, Schema
from repro.errors import (
    QueryEvaluationError,
    QueryParseError,
    UnknownFunctionError,
    UnknownRelationError,
)
from repro.query import (
    AggregateQuery,
    Cmp,
    Col,
    Const,
    ItemRef,
    QueryRegistry,
    Retrieve,
    eval_query,
    eval_scalar,
    parse_expr,
    parse_query,
)
from repro.query.ast import ConstQuery, ExprQuery, Param, ParamQuery
from repro.query.functions import RunningAggregate
from repro.query.subst import substitute_query
from repro.storage.snapshot import DatabaseState, IndexedItem


@pytest.fixture
def state():
    schema = Schema.of(name=STRING, price=FLOAT, company=STRING, category=STRING)
    stock = Relation.from_values(
        schema,
        [
            ("IBM", 72.0, "IBM Corp", "tech"),
            ("XYZ", 310.0, "XYZ Inc", "tech"),
            ("OIL", 305.0, "Oil Co", "energy"),
        ],
    )
    return DatabaseState(
        {
            "STOCK_FOR_SALE": stock,
            "time": 540,
            "CUM_PRICE": 144.0,
            "TOTAL_UPDATES": 2,
            "PRICES": IndexedItem({("IBM",): 72.0}, default=0.0),
        }
    )


class TestParser:
    def test_paper_overpriced_query(self):
        q = parse_query(
            "RETRIEVE (STOCK_FOR_SALE.name) WHERE STOCK_FOR_SALE.price >= 300"
        )
        assert isinstance(q, Retrieve)
        # FROM-less form: range inferred from the qualified name.
        assert q.ranges[0].relation == "STOCK_FOR_SALE"
        assert isinstance(q.where, Cmp) and q.where.op == ">="

    def test_from_with_alias(self):
        q = parse_query(
            "RETRIEVE (S.name, S.price) FROM STOCK_FOR_SALE S WHERE S.category = 'tech'"
        )
        assert q.ranges[0].alias == "S"
        assert q.targets[0][0] == "name"

    def test_as_renames_target(self):
        q = parse_query("RETRIEVE (S.price * 2 AS double) FROM STOCK_FOR_SALE S")
        assert q.targets[0][0] == "double"

    def test_aggregate_query(self):
        q = parse_query("AVG(S.price) FROM STOCK_FOR_SALE S WHERE S.category = 'tech'")
        assert isinstance(q, AggregateQuery)
        assert q.func == "avg"

    def test_item_expression(self):
        q = parse_query("CUM_PRICE / TOTAL_UPDATES")
        assert isinstance(q, ExprQuery) and q.func == "/"
        assert isinstance(q.args[0], ItemRef)

    def test_item_plain(self):
        q = parse_query("time")
        assert q == ItemRef("time")

    def test_indexed_item(self):
        q = parse_query("PRICES['IBM']")
        assert q == ItemRef("PRICES", (Const("IBM"),))

    def test_param_query(self):
        q = parse_query("$x")
        assert q == ParamQuery("x")

    def test_const_query(self):
        assert parse_query("1") == ConstQuery(1)
        assert parse_query("0.5") == ConstQuery(0.5)

    def test_unary_minus_in_item_expressions(self, state):
        assert parse_query("-V") == ExprQuery("neg", (ItemRef("V"),))
        assert parse_query("V * -2") == ExprQuery(
            "*", (ItemRef("V"), ExprQuery("neg", (ConstQuery(2),)))
        )
        assert eval_scalar(parse_query("CUM_PRICE * -2"), state) == -288.0

    def test_leading_dot_float(self):
        # the paper writes ".5x"-style constants
        e = parse_expr(".5 * 144")
        assert isinstance(e, object)

    def test_parse_error_position(self):
        with pytest.raises(QueryParseError):
            parse_query("RETRIEVE (")

    def test_unterminated_string(self):
        with pytest.raises(QueryParseError):
            parse_query("RETRIEVE (S.name) WHERE S.name = 'oops")

    def test_expr_precedence(self):
        e = parse_expr("1 + 2 * 3")
        env = {}
        from repro.query.evaluator import eval_expr

        assert eval_expr(e, env) == 7

    def test_mod_keyword(self):
        e = parse_expr("time mod 60 = 0")
        from repro.query.evaluator import eval_expr

        assert eval_expr(e, {"time": 540}) is True
        assert eval_expr(e, {"time": 545}) is False


class TestEvaluator:
    def test_retrieve(self, state):
        q = parse_query(
            "RETRIEVE (STOCK_FOR_SALE.name) WHERE STOCK_FOR_SALE.price >= 300"
        )
        result = eval_query(q, state)
        assert {r["name"] for r in result} == {"XYZ", "OIL"}

    def test_retrieve_multiple_ranges(self, state):
        q = parse_query(
            "RETRIEVE (A.name, B.name AS other) FROM STOCK_FOR_SALE A, STOCK_FOR_SALE B "
            "WHERE A.price < B.price"
        )
        result = eval_query(q, state)
        assert len(result) == 3  # IBM<OIL, IBM<XYZ, OIL<XYZ

    def test_aggregate(self, state):
        q = parse_query("COUNT(S.name) FROM STOCK_FOR_SALE S")
        assert eval_query(q, state) == 3
        q = parse_query("MAX(S.price) FROM STOCK_FOR_SALE S")
        assert eval_query(q, state) == 310.0

    def test_group_by(self, state):
        q = parse_query(
            "SUM(S.price) FROM STOCK_FOR_SALE S GROUP BY S.category"
        )
        result = eval_query(q, state)
        by_cat = {r["category"]: r["sum"] for r in result}
        assert by_cat == {"tech": 382.0, "energy": 305.0}

    def test_group_by_multiple_columns(self, state):
        q = parse_query(
            "COUNT(S.name) FROM STOCK_FOR_SALE S "
            "GROUP BY S.category, S.company"
        )
        result = eval_query(q, state)
        assert len(result) == 3
        assert all(r["count"] == 1 for r in result)

    def test_group_by_with_where(self, state):
        q = parse_query(
            "COUNT(S.name) FROM STOCK_FOR_SALE S WHERE S.price >= 300 "
            "GROUP BY S.category"
        )
        result = eval_query(q, state)
        by_cat = {r["category"]: r["count"] for r in result}
        assert by_cat == {"tech": 1, "energy": 1}

    def test_group_by_str_roundtrip(self, state):
        text = "SUM(S.price) FROM STOCK_FOR_SALE S GROUP BY S.category"
        q = parse_query(text)
        assert parse_query(str(q)) == q

    def test_scalar_unwrap(self, state):
        q = parse_query(
            "RETRIEVE (S.price) FROM STOCK_FOR_SALE S WHERE S.name = 'IBM'"
        )
        assert eval_scalar(q, state) == 72.0

    def test_item_arithmetic(self, state):
        q = parse_query("CUM_PRICE / TOTAL_UPDATES")
        assert eval_query(q, state) == 72.0

    def test_time_item(self, state):
        assert eval_scalar(parse_query("time"), state) == 540

    def test_indexed_item(self, state):
        assert eval_scalar(parse_query("PRICES['IBM']"), state) == 72.0
        assert eval_scalar(parse_query("PRICES['ZZZ']"), state) == 0.0

    def test_param_resolution(self, state):
        q = parse_query("$x")
        assert eval_query(q, state, {"x": 9}) == 9
        with pytest.raises(QueryEvaluationError):
            eval_query(q, state)

    def test_unknown_relation(self, state):
        q = parse_query("RETRIEVE (Z.a) FROM Z")
        with pytest.raises(UnknownRelationError):
            eval_query(q, state)

    def test_division_by_zero(self, state):
        q = parse_query("CUM_PRICE / 0")
        with pytest.raises(QueryEvaluationError):
            eval_query(q, state)

    def test_unknown_function(self):
        from repro.query.functions import scalar_function

        with pytest.raises(UnknownFunctionError):
            scalar_function("frobnicate")


class TestRegistry:
    def test_named_query_instantiation(self, state):
        reg = QueryRegistry()
        reg.define_text(
            "price",
            ("name",),
            "RETRIEVE (S.price) FROM STOCK_FOR_SALE S WHERE S.name = $name",
        )
        q = reg.get("price").instantiate((Const("IBM"),))
        assert eval_scalar(q, state) == 72.0

    def test_instantiate_with_param_passthrough(self, state):
        reg = QueryRegistry()
        reg.define_text(
            "price",
            ("name",),
            "RETRIEVE (S.price) FROM STOCK_FOR_SALE S WHERE S.name = $name",
        )
        q = reg.get("price").instantiate((Param("x"),))
        assert eval_scalar(q, state, {"x": "XYZ"}) == 310.0

    def test_arity_check(self):
        reg = QueryRegistry()
        reg.define_text("f", ("a", "b"), "$a")
        with pytest.raises(Exception):
            reg.get("f").instantiate((Const(1),))

    def test_substitute_paramquery(self):
        q = substitute_query(ParamQuery("x"), {"x": Const(3)})
        assert q == ConstQuery(3)


class TestRunningAggregate:
    def test_sum_count_avg(self):
        agg = RunningAggregate("avg")
        agg.add_all([10, 20, 30])
        assert agg.value() == 20
        assert agg.count == 3
        agg.reset()
        assert agg.value_or(None) is None

    def test_min_max(self):
        mx = RunningAggregate("max")
        mx.add_all([3, 9, 5])
        assert mx.value() == 9
        mn = RunningAggregate("min")
        mn.add_all([3, 9, 5])
        assert mn.value() == 3

    def test_count_empty_is_zero(self):
        assert RunningAggregate("count").value() == 0
        assert RunningAggregate("sum").value() == 0

    def test_empty_avg_raises(self):
        with pytest.raises(QueryEvaluationError):
            RunningAggregate("avg").value()

    def test_unknown_aggregate(self):
        with pytest.raises(UnknownFunctionError):
            RunningAggregate("median")
