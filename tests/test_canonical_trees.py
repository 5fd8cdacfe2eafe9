"""Condition and query trees are hash-consed as they are built
(``repro._intern``): while a node is alive, building a node with the same
fields returns it.  These rows hold what that must not change — a node's
text, a rule's fingerprint, ``==`` — and what it must give: shared
subtrees, rewrites that return what they do not change, and a table that
holds nothing once the trees are gone.
"""

import gc
import math
import pickle
from collections import defaultdict

import pytest

from repro._intern import EMPTY, canonical_count, singleton, small
from repro.engine import ActiveDatabase
from repro.ptl import ast
from repro.ptl import constraints as cs
from repro.ptl.parser import parse_formula
from repro.ptl.plan import rule_fingerprint
from repro.ptl.rewrite import expand_derived, normalize
from repro.query import ast as qast
from repro.query.parser import parse_query
from repro.query.subst import QueryRegistry, substitute_query
from repro.workloads import make_stock_db
from tests.parse_corpus import load


def nothing(ctx):
    pass


class TestTypeExactLeaves:
    """Equal leaves of different types print differently, so each stays
    its own node: a rule's condition and fingerprint are its own."""

    VALUES = [1, 1.0, True, -0.0, 0.0, math.nan]

    @staticmethod
    def condition(value):
        x = ast.Var("x")
        return ast.And(
            (
                ast.EventAtom("tick", (x,)),
                ast.Comparison(">", x, ast.ConstT(value)),
            )
        )

    def test_leaves_stay_distinct_nodes(self):
        leaves = [ast.ConstT(v) for v in self.VALUES]
        assert len({id(leaf) for leaf in leaves}) == len(self.VALUES)
        assert [str(leaf) for leaf in leaves] == [
            "1", "1.0", "True", "-0.0", "0.0", "nan",
        ]
        # Equality is type-exact: 1, 1.0 and True are three leaves.
        assert leaves[0] != leaves[1] != leaves[2] != leaves[0]
        assert leaves[3] != leaves[4]
        assert ast.ConstT(1.0) is leaves[1]
        assert qast.Const(1) is not qast.Const(True)

    def test_registered_conditions_keep_their_text(self):
        adb = ActiveDatabase()
        manager = adb.rule_manager()
        texts = {}
        for i, value in enumerate(self.VALUES):
            rule = manager.add_trigger(f"c{i}", self.condition(value), nothing)
            texts[rule.name] = (
                str(rule.condition),
                rule_fingerprint(rule.condition),
            )
        for lit in ("1", "1.0"):
            rule = manager.add_trigger(
                f"text{lit}", f"@tick(x) & x > {lit}", nothing
            )
            texts[rule.name] = (
                str(rule.condition),
                rule_fingerprint(rule.condition),
            )
        expected = [
            f"(@tick(x) & x > {value!r})" for value in self.VALUES
        ]
        assert [texts[f"c{i}"][0] for i in range(6)] == expected
        assert [texts[f"c{i}"][1] for i in range(6)] == expected
        assert texts["text1"] == (expected[0], expected[0])
        assert texts["text1.0"] == (expected[1], expected[1])
        assert len({text for text, _ in texts.values()}) == len(self.VALUES)

    def test_a_node_over_an_equal_leaf_of_another_type_is_its_own(self):
        first = parse_formula("x > 1 & @e(x)")
        second = parse_formula("x > 1.0 & @e(x)")
        assert first != second  # a literal's type is part of its value
        assert first is not second
        assert str(first) == "(x > 1 & @e(x))"
        assert str(second) == "(x > 1.0 & @e(x))"
        assert parse_formula("x > 1 & @e(x)") is first

    @pytest.mark.parametrize(
        "make",
        [ast.ConstT, qast.Const, qast.ConstQuery, cs.SConst, cs.CBool],
        ids=lambda c: c.__name__,
    )
    def test_equal_leaves_hash_equal(self, make):
        """``==`` implies equal hashes, NaN included (``hash(nan)`` is
        its object's); an interned leaf is equal only to itself (a
        constraint constant is not interned; a constraint node's ``==``
        is its identity)."""
        values = self.VALUES + [float("nan"), -math.nan, (1, 1.0), (1.0, 1)]
        nodes = [make(v) for v in values]
        for a in nodes:
            equal = [b for b in nodes if a == b]
            assert all(hash(a) == hash(b) for b in equal)
            if make is not cs.SConst:
                assert all(a is b for b in equal)
            if a.value != a.value:
                assert len(equal) == 3  # every NaN
            else:
                assert len(equal) == 1


def ptl_corpus_by_env():
    corpus = load()
    by_env = defaultdict(list)
    for entry in corpus["entries"]:
        fingerprint = entry.get("fingerprint", "")
        if entry["parser"] == "ptl" and fingerprint and "Error:" not in fingerprint:
            by_env[entry["env"]].append(entry)
    return corpus["envs"], by_env


class TestRegisteredCorpus:
    def test_every_ptl_entry_keeps_its_text_and_fingerprint(self):
        """Every PTL text of the parse corpus, registered beside all the
        others of its environment (all alive at once, so sharing what
        they have in common), leaves the condition the plain parse
        recorded: its ``repr``, ``str`` and ``rule_fingerprint``."""
        envs, by_env = ptl_corpus_by_env()
        engines, registered, unsafe = [], 0, 0
        for env_index, entries in by_env.items():
            env = envs[env_index]
            adb = ActiveDatabase()
            for name, params, text in env["queries"]:
                adb.define_query(name, tuple(params), text)
            for item in env["items"]:
                adb.declare_item(item, 0)
            manager = adb.rule_manager()
            engines.append(adb)
            registry = QueryRegistry()
            for name, params, text in env["queries"]:
                registry.define_text(name, tuple(params), text)
            for i, entry in enumerate(entries):
                try:
                    rule = manager.add_trigger(f"r{i}", entry["text"], nothing)
                except Exception as exc:  # noqa: BLE001
                    # A free variable without a domain: refused at
                    # registration, as at the parent.
                    assert type(exc).__name__ == "UnsafeFormulaError", exc
                    unsafe += 1
                    continue
                registered += 1
                plain = parse_formula(entry["text"], registry, env["items"])
                assert repr(rule.condition) == entry["repr"], entry["id"]
                assert str(rule.condition) == str(plain), entry["id"]
                assert rule_fingerprint(rule.condition) == entry["fingerprint"]
        assert registered > 600 and unsafe < 60, (registered, unsafe)


class TestSharing:
    def test_rewrites_return_what_they_do_not_change(self):
        plain = parse_formula("price > 3 & lasttime (@e since @f)", None, ["price"])
        assert expand_derived(plain) is plain
        assert normalize(plain) is plain
        windowed = parse_formula("previously[5] (price > 3)", None, ["price"])
        body = windowed.operand
        normal = normalize(windowed)
        assert normal is not windowed
        # [u := time] (true since (price > 3 & time >= u - 5))
        assert normal.body.rhs.operands[0] is body

    def test_parsed_conditions_share_a_common_subformula(self):
        login = "(!@user_logout('X') since @user_login('X'))"
        first = parse_formula(f"x > 1 & {login}")
        second = parse_formula(f"@e(x) & {login}")
        assert first.operands[1] is second.operands[1]

    def test_substitution_returns_what_it_does_not_change(self):
        query = parse_query(
            "SUM(S.price) FROM STOCK S WHERE S.cat = $c GROUP BY S.name"
        )
        assert substitute_query(query, {}) is query
        assert substitute_query(query, {"other": qast.Const(1)}) is query
        ground = substitute_query(query, {"c": qast.Const("tech")})
        assert ground.group_by == query.group_by  # kept, not dropped
        assert ground.expr is query.expr
        assert str(ground) == (
            "SUM(S.price) FROM STOCK S WHERE S.cat = 'tech' GROUP BY S.name"
        )

    def test_query_symbol_instances_share_their_body(self):
        registry = QueryRegistry()
        registry.define_text(
            "price", ("n",), "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $n"
        )
        a = parse_formula("price(IBM) > 3", registry)
        b = parse_formula("previously (price(IBM) <= 2)", registry)
        assert a.left is b.operand.left
        assert a.left.query.ranges is b.operand.left.query.ranges


class TestTable:
    def test_removing_rules_returns_the_table_to_its_size(self):
        adb = make_stock_db([("S0", 50.0), ("S1", 50.0), ("S2", 50.0)])
        manager = adb.rule_manager()
        gc.collect()
        before = canonical_count()
        for i in range(500):
            manager.add_trigger(
                f"r{i}",
                f"previously[{i % 7 + 1}] (price(S{i % 3}) > {100 + i})",
                nothing,
            )
        assert canonical_count() > before + 500
        for i in range(500):
            manager.remove_rule(f"r{i}")
        gc.collect()
        assert canonical_count() == before

    def test_a_pickled_tree_loads_as_the_canonical_node(self):
        registry = QueryRegistry()
        registry.define_text(
            "price", ("n",), "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $n"
        )
        condition = parse_formula("@e(x) & x > 1.0 & price(IBM) > 3", registry)
        loaded = pickle.loads(pickle.dumps(condition))
        assert loaded is condition
        assert str(loaded) == str(condition)
        assert "x > 1.0" in str(loaded)

    def test_an_unhashable_leaf_builds_a_private_node(self):
        first = ast.ConstT([1, 2])
        assert first is not ast.ConstT([1, 2])
        assert first == ast.ConstT([1, 2])


class TestSmallSets:
    @pytest.mark.parametrize("items", [(), ("x",), ("x", "y")])
    def test_small_returns_an_equal_set(self, items):
        got = small(frozenset(items))
        assert got == frozenset(items)
        if len(items) <= 1:
            assert got is small(frozenset(items))

    def test_shared_sets(self):
        assert small(frozenset()) is EMPTY
        assert singleton("t") is small(frozenset({"t"}))
        assert ast.Var("t").variables() is singleton("t")
