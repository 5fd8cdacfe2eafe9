"""The golden parse corpus: what each parser makes of the texts the repo
feeds it.

``tests/fixtures/parse_corpus.json`` holds environments (the query
symbols registered, as ``(name, params, query text)``, and the scalar
item names) and entries.  An entry names its parser (``ptl``,
``future``, ``query``, ``expr`` or ``event``), its environment and its
text, and records either the ``repr`` of the AST or the error's class,
message and position; a PTL entry that parses also records its
``rule_fingerprint`` (what a checkpoint identifies the rule by).
``tests/test_parse_corpus.py`` replays every entry.

The texts are every parser input that the tests, the examples, the
paper benchmarks (E1-E10) and the spine workloads pass to a parser
(captured by running them with the public parse functions wrapped;
inputs drawn by hypothesis are left out), the parseable code spans of
``docs/``, seeded ``workloads.generator`` formulas rendered with
``ptl.prettyprint.pretty``, and malformed inputs: each prefix of a few
representative texts and the hand-written list below.

Regenerate it only at a commit whose parsers are the reference, never to
make a failing row pass::

    PYTHONPATH=src python -m tests.parse_corpus
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "parse_corpus.json"

#: Texts each parser must refuse (or, for the unary-minus rows, accept).
MALFORMED = {
    "ptl": [
        "", "(", ")", "@", "@e(", "@e(x,", "price >", "> 3", "x", "x +",
        "!", "not", "previously", "previously[", "previously[x] @e",
        "previously[3 @e", "throughout_past[] @e", "lasttime", "[x := ]",
        "[x 3] @e", "[x := 3 @e", "[ := 3] @e", "[x := -5] (x < 0)",
        "[x := -price(IBM)] previously (price(IBM) > x)",
        "[x := 0 - price(IBM)] previously (price(IBM) > x)",
        "[x := - -5] x < 0", "[x := 2 * -time] x < 0",
        "x < -5", "-x > 3", "- -x > 3", "x * -y < 3",
        "executed()", "executed(r)", "executed(r, t", "@e since",
        "since @e", "@e & | @f", "@e @f", "(@e", "(@e))", "((x) > 3",
        "(x > 3", "x in", "x in {", "x in { RETRIEVE", "{ RETRIEVE (S.a) }",
        "x = {RETRIEVE (S.a) WHERE}", "nosuch(IBM) > 3",
        "avg(price(IBM); @e) > 3", "avg(price(IBM); @e; ) > 3",
        "sum(; @a; @b) > 1", "x > 3 extra", "x > 'open", "x > 3 # note",
        "time > -3", "x mod 2 = 1", "x MOD -2 = 1", "$x > 3", "$ > 3",
        "@e(1.5, 'a', $y)", "x % 2 = 1",
    ],
    "future": [
        "", "next", "eventually[", "eventually[x] @e", "always[2",
        "@a until", "until @a", "(@a until @b", "always (!@req | eventually[5] @ack",
        "always (req -> eventually[5] ack)", "!req | eventually[5] ack",
        "always (!req | eventually[5] ack)", "next next", "@a @b",
        "eventually x > 3", "eventually (x > -3)", "eventually [x := -5] x < 0",
        "always ([x := 0 - 5] x < 0)",
    ],
    "query": [
        "", "RETRIEVE", "RETRIEVE (", "RETRIEVE ()", "RETRIEVE (S.a",
        "RETRIEVE (S.a) FROM", "RETRIEVE (S.a) WHERE", "RETRIEVE (S.a AS)",
        "RETRIEVE (S.a) FROM S,", "sum(", "sum(S.a", "sum(S.a) GROUP",
        "sum(S.a) GROUP BY", "V +", "V * (", "(V", "V]", "V[", "V[1",
        "-V", "V * -2", "- -V", "V - -2", "-(V + 1)", "-3", "2 * -V * 3",
        "V mod -2", "$", "$1", "'unterminated", "V ^ 2", "RETRIEVE (S.a) x y",
        "RETRIEVE (-S.a) WHERE S.a = -1", "RETRIEVE (S.a) WHERE NOT",
        "RETRIEVE (S.a) WHERE S.a = 1 OR", "RETRIEVE (S.a) WHERE (S.a = 1",
        "RETRIEVE (f(S.a,)) FROM S", "avg(S.a) FROM S GROUP BY S.",
    ],
    "expr": [
        "", "1 +", "-", "- -1", "(1", "f(", "f(1,", "a.", "a = = b",
        "NOT", "a AND", "a OR OR b", "TRUE AND FALSE", "-a * -b", "1 2",
    ],
    "event": [
        "", "(", ")", "a |", "| a", "a (", "(a", "a)", "!", "a**", "a?*",
        ".", "a . b", "!(a b)*", "a b c | d", "1", "a,b", "'a'",
    ],
}

#: Texts whose every token prefix is a malformed entry (the complete
#: text is an entry too).
PREFIXED = {
    "ptl": [
        "[t := time] [x := price(IBM)] previously (price(IBM) <= 0.5 * x"
        " & time >= t - 10)",
        "[u := time] avg(price(S1); time <= u - 8; @update_stocks) > 45",
        "price(S2) > 55 & (!@user_logout('X') since @user_login('X'))",
        "executed(rise, t) & time <= t + 4",
        "x in {RETRIEVE (S.name) FROM STOCK S} & previously[3] @e(x)",
    ],
    "future": ["always (!@req | eventually[5] @ack) until next @done"],
    "query": [
        "RETRIEVE (S.price AS p, -S.qty) FROM STOCK S"
        " WHERE S.name = 'IBM' AND NOT S.price < 3 OR S.x >= 2",
        "avg(O.amount) FROM ORDERS O WHERE O.cust = $c GROUP BY O.region",
    ],
    "event": ["!(a b)* | (c? .)*"],
}

_STOCK_QUERY = "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name"
#: The environment of the docs' spans and the malformed entries.
STOCK_ENV = {
    "queries": [
        ["overpriced", [], "RETRIEVE (S.name) FROM STOCK S WHERE S.price >= 300"],
        ["price", ["name"], _STOCK_QUERY],
        ["stock_names", [], "RETRIEVE (S.name) FROM STOCK S"],
    ],
    "items": [],
}
BARE_ENV = {"queries": [], "items": []}


# ---------------------------------------------------------------------------
# Replaying an entry
# ---------------------------------------------------------------------------


def registry(env: dict):
    from repro.query.subst import QueryRegistry

    reg = QueryRegistry()
    for name, params, text in env["queries"]:
        reg.define_text(name, tuple(params), text)
    return reg


def outcome(parser: str, text: str, env: dict) -> dict:
    """What ``parser`` makes of ``text`` in ``env``: ``{"repr": ...}``
    (plus ``"fingerprint"`` for a PTL formula) or ``{"error": [class,
    message, position]}``."""
    from repro.baselines.eventexpr import parse_event_expr
    from repro.ptl.future_parser import parse_future_formula
    from repro.ptl.parser import parse_formula
    from repro.ptl.plan import rule_fingerprint
    from repro.query.parser import parse_expr, parse_query

    try:
        if parser == "ptl":
            result = parse_formula(text, registry(env), env["items"])
        elif parser == "future":
            result = parse_future_formula(text, registry(env), env["items"])
        elif parser == "query":
            result = parse_query(text)
        elif parser == "expr":
            result = parse_expr(text)
        else:
            result = parse_event_expr(text)
    except Exception as exc:  # noqa: BLE001 — the class is the record
        return {
            "error": [
                type(exc).__name__, str(exc), getattr(exc, "position", None)
            ]
        }
    out = {"repr": repr(result)}
    if parser == "ptl":
        try:
            out["fingerprint"] = rule_fingerprint(result)
        except Exception as exc:  # noqa: BLE001
            out["fingerprint"] = f"{type(exc).__name__}: {exc}"
    return out


def load() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Collecting the texts (regeneration only)
# ---------------------------------------------------------------------------


class _Capture:
    """Wraps the public parse functions wherever they are bound and
    records ``(parser, text, env)`` for each call that no hypothesis
    strategy drew."""

    TARGETS = (
        ("repro.ptl.parser", "parse_formula", "ptl"),
        ("repro.ptl.future_parser", "parse_future_formula", "future"),
        ("repro.query.parser", "parse_query", "query"),
        ("repro.query.parser", "parse_expr", "expr"),
        ("repro.baselines.eventexpr", "parse_event_expr", "event"),
    )

    def __init__(self):
        self.seen: set = set()
        self.sources: dict[str, str] = {}  # query def text by identity

    def install(self) -> None:
        import importlib

        from repro.query.subst import QueryRegistry

        define_text = QueryRegistry.define_text
        sources = self.sources

        def remembering(reg, name, params, text):
            qdef = define_text(reg, name, params, text)
            sources[id(qdef)] = (qdef, text)
            return qdef

        QueryRegistry.define_text = remembering
        for module_name, func_name, parser in self.TARGETS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, parser)
            for module in list(sys.modules.values()):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, original, parser):
        def recording(text, *args, **kwargs):
            try:
                return original(text, *args, **kwargs)
            finally:
                reg = kwargs.get("registry", args[0] if args else None)
                items = kwargs.get("items", args[1] if len(args) > 1 else ())
                self._record(parser, text, reg, items)

        return recording

    def _record(self, parser, text, reg, items) -> None:
        if not isinstance(text, str) or _drawn_by_hypothesis():
            return
        queries = []
        if reg:
            for name in reg.names():
                qdef = reg.get(name)
                known = self.sources.get(id(qdef))
                if known is None or known[0] is not qdef:
                    return  # defined from an AST: cannot be replayed
                queries.append((name, tuple(qdef.params), known[1]))
        env = (tuple(queries), tuple(sorted(items or ())))
        self.seen.add((parser, env, text))


def _drawn_by_hypothesis() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if "hypothesis" in frame.f_code.co_filename.replace("\\", "/").split("/"):
            return True
        frame = frame.f_back
    return False


def _run_sources(capture: _Capture) -> None:
    import os
    import runpy
    import tempfile
    from argparse import Namespace

    import pytest

    tests = sorted(
        str(p) for p in (ROOT / "tests").glob("test_*.py")
        if p.name != "test_parse_corpus.py"
    )
    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_e*.py"))
    pytest.main(
        ["-q", "-p", "no:cacheprovider", "--benchmark-disable",
         "-W", "ignore", *tests, *benches]
    )
    for script in sorted((ROOT / "examples").glob("*.py")):
        cwd = os.getcwd()
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit:
            pass
        finally:
            os.chdir(cwd)
    sys.path[:0] = [str(ROOT / "benchmarks")]
    from spine import sut_embedded

    for workload in ("rules_dense", "history_deep"):
        with tempfile.TemporaryDirectory() as root:
            args = Namespace(
                workload=workload, seed=11, scale=0.02, root=root,
                trace=None, oracle=False,
            )
            getattr(sut_embedded, f"run_{workload}")(args, None, lambda: None)


_SPAN = re.compile(r"`([^`\n]+)`")


def _doc_texts():
    """Code spans of ``docs/`` that parse, by parser (≥ 3 tokens; an
    event expression must use one of its operators)."""
    from repro.query.lexer import tokenize

    found = set()
    for doc in sorted((ROOT / "docs").glob("*.md")):
        for span in _SPAN.findall(doc.read_text(encoding="utf-8")):
            try:
                if len(tokenize(span)) < 4:
                    continue
            except Exception:  # noqa: BLE001
                continue
            for parser in ("ptl", "future", "query", "event"):
                if parser == "event" and not set("*?|!") & set(span):
                    continue
                if "error" not in outcome(parser, span, STOCK_ENV):
                    found.add((parser, span))
    return found


def collect() -> dict:
    from repro.ptl.prettyprint import pretty
    from repro.query.lexer import tokenize
    from repro.workloads.generator import random_bounded_pair, random_formula

    capture = _Capture()
    capture.install()
    _run_sources(capture)

    envs: list = [BARE_ENV, STOCK_ENV]
    keyed: set = set()

    def env_index(env: dict) -> int:
        if env not in envs:
            envs.append(env)
        return envs.index(env)

    for parser, (queries, items), text in capture.seen:
        env = {"queries": [[n, list(p), t] for n, p, t in queries],
               "items": list(items)}
        keyed.add((parser, env_index(env), text))
    for parser, text in _doc_texts():
        keyed.add((parser, 1, text))
    for seed in range(100):
        formula = random_formula(seed, max_depth=4, allow_aggregates=True)
        keyed.add(("ptl", 0, pretty(formula)))
    for seed in range(20):
        keyed.add(("ptl", 0, pretty(random_bounded_pair(seed)[0])))
    for parser, texts in MALFORMED.items():
        for text in texts:
            keyed.add((parser, 1, text))
    for parser, texts in PREFIXED.items():
        for text in texts:
            for tok in tokenize(text):
                keyed.add((parser, 1, text[: tok.position].rstrip()))
            keyed.add((parser, 1, text))

    order = ("ptl", "future", "query", "expr", "event")
    entries = []
    counters = dict.fromkeys(order, 0)
    for parser, env, text in sorted(
        keyed, key=lambda k: (order.index(k[0]), k[1], k[2])
    ):
        counters[parser] += 1
        entry = {"id": f"{parser}-{counters[parser]:04d}", "parser": parser,
                 "env": env, "text": text}
        entry.update(outcome(parser, text, envs[env]))
        entries.append(entry)
    return {"envs": envs, "entries": entries}


def main() -> None:
    corpus = collect()
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"{len(corpus['entries'])} entries, {len(corpus['envs'])} envs"
          f" -> {FIXTURE.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
