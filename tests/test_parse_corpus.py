"""Every parser gives what the golden corpus recorded: the same AST, or
the same error class, message and position, and for a PTL formula the
same ``rule_fingerprint`` (``tests/parse_corpus.py`` says where the
texts come from and how the fixture is made)."""

import pytest

from tests.parse_corpus import load, outcome

CORPUS = load()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=lambda e: e["id"])
def test_corpus_entry(entry):
    expected = {
        key: entry[key] for key in ("repr", "fingerprint", "error") if key in entry
    }
    if "error" in expected:
        expected["error"] = list(expected["error"])
    env = CORPUS["envs"][entry["env"]]
    assert outcome(entry["parser"], entry["text"], env) == expected
