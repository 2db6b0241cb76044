"""Incremental re-inference: edits invalidate exactly their suffix."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.errors import TypingError
from repro.core.incremental import (
    Definition,
    IncrementalChecker,
    assemble_let_chain,
    split_let_chain,
)
from repro.core.infer import infer_scheme
from repro.core.prelude_env import prelude_env
from repro.lang.parser import parse_program


def defs(*pairs):
    return [Definition.parse(name, source) for name, source in pairs]


CHAIN = (
    ("square", "fun x -> x * x"),
    ("quad", "fun x -> square (square x)"),
    ("main", "quad 3"),
)


def test_first_check_infers_everything():
    checker = IncrementalChecker()
    results = checker.check(defs(*CHAIN))
    assert [r.reused for r in results] == [False, False, False]
    assert str(results[0].scheme) == "int -> int"
    assert str(results[2].scheme) == "int"


def test_identical_recheck_reuses_everything():
    checker = IncrementalChecker()
    checker.check(defs(*CHAIN))
    with obs.stats() as stats:
        results = checker.check(defs(*CHAIN))
    assert [r.reused for r in results] == [True, True, True]
    assert stats.counter("incremental.reused") == 3
    assert stats.counter("incremental.inferred") == 0


def test_editing_middle_definition_reinfers_only_downstream():
    checker = IncrementalChecker()
    checker.check(defs(*CHAIN))
    edited = defs(
        CHAIN[0],
        ("quad", "fun x -> square x + square x"),  # the edit
        CHAIN[2],
    )
    with obs.stats() as stats:
        results = checker.check(edited)
    # Upstream reused; the edit and everything after re-inferred (main's
    # environment token changed even though its source did not).
    assert [r.reused for r in results] == [True, False, False]
    assert stats.counter("incremental.inferred") == 2


def test_editing_last_definition_reinfers_one():
    checker = IncrementalChecker()
    checker.check(defs(*CHAIN))
    edited = defs(CHAIN[0], CHAIN[1], ("main", "quad 4"))
    results = checker.check(edited)
    assert [r.reused for r in results] == [True, True, False]


def test_renaming_a_definition_changes_its_token():
    checker = IncrementalChecker()
    first = checker.check(defs(("f", "fun x -> x")))
    second = checker.check(defs(("g", "fun x -> x")))
    assert first[0].token != second[0].token
    assert not second[0].reused


def test_incremental_schemes_match_full_inference():
    checker = IncrementalChecker()
    results = checker.check(defs(*CHAIN))
    env = prelude_env()
    for (name, source), result in zip(CHAIN, results):
        expected = infer_scheme(parse_program(source), env)
        assert str(result.scheme) == str(expected)
        env = env.extend(name, expected)


def test_failing_definition_raises_and_keeps_prefix_cached():
    checker = IncrementalChecker()
    bad = defs(CHAIN[0], ("broken", "square true"))
    with pytest.raises(TypingError):
        checker.check(bad)
    # The good prefix stayed cached.
    results = checker.check(defs(CHAIN[0]))
    assert results[0].reused


def test_prefix_cache_sound_across_shadowing():
    """Same name+source at position 1, but a *different* definition 0 —
    the chain token must not collide and reuse the wrong environment."""
    checker = IncrementalChecker()
    a = checker.check(
        defs(("f", "fun x -> x + 1"), ("g", "fun y -> f y"))
    )
    b = checker.check(
        defs(("f", "fun b -> if b then 1 else 0"), ("g", "fun y -> f y"))
    )
    assert str(a[1].scheme) == "int -> int"
    assert str(b[1].scheme) == "bool -> int"
    assert not b[1].reused


def test_cache_trimming_stays_bounded():
    checker = IncrementalChecker(max_entries=16)
    for i in range(100):
        checker.check(defs((f"d{i}", f"fun x -> x + {i}")))
    assert checker.cache_size() <= 16


def test_split_and_assemble_let_chain_roundtrip():
    program = parse_program("let a = 1 in let b = a + 1 in a + b")
    definitions, body = split_let_chain(program)
    assert [d.name for d in definitions] == ["a", "b"]
    rebuilt = assemble_let_chain(definitions, body)
    from repro.core.digest import expr_digest

    assert expr_digest(rebuilt) == expr_digest(program)


def test_environment_after_supports_downstream_inference():
    checker = IncrementalChecker()
    env = checker.environment_after(defs(*CHAIN[:2]))
    scheme = infer_scheme(parse_program("quad (square 2)"), env)
    assert str(scheme) == "int"
