"""Tests for free variables, substitution and alpha-equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.lang.ast import App, Const, Fun, If, Let, Pair, Prim, Var
from repro.lang.parser import parse_expression
from repro.lang.substitution import (
    alpha_equal,
    bound_names,
    free_vars,
    fresh_name,
    rename_apart,
    substitute,
    substitute_many,
)


def parse(source):
    return parse_expression(source)


class TestFreeVars:
    def test_variable_is_free(self):
        assert free_vars(Var("x")) == {"x"}

    def test_constant_has_none(self):
        assert free_vars(Const(3)) == frozenset()

    def test_fun_binds_its_parameter(self):
        assert free_vars(parse("fun x -> x y")) == {"y"}

    def test_let_binds_only_in_body(self):
        # x is free in the bound expression, bound in the body.
        assert free_vars(parse("let x = x in x")) == {"x"}

    def test_let_body_other_vars_free(self):
        assert free_vars(parse("let x = 1 in x + y")) == {"y"}

    def test_shadowing(self):
        assert free_vars(parse("fun x -> fun x -> x")) == frozenset()

    def test_application_unions(self):
        assert free_vars(parse("f (g x)")) == {"f", "g", "x"}

    def test_ifat_collects_all_positions(self):
        assert free_vars(parse("if a at b then c else d")) == {"a", "b", "c", "d"}


class TestFreeVarsMemo:
    def test_repeated_calls_hit_the_cache(self):
        from repro import obs

        expr = parse("fun x -> x + y")
        with obs.stats() as stats:
            first = free_vars(expr)
            second = free_vars(expr)
            third = free_vars(expr)
        assert first is second is third  # the cached frozenset itself
        assert first == {"y"}
        assert stats.counter("lang.free_vars.hit") >= 2
        misses = stats.counter("lang.free_vars.miss")
        assert 0 < misses <= expr.size()

    def test_subterms_are_cached_by_the_outer_walk(self):
        from repro import obs

        expr = parse("(fun x -> x + y) (y + z)")
        free_vars(expr)  # populates every node's cache
        with obs.stats() as stats:
            assert free_vars(expr.fn) == {"y"}
            assert free_vars(expr.arg) == {"y", "z"}
        assert stats.counter("lang.free_vars.miss") == 0
        assert stats.counter("lang.free_vars.hit") == 2

    def test_substitution_results_are_fresh_nodes(self):
        # substitute() builds new nodes on the rewritten spine, so their
        # (uncached) free-variable sets are computed correctly.
        expr = parse("x + y")
        rewritten = substitute(expr, "x", Const(1))
        assert free_vars(rewritten) == {"y"}
        assert free_vars(expr) == {"x", "y"}


class TestSubstitute:
    def test_variable_hit(self):
        assert substitute(Var("x"), "x", Const(1)) == Const(1)

    def test_variable_miss(self):
        assert substitute(Var("y"), "x", Const(1)) == Var("y")

    def test_shadowed_by_fun(self):
        expr = parse("fun x -> x")
        assert substitute(expr, "x", Const(1)) == expr

    def test_shadowed_by_let(self):
        expr = parse("let x = 2 in x")
        assert substitute(expr, "x", Const(1)) == parse("let x = 2 in x")

    def test_let_bound_part_is_substituted(self):
        expr = parse("let y = x in y")
        assert substitute(expr, "x", Const(1)) == parse("let y = 1 in y")

    def test_capture_avoidance_fun(self):
        # (fun y -> x)[x <- y] must NOT become fun y -> y.
        expr = Fun("y", Var("x"))
        result = substitute(expr, "x", Var("y"))
        assert isinstance(result, Fun)
        assert result.param != "y"
        assert result.body == Var("y")

    def test_capture_avoidance_let(self):
        expr = Let("y", Const(0), Var("x"))
        result = substitute(expr, "x", Var("y"))
        assert isinstance(result, Let)
        assert result.name != "y"
        assert result.body == Var("y")

    def test_capture_avoidance_preserves_meaning(self):
        # ((fun y -> x + y)[x <- y]) 1 applied at y=10 is 10 + 1.
        from repro.semantics.smallstep import evaluate

        expr = substitute(parse("fun y -> x + y"), "x", Const(10))
        assert evaluate(App(expr, Const(1)), 1) == Const(11)

    def test_substitute_inside_parallel_syntax(self):
        expr = parse("mkpar (fun i -> x)")
        result = substitute(expr, "x", Const(9))
        assert result == parse("mkpar (fun i -> 9)")

    def test_substitute_many_requires_closed(self):
        with pytest.raises(ValueError, match="closed"):
            substitute_many(Var("x"), {"x": Var("y")})

    def test_substitute_many(self):
        expr = parse("x + y")
        result = substitute_many(expr, {"x": Const(1), "y": Const(2)})
        assert result == parse("1 + 2")


class TestAlphaEqual:
    def test_identical(self):
        assert alpha_equal(parse("fun x -> x"), parse("fun x -> x"))

    def test_renamed_parameter(self):
        assert alpha_equal(parse("fun x -> x"), parse("fun y -> y"))

    def test_renamed_let(self):
        assert alpha_equal(parse("let a = 1 in a"), parse("let b = 1 in b"))

    def test_different_structure(self):
        assert not alpha_equal(parse("fun x -> x"), parse("fun x -> 1"))

    def test_free_variables_must_match(self):
        assert not alpha_equal(Var("x"), Var("y"))

    def test_mixed_binding_depth(self):
        left = parse("fun x -> fun y -> x")
        right = parse("fun y -> fun x -> y")
        assert alpha_equal(left, right)

    def test_not_confused_by_shadowing(self):
        left = parse("fun x -> fun x -> x")
        right = parse("fun a -> fun b -> a")
        assert not alpha_equal(left, right)

    def test_bound_vs_free_mismatch(self):
        assert not alpha_equal(parse("fun x -> x"), parse("fun x -> y"))


class TestFreshAndRename:
    def test_fresh_name_avoids(self):
        name = fresh_name({"x", "x'1"}, "x")
        assert name not in {"x", "x'1"}

    def test_bound_names(self):
        expr = parse("fun a -> let b = 1 in a")
        assert bound_names(expr) == {"a", "b"}

    def test_rename_apart_keeps_meaning(self):
        from repro.semantics.smallstep import evaluate

        expr = parse("(fun x -> x + 1) 2")
        renamed = rename_apart(expr, avoid={"x"})
        assert "x" not in bound_names(renamed)
        assert evaluate(renamed, 1) == Const(3)

    def test_rename_apart_distinct_binders(self):
        expr = parse("(fun x -> x) ((fun x -> x) 1)")
        renamed = rename_apart(expr, avoid=set())
        names = []
        for node in renamed.walk():
            if isinstance(node, Fun):
                names.append(node.param)
        assert len(names) == len(set(names))


@given(st.integers(min_value=0, max_value=10_000))
def test_substitution_never_changes_other_free_vars(seed):
    from repro.testing.generators import ProgramGenerator

    generator = ProgramGenerator(seed=seed)
    expr = generator.expression(depth=3)
    # Programs are closed; substituting any name is the identity.
    assert substitute(expr, "zzz_unused", Const(1)) == expr
