"""Tests for the recursion-headroom guard and deep programs."""

from __future__ import annotations

import sys

import pytest

from repro.core.infer import infer
from repro.core.types import render_type
from repro.lang.limits import deep_recursion
from repro.lang.parser import parse_expression
from repro.semantics.bigstep import run


class TestDeepRecursion:
    def test_raises_and_restores(self):
        before = sys.getrecursionlimit()
        with deep_recursion(before + 1000):
            assert sys.getrecursionlimit() == before + 1000
        assert sys.getrecursionlimit() == before

    def test_never_lowers(self):
        before = sys.getrecursionlimit()
        with deep_recursion(10):
            assert sys.getrecursionlimit() == before

    def test_restores_on_exception(self):
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeError):
            with deep_recursion(before + 1000):
                raise RuntimeError("boom")
        assert sys.getrecursionlimit() == before


class TestDeepPrograms:
    def _tower(self, n: int) -> str:
        lines = [
            f"let x{i} = x{i-1} + 1 in" if i else "let x0 = 0 in"
            for i in range(n)
        ]
        lines.append(f"x{n-1}")
        return "\n".join(lines)

    def test_parse_500_deep(self):
        expr = parse_expression(self._tower(500))
        assert expr.size() > 1000

    def test_infer_500_deep(self):
        ct = infer(parse_expression(self._tower(500)))
        assert render_type(ct.type) == "int"

    def test_evaluate_500_deep(self):
        assert run(parse_expression(self._tower(500)), 1) == 499

    def test_deeply_nested_parens(self):
        source = "(" * 300 + "42" + ")" * 300
        assert run(parse_expression(source), 1) == 42

    def test_deep_application_chain(self):
        source = "let f = fun x -> x + 1 in " + "f (" * 200 + "0" + ")" * 200
        assert run(parse_expression(source), 1) == 200

    @pytest.mark.parametrize("use_prelude", [False, True])
    def test_run_program_links_the_prelude_under_the_guard(self, use_prelude):
        from repro import run_program

        source = " + ".join(["1"] * 1500)
        result = run_program(source, p=2, use_prelude=use_prelude)
        assert result.python_value == 1500
