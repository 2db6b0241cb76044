"""Tests for constrained types, schemes and Definitions 1-3."""

from __future__ import annotations

import pytest

from repro.core.constraints import CLoc, FALSE, TRUE, conj, imp, solve
from repro.core.schemes import (
    ConstrainedType,
    Subst,
    TypeEnv,
    TypeScheme,
    generalize,
    instantiate,
    mono,
    scheme_of,
)
from repro.core.types import BOOL, INT, TArrow, TPair, TPar, TVar, free_type_vars


class TestConstrainedType:
    def test_free_vars_union_type_and_constraint(self):
        ct = ConstrainedType(TVar("a"), CLoc("b"))
        assert ct.free_vars() == {"a", "b"}

    def test_display_without_constraint(self):
        assert str(ConstrainedType(INT)) == "int"

    def test_display_with_constraint(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        assert str(ct) == "['a / L('a)]"


class TestScheme:
    def test_scheme_of_quantifies_all_type_vars(self):
        scheme = scheme_of(TArrow(TVar("a"), TVar("b")))
        assert set(scheme.quantified) == {"a", "b"}

    def test_free_vars_exclude_quantified(self):
        scheme = TypeScheme(("a",), ConstrainedType(TArrow(TVar("a"), TVar("b"))))
        assert scheme.free_vars() == {"b"}

    def test_mono_quantifies_nothing(self):
        assert mono(TVar("a")).quantified == ()


class TestDefinition1Substitution:
    """phi([tau/C]) = [phi tau / phi C /\\ AND C_{phi(beta)}]."""

    def test_plain_rewrite(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        result = Subst({"a": INT}).apply_constrained(ct)
        assert result.type == INT
        assert result.constraint == TRUE

    def test_rewrite_to_false(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        result = Subst({"a": TPar(INT)}).apply_constrained(ct)
        assert result.constraint == FALSE

    def test_basic_constraints_of_images_are_added(self):
        # Substituting a := (b par) must add C_(b par) = L(b) even though
        # the original constraint never mentioned locality.
        ct = ConstrainedType(TVar("a"), TRUE)
        result = Subst({"a": TPar(TVar("b"))}).apply_constrained(ct)
        assert result.constraint == CLoc("b")

    def test_fourth_projection_instantiation(self):
        # fst : [(a * b) -> a / L(a) => L(b)]; instantiating at
        # a := int, b := int par makes the constraint False (Figure 10).
        fst_type = TArrow(TPair(TVar("a"), TVar("b")), TVar("a"))
        ct = ConstrainedType(fst_type, imp(CLoc("a"), CLoc("b")))
        result = Subst({"a": INT, "b": TPar(INT)}).apply_constrained(ct)
        assert solve(result.constraint) == FALSE

    def test_third_projection_instantiation(self):
        # a := int par, b := int gives False => True = True (Figure 9).
        fst_type = TArrow(TPair(TVar("a"), TVar("b")), TVar("a"))
        ct = ConstrainedType(fst_type, imp(CLoc("a"), CLoc("b")))
        result = Subst({"a": TPar(INT), "b": INT}).apply_constrained(ct)
        assert solve(result.constraint) == TRUE

    def test_untouched_variables_add_nothing(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        result = Subst({"zzz": TPar(INT)}).apply_constrained(ct)
        assert result == ct

    def test_scheme_substitution_renames_out_of_reach(self):
        # phi = {a := int} on (forall a. [a / L(a)]) must not touch the
        # bound variable.
        scheme = TypeScheme(("a",), ConstrainedType(TVar("a"), CLoc("a")))
        result = Subst({"a": INT}).apply_scheme(scheme)
        assert len(result.quantified) == 1
        inner = result.body.type
        assert isinstance(inner, TVar)
        assert inner.name != "a" or inner.name in result.quantified


class TestSubstAlgebra:
    def test_identity(self):
        assert Subst.identity().apply_type(TVar("a")) == TVar("a")

    def test_compose_order(self):
        # compose(earlier): earlier first. earlier: a := b; later: b := int
        earlier = Subst({"a": TVar("b")})
        later = Subst({"b": INT})
        combined = later.compose(earlier)
        assert combined.apply_type(TVar("a")) == INT
        assert combined.apply_type(TVar("b")) == INT

    def test_compose_keeps_later_entries(self):
        combined = Subst({"b": INT}).compose(Subst({"a": BOOL}))
        assert combined.apply_type(TVar("a")) == BOOL
        assert combined.apply_type(TVar("b")) == INT

    def test_domain(self):
        assert Subst({"a": INT}).domain == {"a"}

    def test_bool(self):
        assert not Subst.identity()
        assert Subst({"a": INT})


class TestInstantiate:
    def test_fresh_variables(self):
        scheme = scheme_of(TArrow(TVar("a"), TVar("a")), CLoc("a"))
        first = instantiate(scheme)
        second = instantiate(scheme)
        assert first.type != second.type  # fresh each time
        assert free_type_vars(first.type).isdisjoint(free_type_vars(second.type))

    def test_constraint_follows_renaming(self):
        scheme = scheme_of(TVar("a"), CLoc("a"))
        ct = instantiate(scheme)
        assert isinstance(ct.type, TVar)
        assert ct.constraint == CLoc(ct.type.name)

    def test_monomorphic_instantiation_is_identity(self):
        scheme = mono(TVar("a"), CLoc("a"))
        ct = instantiate(scheme)
        assert ct.type == TVar("a")
        assert ct.constraint == CLoc("a")


class TestGeneralize:
    def test_quantifies_type_vars_not_in_env(self):
        env = TypeEnv.empty().extend("x", mono(TVar("e")))
        ct = ConstrainedType(TArrow(TVar("a"), TVar("e")))
        scheme = generalize(ct, env)
        assert scheme.quantified == ("a",)

    def test_constraint_only_vars_stay_free(self):
        # Definition 3 quantifies F(tau) \\ F(E): a variable that only
        # occurs in the constraint is not quantified.
        ct = ConstrainedType(INT, imp(CLoc("a"), CLoc("b")))
        scheme = generalize(ct, TypeEnv.empty())
        assert scheme.quantified == ()
        assert scheme.free_vars() == {"a", "b"}


class TestTypeEnv:
    def test_lookup(self):
        env = TypeEnv.empty().extend("x", mono(INT))
        assert env.lookup("x") == mono(INT)
        assert env.lookup("y") is None

    def test_extend_shadows(self):
        env = TypeEnv.empty().extend("x", mono(INT)).extend("x", mono(BOOL))
        assert env.lookup("x") == mono(BOOL)

    def test_extend_is_persistent(self):
        base = TypeEnv.empty()
        base.extend("x", mono(INT))
        assert "x" not in base

    def test_free_vars(self):
        env = TypeEnv.empty().extend("x", mono(TVar("a"), CLoc("b")))
        assert env.free_vars() == {"a", "b"}

    def test_apply_substitution(self):
        env = TypeEnv.empty().extend("x", mono(TVar("a")))
        applied = env.apply(Subst({"a": INT}))
        assert applied.lookup("x").body.type == INT

    def test_long_chains_behave_like_one_dict(self):
        """Extending past the point where recent bindings are folded into
        a new base changes nothing observable: lookups, membership, the
        domain, free variables and iteration order (shadowed names keep
        their first position) all match one dict receiving the same
        insertions, and every intermediate environment stays intact."""
        import random

        rng = random.Random(7)
        env = TypeEnv({f"p{i}": mono(INT) for i in range(50)})
        expected = dict(env.items())
        history = []
        for step in range(400):
            name = rng.choice([f"p{rng.randrange(60)}", f"x{step}", f"y{step % 7}"])
            scheme = mono(TVar(f"v{step}"))
            env = env.extend(name, scheme)
            expected[name] = scheme
            history.append((env, dict(expected)))
        for snapshot, bindings in history[::37] + history[-1:]:
            assert list(snapshot.items()) == list(bindings.items())
            assert snapshot.domain == frozenset(bindings)
            assert snapshot.free_vars() == frozenset().union(
                *(scheme.free_vars() for scheme in bindings.values())
            )
            for name in ("p3", "p55", "y2", "x399", "missing"):
                assert snapshot.lookup(name) is bindings.get(name)
                assert (name in snapshot) == (name in bindings)
