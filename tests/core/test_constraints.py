"""Tests for the constraint language and the ``Solve`` machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.constraints import (
    FALSE,
    TRUE,
    CAnd,
    CImp,
    CLoc,
    assign,
    basic_constraint,
    conj,
    constraint_atoms,
    evaluate,
    imp,
    is_satisfiable,
    is_satisfiable_branching,
    is_unsatisfiable,
    is_valid,
    locality,
    render_constraint,
    satisfying_assignments,
    simplify,
    solve,
    subst_constraint,
)
from repro.core.types import BOOL, INT, TArrow, TPair, TPar, TTuple, TVar


class TestSmartConstructors:
    def test_conj_unit(self):
        assert conj() == TRUE
        assert conj(TRUE, TRUE) == TRUE

    def test_conj_absorbs_false(self):
        assert conj(CLoc("a"), FALSE) == FALSE

    def test_conj_dedups(self):
        assert conj(CLoc("a"), CLoc("a")) == CLoc("a")

    def test_conj_flattens(self):
        nested = conj(conj(CLoc("a"), CLoc("b")), CLoc("c"))
        assert isinstance(nested, CAnd)
        assert nested.conjuncts == frozenset({CLoc("a"), CLoc("b"), CLoc("c")})

    def test_conj_is_commutative_by_construction(self):
        assert conj(CLoc("a"), CLoc("b")) == conj(CLoc("b"), CLoc("a"))

    def test_imp_true_antecedent(self):
        assert imp(TRUE, CLoc("a")) == CLoc("a")

    def test_imp_false_antecedent(self):
        assert imp(FALSE, CLoc("a")) == TRUE

    def test_imp_true_consequent(self):
        assert imp(CLoc("a"), TRUE) == TRUE

    def test_imp_reflexive(self):
        assert imp(CLoc("a"), CLoc("a")) == TRUE

    def test_imp_to_false_kept(self):
        constraint = imp(CLoc("a"), FALSE)
        assert isinstance(constraint, CImp)

    def test_cand_requires_two(self):
        with pytest.raises(ValueError):
            CAnd(frozenset({CLoc("a")}))


class TestLocality:
    """The paper's L(tau) rules."""

    def test_base_is_local(self):
        assert locality(INT) == TRUE

    def test_var_is_an_atom(self):
        assert locality(TVar("a")) == CLoc("a")

    def test_par_is_never_local(self):
        assert locality(TPar(INT)) == FALSE

    def test_arrow_conjoins(self):
        assert locality(TArrow(TVar("a"), TVar("b"))) == conj(CLoc("a"), CLoc("b"))

    def test_pair_conjoins(self):
        assert locality(TPair(TVar("a"), INT)) == CLoc("a")

    def test_arrow_with_par_side_is_false(self):
        assert locality(TArrow(TVar("a"), TPar(INT))) == FALSE

    def test_tuple(self):
        ty = TTuple((TVar("a"), TVar("b"), INT))
        assert locality(ty) == conj(CLoc("a"), CLoc("b"))


class TestBasicConstraints:
    """The paper's C_tau rules."""

    def test_atomic(self):
        assert basic_constraint(INT) == TRUE
        assert basic_constraint(TVar("a")) == TRUE

    def test_par_requires_local_content(self):
        assert basic_constraint(TPar(TVar("a"))) == CLoc("a")

    def test_nested_par_is_rejected_outright(self):
        assert basic_constraint(TPar(TPar(INT))) == FALSE

    def test_arrow_rule(self):
        # C_(a -> b) = C_a /\ C_b /\ (L(b) => L(a))
        constraint = basic_constraint(TArrow(TVar("a"), TVar("b")))
        assert constraint == imp(CLoc("b"), CLoc("a"))

    def test_arrow_rule_fires_fourth_projection(self):
        # The type (int * int par) -> int: its basic constraint must be
        # unsatisfiable (L(int) => L(int par) = True => False).
        ty = TArrow(TPair(INT, TPar(INT)), INT)
        assert solve(basic_constraint(ty)) == FALSE

    def test_arrow_rule_allows_third_projection(self):
        # (int par * int) -> int par : L(int par) => ... = False => ... = True
        ty = TArrow(TPair(TPar(INT), INT), TPar(INT))
        assert solve(basic_constraint(ty)) == TRUE

    def test_pair_conjoins(self):
        ty = TPair(TPar(TVar("a")), TPar(TVar("b")))
        assert basic_constraint(ty) == conj(CLoc("a"), CLoc("b"))


class TestSemantics:
    def test_evaluate_atom(self):
        assert evaluate(CLoc("a"), {"a": True})
        assert not evaluate(CLoc("a"), {"a": False})

    def test_evaluate_implication(self):
        constraint = CImp(CLoc("a"), CLoc("b"))
        assert evaluate(constraint, {"a": False, "b": False})
        assert not evaluate(constraint, {"a": True, "b": False})

    def test_evaluate_missing_atom_raises(self):
        with pytest.raises(KeyError):
            evaluate(CLoc("a"), {})

    def test_assign(self):
        constraint = conj(CLoc("a"), imp(CLoc("b"), FALSE))
        assert assign(constraint, "a", True) == imp(CLoc("b"), FALSE)
        assert assign(constraint, "a", False) == FALSE

    def test_satisfiable_examples(self):
        assert is_satisfiable(imp(CLoc("a"), FALSE))  # set a non-local
        assert is_satisfiable(conj(CLoc("a"), CLoc("b")))
        assert not is_satisfiable(conj(CLoc("a"), imp(CLoc("a"), FALSE)))

    def test_valid_examples(self):
        assert is_valid(TRUE)
        assert is_valid(imp(CLoc("a"), CLoc("a")))
        assert not is_valid(CLoc("a"))

    def test_solve_reduces_ground(self):
        assert solve(imp(TRUE, FALSE)) == FALSE
        assert solve(imp(FALSE, TRUE)) == TRUE

    def test_solve_unsat_to_false(self):
        assert solve(conj(CLoc("a"), imp(CLoc("a"), FALSE))) == FALSE

    def test_solve_keeps_residual(self):
        residual = solve(imp(CLoc("a"), CLoc("b")))
        assert residual == imp(CLoc("a"), CLoc("b"))

    def test_satisfying_assignments(self):
        constraint = imp(CLoc("a"), CLoc("b"))
        assignments = satisfying_assignments(constraint)
        assert {"a": True, "b": False} not in assignments
        assert len(assignments) == 3


class TestSubstitution:
    def test_atom_rewrites_to_locality(self):
        assert subst_constraint({"a": TPar(INT)}, CLoc("a")) == FALSE
        assert subst_constraint({"a": INT}, CLoc("a")) == TRUE
        assert subst_constraint({"a": TVar("b")}, CLoc("a")) == CLoc("b")

    def test_structural(self):
        constraint = imp(CLoc("a"), CLoc("b"))
        result = subst_constraint({"a": INT, "b": TPar(INT)}, constraint)
        assert result == FALSE  # True => False

    def test_untouched_atoms_stay(self):
        constraint = conj(CLoc("a"), CLoc("b"))
        assert subst_constraint({"a": INT}, constraint) == CLoc("b")


# -- Horn fast path vs complete branching ------------------------------------

_atoms = st.sampled_from(["a", "b", "c", "d"])


def _atom_conj(draw_atoms):
    return conj(*[CLoc(name) for name in draw_atoms])


_sides = st.lists(_atoms, min_size=0, max_size=3).map(_atom_conj)
_clauses = st.one_of(
    _atoms.map(CLoc),
    st.tuples(_sides, st.one_of(_sides, st.just(FALSE))).map(
        lambda pair: imp(pair[0], pair[1])
    ),
)
_constraints = st.lists(_clauses, min_size=0, max_size=6).map(lambda cs: conj(*cs))


@given(_constraints)
def test_horn_path_agrees_with_branching(constraint):
    assert is_satisfiable(constraint) == is_satisfiable_branching(constraint)


@given(_constraints)
def test_solve_false_iff_no_satisfying_assignment(constraint):
    expected = bool(satisfying_assignments(constraint)) or constraint == TRUE
    assert is_satisfiable(constraint) == expected


@given(_constraints)
def test_simplify_preserves_semantics(constraint):
    simplified = simplify(constraint)
    atoms = constraint_atoms(constraint) | constraint_atoms(simplified)
    names = sorted(atoms)
    for mask in range(1 << len(names)):
        assignment = {n: bool(mask >> i & 1) for i, n in enumerate(names)}
        assert evaluate(constraint, assignment) == evaluate(simplified, assignment)


class TestRendering:
    def test_true_false(self):
        assert render_constraint(TRUE) == "True"
        assert render_constraint(FALSE) == "False"

    def test_atom(self):
        assert render_constraint(CLoc("a")) == "L('a)"

    def test_implication(self):
        assert render_constraint(imp(CLoc("a"), FALSE)) == "L('a) => False"

    def test_conjunction_sorted(self):
        text = render_constraint(conj(CLoc("b"), CLoc("a")))
        assert text == "L('a) /\\ L('b)"

    def test_names_mapping(self):
        assert render_constraint(CLoc("t42"), {"t42": "'z"}) == "L('z)"


class TestSimplifyAndHornMemoization:
    """``simplify`` and ``horn_satisfiable`` are memoized on interned
    node identity in eviction-counting :class:`BoundedMemo` caches, and
    surface through the same ``--stats``/``/v1/stats`` machinery as the
    other solver caches."""

    def _distinct_constraint(self, i: int):
        # Distinct interned nodes per i: an implication chain over
        # uniquely-named atoms (never reused elsewhere in the suite).
        return imp(CLoc(f"memo{i}a"), conj(CLoc(f"memo{i}b"), CLoc(f"memo{i}c")))

    def test_simplify_hits_on_repeated_interned_node(self):
        node = self._distinct_constraint(10_000)
        simplify.cache_clear()
        first = simplify(node)
        info_after_miss = simplify.cache_info()
        second = simplify(node)
        info_after_hit = simplify.cache_info()
        assert first is second
        assert info_after_hit.hits == info_after_miss.hits + 1
        assert info_after_hit.misses == info_after_miss.misses

    def test_horn_satisfiable_hits_on_repeated_interned_node(self):
        from repro.core.constraints import horn_satisfiable

        node = self._distinct_constraint(20_000)
        horn_satisfiable.cache_clear()
        first = horn_satisfiable(node)
        misses = horn_satisfiable.cache_info().misses
        second = horn_satisfiable(node)
        assert first == second is True
        assert horn_satisfiable.cache_info().misses == misses
        assert horn_satisfiable.cache_info().hits >= 1

    def test_simplify_evicts_under_small_bound(self):
        from repro.core.constraints import SOLVER_CACHE_SIZE

        import repro.perf as perf

        perf.resize_registered(8, prefix="constraints.simplify")
        try:
            simplify.cache_clear()
            evictions_before = simplify.evictions
            for i in range(30_000, 30_064):
                simplify(self._distinct_constraint(i))
            assert simplify.evictions > evictions_before
            # Capacity is respected: at most 8 live entries.
            assert simplify.cache_info().currsize <= 8
        finally:
            perf.resize_registered(SOLVER_CACHE_SIZE, prefix="constraints.simplify")
            simplify.cache_clear()

    def test_both_caches_registered_for_stats(self):
        import repro.perf as perf

        names = set(perf.registered_caches())
        assert "constraints.simplify" in names
        assert "constraints.horn_satisfiable" in names

    def test_counters_surface_in_stats_render(self):
        from repro import obs
        from repro.core.constraints import horn_satisfiable

        with obs.stats() as stats:
            for i in range(40_000, 40_004):
                simplify(self._distinct_constraint(i))
                simplify(self._distinct_constraint(i))
                horn_satisfiable(self._distinct_constraint(i))
        reports = {report.name: report for report in stats.cache_reports()}
        assert reports["constraints.simplify"].hits >= 4
        assert reports["constraints.simplify"].misses >= 4
        rendered = stats.render()
        assert "constraints.simplify" in rendered
        assert "constraints.horn_satisfiable" in rendered
