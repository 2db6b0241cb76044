"""Locality constraints and the ``Solve`` function (paper section 4).

Constraints are formulas of a fragment of propositional calculus::

    C ::= True | False | L(alpha) | C1 /\\ C2 | C1 => C2

where the atoms ``L(alpha)`` assert that the type variable ``alpha`` may
only be instantiated with *local* types (types without ``par``).

The paper works modulo ``True /\\ C = C``, ``C /\\ C = C`` and commutativity
of ``/\\``; the smart constructors here normalize accordingly (conjunctions
are flattened, deduplicated sets).

Two semantic notions are provided:

* :func:`evaluate` — the value of a *ground* constraint under a locality
  assignment of its atoms (Definition 4's ``phi |= C``).
* :func:`solve` — the paper's ``Solve``: boolean simplification, with a
  complete satisfiability decision on top (:func:`is_unsatisfiable`).
  A typing rule is inapplicable exactly when its constraint is
  unsatisfiable, i.e. ``Solve(C) = False`` for every instantiation.

Atoms only ever mention type *variables*: the locality of a compound type
is pushed to its variables with :func:`locality` (the paper's ``L(tau)``
rules), so substituting a type for a variable rewrites the atom into the
image's locality formula.

Performance layer (see DESIGN.md): constraint nodes are **hash-consed**
with the same metaclass as types, so equality is pointer-fast and the
conjunction sets of :func:`conj` dedupe by identity.  On top of that,
:func:`solve`, :func:`is_satisfiable`, :func:`is_valid`,
:func:`locality` and :func:`basic_constraint` are memoized in bounded,
eviction-counting LRU caches (:class:`repro.perf.memo.BoundedMemo`)
keyed on interned nodes — all nodes are immutable, so the caches need no
invalidation, ever, and *eviction* is the only way an entry leaves.
Bounding matters beyond memory for the caches themselves: cache entries
hold strong references to the interned key nodes, so a bounded cache is
also what keeps the weak hash-cons pools from growing without bound over
a server lifetime.  Every cold inference draws fresh variables, so its
nodes are new keys: the bound (:data:`SOLVER_CACHE_SIZE` entries per
cache) is what caps the memory a long-running server spends on them, and
one cache entry may keep a whole interned subterm alive.  The caches
register themselves with :mod:`repro.perf` for hit-rate and eviction
reporting (``--stats``); the bound is set by ``REPRO_SOLVER_CACHE_SIZE``
at import or :func:`repro.perf.resize_registered` at runtime.

Free-variable and atom queries (:func:`constraint_atoms`, and
:func:`repro.core.types.free_type_vars` for types) are not memo tables:
each interned node caches its own set, composed from its parts' sets, so
the set lives exactly as long as the node.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro import obs, perf
from repro.perf.memo import bounded_memo
from repro.core.types import (
    TArrow,
    TBase,
    TPair,
    TPar,
    TRef,
    TSum,
    TTuple,
    TVar,
    Type,
    _InternMeta,
    composed_vars,
)

#: Default bound on each solver-layer memoization cache (entries, not
#: bytes); override with ``REPRO_SOLVER_CACHE_SIZE`` before import, or
#: resize the registered caches at runtime (``perf.resize_registered``).
#: Large enough that warm re-checks of a program hit (see
#: ``benchmarks/bench_solver_cache.py``), small enough that the nodes the
#: caches keep alive for cold requests' fresh variables plateau instead
#: of growing with the number of requests served.
SOLVER_CACHE_SIZE = int(os.environ.get("REPRO_SOLVER_CACHE_SIZE", "4096"))


@dataclass(frozen=True, eq=False)
class Constraint(metaclass=_InternMeta):
    """Base class of locality constraints.

    Instances are interned: ``==`` and ``hash`` are identity-based, which
    coincides with structural equality because every construction path
    yields the pooled representative (see :class:`_InternMeta`).
    """

    #: The node's atom names, filled in by :func:`constraint_atoms`.
    _vars = None

    def children(self) -> Iterable["Constraint"]:
        return ()

    def __str__(self) -> str:
        return render_constraint(self)


@dataclass(frozen=True, eq=False)
class CTrue(Constraint):
    """The always-satisfied constraint."""


@dataclass(frozen=True, eq=False)
class CFalse(Constraint):
    """The never-satisfied constraint."""


@dataclass(frozen=True, eq=False)
class CLoc(Constraint):
    """The atom ``L(alpha)``: variable ``alpha`` must be a local type."""

    var: str


@dataclass(frozen=True, eq=False)
class CAnd(Constraint):
    """A conjunction of two or more distinct constraints.

    Always built through :func:`conj`, which flattens, deduplicates and
    removes units; a ``CAnd`` therefore never contains ``CTrue``,
    ``CFalse``, another ``CAnd``, or duplicates.
    """

    conjuncts: FrozenSet[Constraint]

    def __post_init__(self) -> None:
        if len(self.conjuncts) < 2:
            raise ValueError("CAnd needs >= 2 conjuncts; use conj()")

    def children(self) -> Iterable[Constraint]:
        return self.conjuncts


@dataclass(frozen=True, eq=False)
class CImp(Constraint):
    """An implication ``antecedent => consequent``."""

    antecedent: Constraint
    consequent: Constraint

    def children(self) -> Iterable[Constraint]:
        return (self.antecedent, self.consequent)


#: Singletons, for convenience and identity checks.
TRUE = CTrue()
FALSE = CFalse()


def conj(*constraints: Constraint) -> Constraint:
    """Smart conjunction: flattens, drops ``True``, dedups, absorbs ``False``."""
    flat: set = set()
    for constraint in constraints:
        if isinstance(constraint, CTrue):
            continue
        if isinstance(constraint, CFalse):
            return FALSE
        if isinstance(constraint, CAnd):
            flat.update(constraint.conjuncts)
        else:
            flat.add(constraint)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return next(iter(flat))
    return CAnd(frozenset(flat))


def conj_all(constraints: Iterable[Constraint]) -> Constraint:
    """Conjunction of an iterable of constraints."""
    return conj(*constraints)


def imp(antecedent: Constraint, consequent: Constraint) -> Constraint:
    """Smart implication with the usual unit laws.

    ``True => C`` is ``C``; ``False => C`` and ``C => True`` are ``True``;
    ``C => C`` is ``True``.  ``C => False`` is kept symbolic (the paper has
    no negation).
    """
    if isinstance(antecedent, CTrue):
        return consequent
    if isinstance(antecedent, CFalse):
        return TRUE
    if isinstance(consequent, CTrue):
        return TRUE
    if antecedent == consequent:
        return TRUE
    return CImp(antecedent, consequent)


# -- locality of a type ---------------------------------------------------


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.locality")
def locality(ty: Type) -> Constraint:
    """The paper's ``L(tau)`` as a constraint over the variables of ``tau``.

    * ``L(kappa) = True`` for base types
    * ``L(alpha) = L(alpha)`` (an atom)
    * ``L(tau par) = False``
    * ``L(tau1 -> tau2) = L(tau1) /\\ L(tau2)``
    * ``L(tau1 * tau2) = L(tau1) /\\ L(tau2)`` (tuples pointwise)

    Memoized on the interned type node; recursive calls share the cache,
    so shared subterms are computed once per process lifetime.
    """
    if isinstance(ty, TBase):
        return TRUE
    if isinstance(ty, TVar):
        return CLoc(ty.name)
    if isinstance(ty, TPar):
        return FALSE
    if isinstance(ty, TArrow):
        return conj(locality(ty.domain), locality(ty.codomain))
    if isinstance(ty, TPair):
        return conj(locality(ty.first), locality(ty.second))
    if isinstance(ty, TTuple):
        return conj_all(locality(item) for item in ty.items)
    if isinstance(ty, TSum):
        return conj(locality(ty.left), locality(ty.right))
    if isinstance(ty, TRef):
        # A reference is replicable state: local exactly when its content
        # is (imperative extension; contents are constrained local anyway).
        return locality(ty.content)
    raise TypeError(f"locality: unknown type node {type(ty).__name__}")


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.basic_constraint")
def basic_constraint(ty: Type) -> Constraint:
    """The paper's basic constraints ``C_tau``.  Memoized like :func:`locality`.

    * ``C_tau = True`` when ``tau`` is atomic (a base type or a variable)
    * ``C_(tau par) = L(tau) /\\ C_tau`` — vector contents must be local
    * ``C_(tau1 -> tau2) = C_tau1 /\\ C_tau2 /\\ (L(tau2) => L(tau1))`` — a
      function with a local result must have a local argument (this is the
      conjunct that rejects the fourth projection ``fst (1, mkpar ...)``)
    * ``C_(tau1 * tau2) = C_tau1 /\\ C_tau2`` (tuples pointwise)
    """
    if isinstance(ty, (TBase, TVar)):
        return TRUE
    if isinstance(ty, TPar):
        return conj(locality(ty.content), basic_constraint(ty.content))
    if isinstance(ty, TArrow):
        return conj(
            basic_constraint(ty.domain),
            basic_constraint(ty.codomain),
            imp(locality(ty.codomain), locality(ty.domain)),
        )
    if isinstance(ty, TPair):
        return conj(basic_constraint(ty.first), basic_constraint(ty.second))
    if isinstance(ty, TTuple):
        return conj_all(basic_constraint(item) for item in ty.items)
    if isinstance(ty, TSum):
        return conj(basic_constraint(ty.left), basic_constraint(ty.right))
    if isinstance(ty, TRef):
        # Like vectors: reference contents must be local.
        return conj(locality(ty.content), basic_constraint(ty.content))
    raise TypeError(f"basic_constraint: unknown type node {type(ty).__name__}")


# -- structure ------------------------------------------------------------


def _atom_name(node: Constraint) -> Optional[str]:
    return node.var if isinstance(node, CLoc) else None


def constraint_atoms(constraint: Constraint) -> FrozenSet[str]:
    """Names of the type variables whose locality the constraint mentions
    (cached per interned node and composed from the parts' cached sets,
    see :func:`repro.core.types.composed_vars`)."""
    return composed_vars(constraint, _atom_name)


#: Alias: the free variables of a constraint are exactly its atoms' names.
free_constraint_vars = constraint_atoms


def subst_constraint(mapping: Dict[str, Type], constraint: Constraint) -> Constraint:
    """Apply a type substitution to a constraint.

    Each atom ``L(alpha)`` with ``alpha`` in the mapping becomes the
    locality formula of the image type, per the paper's remark that
    substitution acts on constraints "by trivial structural induction"
    combined with the ``L`` rules.
    """
    if isinstance(constraint, CLoc):
        image = mapping.get(constraint.var)
        return constraint if image is None else locality(image)
    if isinstance(constraint, CAnd):
        return conj_all(subst_constraint(mapping, part) for part in constraint.conjuncts)
    if isinstance(constraint, CImp):
        return imp(
            subst_constraint(mapping, constraint.antecedent),
            subst_constraint(mapping, constraint.consequent),
        )
    return constraint


# -- semantics ------------------------------------------------------------


def evaluate(constraint: Constraint, assignment: Dict[str, bool]) -> bool:
    """Evaluate a constraint under a total locality assignment (Def. 4).

    Raises :class:`KeyError` if an atom is missing from ``assignment``.
    """
    if isinstance(constraint, CTrue):
        return True
    if isinstance(constraint, CFalse):
        return False
    if isinstance(constraint, CLoc):
        return assignment[constraint.var]
    if isinstance(constraint, CAnd):
        return all(evaluate(part, assignment) for part in constraint.conjuncts)
    if isinstance(constraint, CImp):
        return (not evaluate(constraint.antecedent, assignment)) or evaluate(
            constraint.consequent, assignment
        )
    raise TypeError(f"evaluate: unknown constraint {type(constraint).__name__}")


def assign(constraint: Constraint, var: str, value: bool) -> Constraint:
    """Substitute a truth value for one atom and re-normalize."""
    if isinstance(constraint, CLoc):
        if constraint.var == var:
            return TRUE if value else FALSE
        return constraint
    if isinstance(constraint, CAnd):
        return conj_all(assign(part, var, value) for part in constraint.conjuncts)
    if isinstance(constraint, CImp):
        return imp(
            assign(constraint.antecedent, var, value),
            assign(constraint.consequent, var, value),
        )
    return constraint


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.simplify")
def simplify(constraint: Constraint) -> Constraint:
    """Re-normalize a constraint bottom-up using the smart constructors.

    The constructors already keep constraints normalized, so this is a
    cheap identity-or-cleanup pass; it exists for constraints built
    directly from the dataclass constructors (e.g. in tests).  Memoized
    on the interned node (``constraints.simplify.hit/miss`` in the cache
    report): :func:`is_satisfiable`, :func:`is_valid` and :func:`solve`
    all simplify first, and the inference engines re-check overlapping
    conclusion constraints at every rule boundary, so the same interned
    nodes come back constantly.
    """
    if isinstance(constraint, CAnd):
        return conj_all(simplify(part) for part in constraint.conjuncts)
    if isinstance(constraint, CImp):
        return imp(simplify(constraint.antecedent), simplify(constraint.consequent))
    return constraint


def _horn_clauses(constraint: Constraint):
    """Decompose a constraint into Horn clauses, or return None.

    The constraints the type system produces are always conjunctions of
    facts (atoms) and implications whose two sides are conjunctions of atoms
    (or True/False): ``locality`` produces only atom conjunctions, and
    ``basic_constraint`` / the typing rules only put such formulas on each
    side of ``=>``.  Each clause is returned as
    ``(frozenset_of_antecedent_atoms, consequent_atoms_or_None_for_False)``;
    facts have an empty antecedent.
    """
    clauses = []

    def atoms_of(side: Constraint):
        """Flatten a conjunction of atoms; None if not that shape."""
        if isinstance(side, CTrue):
            return frozenset()
        if isinstance(side, CLoc):
            return frozenset((side.var,))
        if isinstance(side, CAnd):
            result: set = set()
            for part in side.conjuncts:
                if isinstance(part, CLoc):
                    result.add(part.var)
                else:
                    return None
            return frozenset(result)
        return None

    def visit(part: Constraint) -> bool:
        if isinstance(part, CTrue):
            return True
        if isinstance(part, CFalse):
            clauses.append((frozenset(), None))
            return True
        if isinstance(part, CLoc):
            clauses.append((frozenset(), frozenset((part.var,))))
            return True
        if isinstance(part, CAnd):
            return all(visit(p) for p in part.conjuncts)
        if isinstance(part, CImp):
            antecedent = atoms_of(part.antecedent)
            if antecedent is None:
                return False
            if isinstance(part.consequent, CFalse):
                clauses.append((antecedent, None))
                return True
            consequent = atoms_of(part.consequent)
            if consequent is None:
                return False
            clauses.append((antecedent, consequent))
            return True
        return False

    return clauses if visit(constraint) else None


def _horn_satisfiable(clauses) -> bool:
    """Least-model Horn satisfiability: propagate facts, check goals."""
    forced: set = set()
    definite = [(ante, cons) for ante, cons in clauses if cons is not None]
    changed = True
    while changed:
        changed = False
        for ante, cons in definite:
            if ante <= forced and not cons <= forced:
                forced |= cons
                changed = True
    return all(
        not ante <= forced for ante, cons in clauses if cons is None
    )


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.horn_satisfiable")
def horn_satisfiable(constraint: Constraint):
    """The Horn-satisfiability check, memoized on the interned node.

    Returns ``True``/``False`` for a Horn-shaped constraint and ``None``
    when the constraint is not Horn (callers fall back to branching).
    Clause decomposition and least-model propagation both re-run from
    scratch per constraint, so caching on the interned node — the same
    identity the hash-cons layer guarantees for structurally equal trees —
    makes the repeated ``Solve(C)`` checks of a rule's enclosing
    judgements O(1) after the first.
    """
    clauses = _horn_clauses(constraint)
    if clauses is None:
        return None
    return _horn_satisfiable(clauses)


def is_satisfiable_branching(constraint: Constraint) -> bool:
    """Complete satisfiability by branching on atoms (reference algorithm)."""
    constraint = simplify(constraint)
    if isinstance(constraint, CTrue):
        return True
    if isinstance(constraint, CFalse):
        return False
    atom = next(iter(constraint_atoms(constraint)))
    return is_satisfiable_branching(
        assign(constraint, atom, True)
    ) or is_satisfiable_branching(assign(constraint, atom, False))


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.is_satisfiable")
def is_satisfiable(constraint: Constraint) -> bool:
    """True when some locality assignment of the atoms makes ``C`` hold.

    Uses linear-time Horn propagation when the constraint has Horn shape
    (every constraint the inference rules produce does) and falls back to
    complete branching otherwise.  Memoized on the interned node.
    """
    constraint = simplify(constraint)
    if isinstance(constraint, CTrue):
        return True
    if isinstance(constraint, CFalse):
        return False
    verdict = horn_satisfiable(constraint)
    if verdict is not None:
        return verdict
    return is_satisfiable_branching(constraint)


def is_unsatisfiable(constraint: Constraint) -> bool:
    """True when no instantiation can ever satisfy ``C`` — the paper's
    ``Solve(C) = False``, the condition under which a typing rule fails.

    When a trace is active (:mod:`repro.obs`) every check records a
    ``solve`` span on the inference track carrying the verdict — this is
    the per-rule ``Solve`` the typing rules' side conditions invoke, so
    the spans line up one-to-one under the ``judgment`` spans.
    """
    if not obs.enabled():
        return not is_satisfiable(constraint)
    started = time.perf_counter()
    unsat = not is_satisfiable(constraint)
    obs.record(
        "solve",
        obs.INFERENCE_TRACK,
        started,
        time.perf_counter() - started,
        unsat=unsat,
    )
    return unsat


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.is_valid")
def is_valid(constraint: Constraint) -> bool:
    """True when every locality assignment satisfies ``C``.  Memoized."""
    constraint = simplify(constraint)
    if isinstance(constraint, CTrue):
        return True
    if isinstance(constraint, CFalse):
        return False
    atom = next(iter(constraint_atoms(constraint)))
    return is_valid(assign(constraint, atom, True)) and is_valid(
        assign(constraint, atom, False)
    )


@bounded_memo(SOLVER_CACHE_SIZE, name="constraints.solve")
def solve(constraint: Constraint) -> Constraint:
    """The paper's ``Solve``: reduce ``C`` as far as the boolean laws allow.

    Returns ``FALSE`` when the constraint is unsatisfiable, ``TRUE`` when
    it is valid, and the simplified residual constraint otherwise.
    Memoized on the interned node (invalidation-free: nodes are immutable).
    """
    constraint = simplify(constraint)
    if isinstance(constraint, (CTrue, CFalse)):
        return constraint
    if is_unsatisfiable(constraint):
        return FALSE
    if is_valid(constraint):
        return TRUE
    return constraint


#: Cache registration for ``--stats`` reporting (repro.perf).
perf.register_cache("constraints.locality", locality)
perf.register_cache("constraints.basic_constraint", basic_constraint)
perf.register_cache("constraints.simplify", simplify)
perf.register_cache("constraints.horn_satisfiable", horn_satisfiable)
perf.register_cache("constraints.is_satisfiable", is_satisfiable)
perf.register_cache("constraints.is_valid", is_valid)
perf.register_cache("constraints.solve", solve)


def satisfying_assignments(constraint: Constraint) -> Tuple[Dict[str, bool], ...]:
    """All total assignments of the constraint's atoms that satisfy it.

    Exponential in the number of atoms; intended for tests and diagnostics
    on the small constraints real programs produce.
    """
    atoms = sorted(constraint_atoms(constraint))
    results = []
    for mask in range(1 << len(atoms)):
        assignment = {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}
        if evaluate(constraint, assignment):
            results.append(assignment)
    return tuple(results)


# -- rendering ------------------------------------------------------------


def render_constraint(
    constraint: Constraint, names: Dict[str, str] | None = None
) -> str:
    """Render with the paper's notation, e.g. ``L('a) /\\ (L('b) => False)``."""
    return _render(constraint, names or {}, top=True)


def _render(constraint: Constraint, names: Dict[str, str], top: bool) -> str:
    if isinstance(constraint, CTrue):
        return "True"
    if isinstance(constraint, CFalse):
        return "False"
    if isinstance(constraint, CLoc):
        return f"L({names.get(constraint.var, chr(39) + constraint.var)})"
    if isinstance(constraint, CAnd):
        parts = sorted(_render(part, names, top=False) for part in constraint.conjuncts)
        text = " /\\ ".join(parts)
        return text if top else f"({text})"
    if isinstance(constraint, CImp):
        text = (
            f"{_render(constraint.antecedent, names, top=False)}"
            f" => {_render(constraint.consequent, names, top=False)}"
        )
        return text if top else f"({text})"
    raise TypeError(f"render_constraint: unknown {type(constraint).__name__}")
