"""Constrained types ``[tau/C]``, type schemes, substitution (Def. 1),
instantiation (Def. 2) and generalization (Def. 3) from the paper.

The key subtlety reproduced here is Definition 1: applying a substitution
``phi`` to a constrained type does *not* just rewrite the atoms — it also
conjoins the *basic constraints* ``C_{phi(beta)}`` of every image of a
substituted variable that was free in the judgement.  This is what makes
an instantiation like ``alpha := int * (int par)`` for ``fst`` carry the
constraint ``L(int) => L(int par) = False`` and reject the program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.constraints import (
    TRUE,
    Constraint,
    basic_constraint,
    conj,
    constraint_atoms,
    render_constraint,
    subst_constraint,
)
from repro.core.types import (
    TVar,
    Type,
    apply_type_subst,
    fresh_tvar,
    free_type_vars,
    render_type,
    _variable_display_names,
)

#: Names for the alpha-renamed bound variables of :meth:`Subst.apply_scheme`.
#: A private counter rather than :func:`repro.core.types.fresh_tvar`: the
#: renamed names never escape a scheme (instantiation replaces them with
#: fresh variables, and display names hide them), so drawing them from the
#: global counter would only make fresh-variable numbering depend on how
#: often environments are re-applied — which the differential infer-engine
#: harness relies on being engine-independent.  The ``q`` hint is reserved
#: for this counter; no other call site uses it, so the names cannot
#: collide with globally fresh variables.
_scheme_rename_counter = itertools.count()


@dataclass(frozen=True)
class ConstrainedType:
    """A constrained simple type ``[tau / C]``."""

    type: Type
    constraint: Constraint = TRUE

    def free_vars(self) -> FrozenSet[str]:
        """``F([tau/C]) = F(tau) u F(C)``."""
        return free_type_vars(self.type) | constraint_atoms(self.constraint)

    def __str__(self) -> str:
        names = _variable_display_names(self.type)
        # Constraint-only variables get display names too, deterministically.
        for var in sorted(constraint_atoms(self.constraint)):
            if var not in names:
                names[var] = f"'{var}"
        type_text = render_type(self.type, names)
        if self.constraint == TRUE:
            return type_text
        return f"[{type_text} / {render_constraint(self.constraint, names)}]"


@dataclass(frozen=True)
class TypeScheme:
    """A type scheme ``forall a1...an . [tau / C]``."""

    quantified: Tuple[str, ...]
    body: ConstrainedType

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars() - set(self.quantified)

    def __str__(self) -> str:
        if not self.quantified:
            return str(self.body)
        names = _variable_display_names(self.body.type)
        shown = ", ".join(names.get(q, f"'{q}") for q in self.quantified)
        return f"forall {shown}. {self.body}"


def scheme_of(ty: Type, constraint: Constraint = TRUE) -> TypeScheme:
    """A scheme quantifying every variable of ``ty`` (used for primitives)."""
    return TypeScheme(tuple(sorted(free_type_vars(ty))), ConstrainedType(ty, constraint))


def mono(ty: Type, constraint: Constraint = TRUE) -> TypeScheme:
    """A monomorphic scheme (no quantification)."""
    return TypeScheme((), ConstrainedType(ty, constraint))


class Subst:
    """A substitution: a finite map from type-variable names to types.

    Immutable.  ``apply_constrained`` implements Definition 1, which is the
    only way constraints should ever be pushed through a substitution
    during inference.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Optional[Mapping[str, Type]] = None) -> None:
        self.mapping: Dict[str, Type] = dict(mapping or {})

    @staticmethod
    def identity() -> "Subst":
        return Subst()

    @staticmethod
    def single(var: str, ty: Type) -> "Subst":
        return Subst({var: ty})

    def __bool__(self) -> bool:
        return bool(self.mapping)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subst) and self.mapping == other.mapping

    def __repr__(self) -> str:
        inner = ", ".join(
            f"'{var} := {render_type(ty)}" for var, ty in sorted(self.mapping.items())
        )
        return f"Subst({inner})"

    @property
    def domain(self) -> FrozenSet[str]:
        return frozenset(self.mapping)

    def apply_type(self, ty: Type) -> Type:
        return apply_type_subst(self.mapping, ty)

    def apply_constraint(self, constraint: Constraint) -> Constraint:
        """Atom rewriting only — use :meth:`apply_constrained` during
        inference so Definition 1's basic constraints are not lost."""
        return subst_constraint(self.mapping, constraint)

    def apply_constrained(self, ct: ConstrainedType) -> ConstrainedType:
        """Definition 1 on an unquantified constrained type::

            phi([tau/C]) = [phi(tau) / phi(C) /\\ AND C_{phi(beta_i)}]

        for every ``beta_i`` in ``Dom(phi)`` free in ``[tau/C]``.
        """
        touched = self.domain & ct.free_vars()
        extras = conj(*(basic_constraint(self.mapping[var]) for var in touched))
        return ConstrainedType(
            self.apply_type(ct.type),
            conj(self.apply_constraint(ct.constraint), extras),
        )

    def apply_scheme(self, scheme: TypeScheme) -> TypeScheme:
        """Definition 1 on a scheme, renaming bound variables out of reach.

        Quantified variables are alpha-renamed to fresh names first, which
        always validates the paper's "out of reach" side condition.
        """
        if not scheme.quantified:
            return TypeScheme((), self.apply_constrained(scheme.body))
        renaming = {
            old: TVar(f"q{next(_scheme_rename_counter)}")
            for old in scheme.quantified
        }
        rename = Subst({old: new for old, new in renaming.items()})
        body = ConstrainedType(
            rename.apply_type(scheme.body.type),
            rename.apply_constraint(scheme.body.constraint),
        )
        return TypeScheme(
            tuple(var.name for var in renaming.values()),
            self.apply_constrained(body),
        )

    def compose(self, earlier: "Subst") -> "Subst":
        """``self.compose(earlier)`` applies ``earlier`` first, then ``self``."""
        mapping: Dict[str, Type] = {
            var: self.apply_type(ty) for var, ty in earlier.mapping.items()
        }
        for var, ty in self.mapping.items():
            mapping.setdefault(var, ty)
        return Subst(mapping)


def instantiate(scheme: TypeScheme) -> ConstrainedType:
    """Definition 2 with fresh variables: the most general instance.

    Fresh variables have trivial basic constraints, so Definition 1 reduces
    to atom renaming here; later unifications re-introduce the images'
    basic constraints through :meth:`Subst.apply_constrained`.
    """
    mapping = {old: fresh_tvar("i") for old in scheme.quantified}
    subst = Subst(mapping)
    return ConstrainedType(
        subst.apply_type(scheme.body.type),
        subst.apply_constraint(scheme.body.constraint),
    )


def generalize(ct: ConstrainedType, env: "TypeEnv") -> TypeScheme:
    """Definition 3: ``Gen([tau/C], E)`` quantifies ``F(tau) \\ F(E)``.

    Note the paper quantifies over the *type's* free variables only;
    variables appearing only in the constraint stay free.
    """
    quantified = tuple(sorted(free_type_vars(ct.type) - env.free_vars()))
    return TypeScheme(quantified, ct)


class TypeEnv:
    """An immutable typing environment ``E``: identifiers to type schemes.

    Stored as a ``base`` dict plus a small ``recent`` dict of the
    bindings added since ``base`` was built.  Neither is mutated after
    construction, so environments share them: :meth:`extend` copies only
    ``recent``, and folds it into a new ``base`` once it holds more than
    about sqrt(|base|) names.  A chain of n nested binders therefore
    costs O(n·sqrt(n)) time and memory, where copying the whole
    environment per binder cost O(n²) — 0.9 GB of dicts for 8000 nested
    ``let``s.  Iteration order is that of one dict receiving the same
    insertions.
    """

    __slots__ = ("_base", "_recent", "_free_vars")

    def __init__(self, bindings: Optional[Mapping[str, TypeScheme]] = None) -> None:
        self._base: Dict[str, TypeScheme] = dict(bindings or {})
        self._recent: Dict[str, TypeScheme] = {}
        self._free_vars: Optional[FrozenSet[str]] = None

    @staticmethod
    def empty() -> "TypeEnv":
        return TypeEnv()

    def extend(self, name: str, scheme: TypeScheme) -> "TypeEnv":
        recent = dict(self._recent)
        recent[name] = scheme
        child = TypeEnv()
        if len(recent) > 8 and len(recent) ** 2 > len(self._base):
            child._base = {**self._base, **recent}
        else:
            child._base = self._base
            child._recent = recent
        return child

    def lookup(self, name: str) -> Optional[TypeScheme]:
        scheme = self._recent.get(name)
        return scheme if scheme is not None else self._base.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._recent or name in self._base

    @property
    def domain(self) -> FrozenSet[str]:
        return frozenset(self._base).union(self._recent)

    def free_vars(self) -> FrozenSet[str]:
        """``F(E)``, computed once per (immutable) environment."""
        if self._free_vars is None:
            result: FrozenSet[str] = frozenset()
            for _, scheme in self.items():
                result |= scheme.free_vars()
            self._free_vars = result
        return self._free_vars

    def apply(self, subst: Subst) -> "TypeEnv":
        return TypeEnv({name: subst.apply_scheme(s) for name, s in self.items()})

    def items(self) -> Iterable[Tuple[str, TypeScheme]]:
        if not self._recent:
            return self._base.items()
        return {**self._base, **self._recent}.items()
