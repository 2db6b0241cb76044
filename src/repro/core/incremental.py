"""Incremental re-inference over chains of top-level definitions.

A service session edits a program as a sequence of named definitions::

    let square = fun x -> x * x        -- definition "square"
    let quad   = fun x -> square (square x)
    let main   = quad 5

Re-running full inference on every edit is wasteful: editing ``quad``
cannot change the scheme already inferred for ``square``.  This module
caches inference per *chain position*, keyed by a digest chain (see
:func:`repro.core.digest.chain_digest`):

    token_0 = H(config)
    token_i = H(token_{i-1}, name_i, expr_digest(def_i))

``token_i`` pins the entire prefix up to and including definition ``i``
— the typing environment definition ``i+1`` is checked in is a pure
function of it.  So a lookup hit at position ``i`` is *sound*: the
cached scheme was inferred in an identical environment.  Editing
definition ``k`` changes ``token_k`` and every later token, invalidating
exactly the suffix that can observe the edit; definitions before ``k``
hit the cache untouched.

Only *inference* is incremental.  Evaluation always runs the full
program: the paper's dynamic semantics is whole-machine, and partial
re-evaluation of effectful parallel code is not sound in general.

Perf counters: ``incremental.reused`` / ``incremental.inferred`` count
cache hits and misses per checked chain, so the service's ``/v1/stats``
shows how much work sessions are saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.digest import DIGEST_VERSION, chain_digest, expr_digest
from repro.core.infer import infer
from repro.core.prelude_env import prelude_env
from repro.core.schemes import TypeEnv, TypeScheme, generalize
from repro.lang.ast import Expr, Let
from repro.lang.parser import parse_program

#: Default bound on cached chain links per checker; a session that edits
#: a 100-definition program thousands of times stays under ~2k entries.
DEFAULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class Definition:
    """One named top-level definition of a session program."""

    name: str
    expr: Expr

    @staticmethod
    def parse(name: str, source: str) -> "Definition":
        return Definition(name, parse_program(source))


@dataclass(frozen=True)
class CheckedDefinition:
    """The outcome of checking one definition within a chain."""

    name: str
    scheme: TypeScheme
    token: str  #: chain token pinning the prefix through this definition
    reused: bool  #: True when the scheme came from the chain cache


class IncrementalChecker:
    """Chain-cached inference over definition sequences.

    One checker serves one session (the service keeps a checker per
    session id), but nothing prevents sharing: the cache key pins the
    full prefix, so chains from different programs never collide.
    """

    def __init__(
        self, use_prelude: bool = True, max_entries: int = DEFAULT_CACHE_SIZE
    ) -> None:
        self._use_prelude = use_prelude
        self._base_env = prelude_env() if use_prelude else TypeEnv.empty()
        self._base_token = chain_digest(
            DIGEST_VERSION, f"prelude={use_prelude}"
        )
        self._max_entries = max_entries
        # token -> (scheme, env-after-definition); insertion-ordered, so
        # trimming drops the oldest chains first.
        self._cache: Dict[str, Tuple[TypeScheme, TypeEnv]] = {}

    def check(self, definitions: Sequence[Definition]) -> List[CheckedDefinition]:
        """Infer a scheme for every definition, reusing every cached
        prefix link.  Raises the usual :class:`TypingError` subclasses on
        the first failing definition (earlier results stay cached)."""
        env = self._base_env
        token = self._base_token
        results: List[CheckedDefinition] = []
        for definition in definitions:
            token = chain_digest(token, definition.name, expr_digest(definition.expr))
            cached = self._cache.get(token)
            if cached is not None:
                scheme, env = cached
                obs.count("incremental.reused")
                results.append(
                    CheckedDefinition(definition.name, scheme, token, True)
                )
                continue
            obs.count("incremental.inferred")
            ct = infer(definition.expr, env)
            scheme = generalize(ct, env)
            env = env.extend(definition.name, scheme)
            self._remember(token, scheme, env)
            results.append(CheckedDefinition(definition.name, scheme, token, False))
        return results

    def environment_after(
        self, definitions: Sequence[Definition]
    ) -> TypeEnv:
        """The typing environment downstream of ``definitions`` (checks
        them first, from cache where possible)."""
        checked = self.check(definitions)
        env = self._base_env
        for item in checked:
            env = env.extend(item.name, item.scheme)
        return env

    def _remember(self, token: str, scheme: TypeScheme, env: TypeEnv) -> None:
        if len(self._cache) >= self._max_entries:
            # Drop the oldest ~25% in one sweep; cheaper than per-insert
            # LRU bookkeeping and fine for the access pattern (a session
            # re-walks its whole chain every check, refreshing nothing).
            for key in list(self._cache)[: max(1, self._max_entries // 4)]:
                del self._cache[key]
            obs.count("incremental.trimmed")
        self._cache[token] = (scheme, env)

    def cache_size(self) -> int:
        return len(self._cache)


def split_let_chain(expr: Expr) -> Tuple[List[Definition], Expr]:
    """View a ``let n1 = e1 in ... in body`` spine as definitions + body.

    This lets a client POST a whole program and still get incremental
    behaviour across edits: the service splits the spine, checks the
    definitions through the chain cache, and only the suffix after the
    first edited ``let`` re-infers.
    """
    definitions: List[Definition] = []
    node = expr
    while isinstance(node, Let):
        definitions.append(Definition(node.name, node.bound))
        node = node.body
    return definitions, node


def assemble_let_chain(definitions: Sequence[Definition], body: Expr) -> Expr:
    """Inverse of :func:`split_let_chain`."""
    result = body
    for definition in reversed(definitions):
        result = Let(definition.name, definition.expr, result)
    return result
