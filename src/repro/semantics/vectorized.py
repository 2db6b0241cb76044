"""SPMD-vectorized evaluator: compiled closures run once over p lanes.

The paper's premise is that one BSML program text runs at every BSP
process, so the compiled closure a ``mkpar``/``apply``/``put`` body
lowers to (:mod:`repro.semantics.compiled`) is the *same* code at all p
pids — yet the compiled engine still executes it p times per superstep.
This engine executes each such closure **once** over a length-p vector
of frames: every frame slot holds a lane-indexed column (a list of p
values), every compiled step becomes a *vector step* ``vstep(vx,
vframe)`` producing a column, and per-superstep interpreter overhead
collapses from O(p·ops) toward O(ops).

**Divergence peeling.**  SPMD lockstep breaks when control flow splits
on pid-dependent data: a ``case``/``if`` whose scrutinee differs across
lanes, an application whose function values no longer share compiled
code, or a lane that raises.  The vector context tracks the *active
lane set*; on a conditional split the majority side continues
vectorized (with the active set restricted) while the minority pids are
**peeled out of the batch** and finished through the existing compiled
scalar path — a twin step compiled against the very same slot layout,
run over a frame materialized from the lane's column entries.  A lane
that raises is *killed*: its exception is recorded and replayed inside
the superstep task, so error identity and timing are preserved.  Peels
and kills rejoin (or leave) the batch per lane; the happy path stays a
single vector execution.

**Cost identity is by construction.**  Each lane owns a counting
:class:`~repro.semantics.compiled._Runtime` (``proc=pid``, ``machine
= None``) — exactly the runtime a compiled per-component task would
thread — and every vector step charges the same ops at the same sites
(``vcharge`` is the vector form of ``rt.charge()``).  The batch runs
*before* the superstep; :meth:`BspMachine.run_superstep` then receives
p trivial *replay* tasks that return the memoized ``(value, ops)`` (or
re-raise the lane's recorded exception).  The machine sees the same
task structure, the same per-task op counts, the same exchange matrices
under the same labels — so :class:`BspCost`, the abstract trace
signature, and machine-side fault draws are bit-identical to the
``tree``/``compiled`` engines.  Because a replay task memoizes, it
would *not* re-execute lane effects (reference writes) under a
superstep retry the way a real component would — so an armed
:class:`~repro.bsp.faults.FaultPlan` or retry policy disables batching
wholesale and the engine falls back to the compiled path (counted under
``semantics.vectorized.fallback_pids``), keeping chaos schedules
exactly conformant.

Perf counters (``--stats``): ``semantics.vectorized.batched_steps``
(supersteps executed as one batch), ``semantics.vectorized
.fallback_pids`` (pids finished through the scalar compiled path),
``semantics.vectorized.peel_events`` (divergence splits).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bsp.machine import BspMachine
from repro.lang.ast import (
    Annot,
    App,
    Case,
    Const,
    Expr,
    Fun,
    If,
    IfAt,
    Inl,
    Inr,
    Let,
    Pair,
    ParVec,
    Prim,
    Tuple as TupleE,
    Var,
)
from repro.lang.limits import deep_recursion
from repro.semantics import compiled as c
from repro.semantics.compiled import _Runtime, _Scope, fold_constant
from repro.semantics.errors import DynamicNestingError, EvalError
from repro.semantics.primops import BINARY_SCALAR, BOOLEAN
from repro.semantics.values import (
    NC_VALUE,
    Value,
    VClosure,
    VCompiledClosure,
    VDelivered,
    VInl,
    VInr,
    VNc,
    VPair,
    VParVec,
    VPrim,
    VTuple,
    words,
)

__all__ = [
    "VectorizedEvaluator",
    "VectorizedProgram",
    "compile_vectorized",
    "run",
]


# Singleton type sets for the uniform fast paths: one C-level
# ``set(map(type, column))`` pass proves a whole column has exactly one
# value kind (``bool`` cells fail the ``int`` check because ``type``
# does not collapse subclasses, and dead lanes' ``None`` cells fail
# every check, routing mixed columns to the careful per-lane loops).
_INT_ONLY = frozenset((int,))
_BOOL_ONLY = frozenset((bool,))
_PAIR_ONLY = frozenset((VPair,))
_DELIVERED_ONLY = frozenset((VDelivered,))


class _Drained(Exception):
    """Internal: every lane of the current batch has been killed."""


class _ClosureColumn(list):
    """A column of closures created lane-by-lane from one ``fun`` node.

    Every entry shares the same compiled code by construction, and the
    capture columns the cells were materialized from ride along — so
    applying the column skips the uniformity scan *and* rebuilding the
    capture columns from per-lane cells.  It is still a plain list of
    proper :class:`VCompiledClosure` values, so entries escape into
    frames, data structures and scalar fallbacks unchanged."""

    __slots__ = ("capture_columns",)


# -- the vector context -------------------------------------------------------


class _LazyRuntimes:
    """Per-lane counting runtimes, created on first touch.

    Most batched supersteps never leave the vector path, so the p
    scalar runtimes — needed only by elementwise prim application,
    divergence peeling and scalar fallbacks — are built lazily instead
    of p-per-superstep up front."""

    __slots__ = ("p", "made")

    def __init__(self, p: int) -> None:
        self.p = p
        self.made: Dict[int, _Runtime] = {}

    def __getitem__(self, lane: int) -> _Runtime:
        rt = self.made.get(lane)
        if rt is None:
            rt = self.made[lane] = _Runtime(self.p, proc=lane, counting=True)
        return rt


class _VectorCtx:
    """The shared state of one batched superstep execution.

    ``rts`` are the per-lane counting runtimes — one per pid, exactly
    what :func:`repro.semantics.compiled._component_task` would build —
    so charges land per lane and scalar fallbacks thread the real
    thing.  ``active`` is the sorted list of lanes still in the batch;
    ``errors`` maps a killed lane to the exception its replay task will
    re-raise.
    """

    __slots__ = (
        "p",
        "vcache",
        "rts",
        "active",
        "errors",
        "base",
        "counted",
        "divergent",
        "app_cache",
    )

    def __init__(self, p: int, vcache: Dict) -> None:
        self.p = p
        self.vcache = vcache
        self.rts = _LazyRuntimes(p)
        self.active: List[int] = list(range(p))
        self.errors: Dict[int, Exception] = {}
        #: Application memo for *stable* uniform columns (fix-patched
        #: recursive closures, broadcast cells): keyed by the identity
        #: of the lane-0 closure, holding the column snapshot (which
        #: pins the keys alive), the vector body and the prebuilt
        #: capture columns.  Verified per hit by a C-speed elementwise
        #: identity comparison against the snapshot.
        self.app_cache: Dict[int, Tuple] = {}
        #: Charges accrued while execution is still lockstep: every
        #: active lane has charged exactly ``base`` ops (killed lanes'
        #: counts never commit, so shrinking ``active`` keeps this
        #: exact).  The first divergence flushes ``base`` into the
        #: per-lane ``counted`` columns — O(1) charging on the happy
        #: path, per-lane precision after a split.
        self.base = 0.0
        self.counted = [0.0] * p
        self.divergent = False

    def vcharge(self, ops: float = 1.0) -> None:
        """Charge ``ops`` on every active lane — the vector ``charge``."""
        if not self.divergent:
            self.base += ops
            return
        counted = self.counted
        for lane in self.active:
            counted[lane] += ops

    def flush(self) -> None:
        """Enter divergent mode: materialize ``base`` per active lane so
        subsequent charges can differ across lanes."""
        if not self.divergent:
            base = self.base
            if base:
                counted = self.counted
                for lane in self.active:
                    counted[lane] += base
            self.base = 0.0
            self.divergent = True

    def lane_ops(self, lane: int) -> float:
        """The ops ``lane`` charged: lockstep base + post-divergence
        column + anything its scalar fallback runtime counted."""
        rt = self.rts.made.get(lane)
        scalar = rt.counted if rt is not None else 0.0
        return self.base + self.counted[lane] + scalar

    def kill(self, lane: int, error: Exception) -> None:
        """Peel ``lane`` out of the batch with ``error`` as its outcome."""
        self.errors[lane] = error
        self.active.remove(lane)
        if not self.active:
            raise _Drained


# -- vector compilation -------------------------------------------------------
#
# ``_vcompile`` mirrors ``compiled._compile`` node for node: the same
# binds in the same order against the same _Scope (so slot layouts
# agree with the scalar twins compiled for divergence peeling), the
# same charge sites, the same error messages.  A vector step returns a
# full-width column whose entries are meaningful for active lanes only.


def _kill_all(vx: _VectorCtx, make_error: Callable[[int], Exception]) -> None:
    for lane in list(vx.active):
        vx.kill(lane, make_error(lane))
    raise _Drained  # unreachable: the last kill raises


def _vcompile(expr: Expr, scope: _Scope, p: int) -> Callable:
    folded = fold_constant(expr, p)
    if folded is not None:
        value, ops = folded
        # One shared broadcast column for the program's lifetime:
        # columns are never mutated in place (frames replace slots
        # wholesale), so every evaluation can hand out the same list.
        column = [value] * p
        if ops:

            def vstep(vx, vframe):
                vx.vcharge(ops)
                return column

            return vstep

        def vstep(vx, vframe):
            return column

        return vstep

    if isinstance(expr, Var):
        slot = scope.slots.get(expr.name)
        if slot is None:
            name = expr.name

            def vstep(vx, vframe):
                _kill_all(vx, lambda lane: EvalError(f"unbound variable {name!r}"))

            return vstep

        def vstep(vx, vframe):
            return vframe[slot]

        return vstep

    if isinstance(expr, Const):
        const_column = [expr.value] * p

        def vstep(vx, vframe):
            return const_column

        return vstep

    if isinstance(expr, Prim):
        prim_column = (
            [p] * p if expr.name == "nproc" else [VPrim(expr.name)] * p
        )

        def vstep(vx, vframe):
            return prim_column

        return vstep

    if isinstance(expr, Fun):
        return _vcompile_fun(expr, scope, p)

    if isinstance(expr, App):
        return _vcompile_app(expr, scope, p)

    if isinstance(expr, Let):
        bound_vstep = _vcompile(expr.bound, scope, p)
        slot, saved = scope.bind(expr.name)
        body_vstep = _vcompile(expr.body, scope, p)
        scope.unbind(expr.name, saved)

        def vstep(vx, vframe):
            vx.vcharge()
            vframe[slot] = bound_vstep(vx, vframe)
            return body_vstep(vx, vframe)

        return vstep

    if isinstance(expr, Pair):
        first_vstep = _vcompile(expr.first, scope, p)
        second_vstep = _vcompile(expr.second, scope, p)

        def vstep(vx, vframe):
            firsts = first_vstep(vx, vframe)
            seconds = second_vstep(vx, vframe)
            # Constructors are total, so build the whole column in one
            # C-level map; dead lanes get a throwaway pair no one reads.
            return list(map(VPair, firsts, seconds))

        return vstep

    if isinstance(expr, TupleE):
        item_vsteps = [_vcompile(item, scope, p) for item in expr.items]

        def vstep(vx, vframe):
            columns = [item(vx, vframe) for item in item_vsteps]
            return [VTuple(row) for row in zip(*columns)]

        return vstep

    if isinstance(expr, If):
        return _vcompile_if(expr, scope, p)

    if isinstance(expr, Inl):
        inner_vstep = _vcompile(expr.value, scope, p)

        def vstep(vx, vframe):
            inner = inner_vstep(vx, vframe)
            return list(map(VInl, inner))

        return vstep

    if isinstance(expr, Inr):
        inner_vstep = _vcompile(expr.value, scope, p)

        def vstep(vx, vframe):
            inner = inner_vstep(vx, vframe)
            return list(map(VInr, inner))

        return vstep

    if isinstance(expr, Case):
        return _vcompile_case(expr, scope, p)

    if isinstance(expr, Annot):
        return _vcompile(expr.expr, scope, p)

    if isinstance(expr, (ParVec, IfAt)):
        # Parallel constructs inside a lane are dynamic nesting errors,
        # raised exactly where the scalar engines raise them (before
        # any charge): _OnProc rejects a parallel-vector literal with
        # the ``mkpar`` witness, ``if ... at`` names itself.
        operation = "mkpar" if isinstance(expr, ParVec) else "ifat"

        def vstep(vx, vframe):
            _kill_all(
                vx, lambda lane: DynamicNestingError(Prim(operation), lane)
            )

        return vstep

    kind = type(expr).__name__

    def vstep(vx, vframe):
        _kill_all(vx, lambda lane: EvalError(f"cannot evaluate node {kind}"))

    return vstep


def _vcompile_fun(expr: Fun, scope: _Scope, p: int) -> Callable:
    """A ``fun`` in vector context builds one closure per lane — all
    sharing the *same* compiled scalar code (``compiled._compile``), so
    the closures are ordinary :class:`VCompiledClosure` values: interop
    with the other engines is free, and a later application of the
    column is batch-eligible because every lane's ``code`` is the same
    object."""
    param, body = expr.param, expr.body
    capture_names = tuple(
        sorted(
            name
            for name in c.free_vars(body) - {param}
            if name in scope.slots
        )
    )
    capture_slots = [scope.slots[name] for name in capture_names]
    inner = _Scope((param,) + capture_names)
    body_step = c._compile(body, inner, p)
    frame_size = inner.size

    if not capture_slots:

        def vstep(vx, vframe):
            # No captures means no cells, so fix can never back-patch
            # this closure and no lane can observe identity: one shared
            # closure broadcast across the column is indistinguishable
            # from p fresh ones, and cheaper.
            closure = VCompiledClosure(
                param, body, body_step, frame_size, (), []
            )
            out = _ClosureColumn([closure] * p)
            out.capture_columns = ()
            return out

        return vstep

    def vstep(vx, vframe):
        columns = [vframe[slot] for slot in capture_slots]
        if len(vx.active) == p:
            # When every capture column is a broadcast (all cells the
            # identical object — common for captured functions and
            # replicated loop state), one shared closure serves every
            # lane: closure cells are only ever mutated by ``fix``,
            # which patches the *fresh inner* closure its call creates,
            # never one of these.
            cells = []
            for column in columns:
                cell = column[0]
                for other in column:
                    if other is not cell:
                        break
                else:
                    cells.append(cell)
                    continue
                break
            if len(cells) == len(columns):
                closure = VCompiledClosure(
                    param, body, body_step, frame_size, capture_names, cells
                )
                out = _ClosureColumn([closure] * p)
                out.capture_columns = columns
                return out
            out = _ClosureColumn(
                [
                    VCompiledClosure(
                        param,
                        body,
                        body_step,
                        frame_size,
                        capture_names,
                        list(row),
                    )
                    for row in zip(*columns)
                ]
            )
            out.capture_columns = columns
            return out
        plain = [None] * p
        for lane in vx.active:
            plain[lane] = VCompiledClosure(
                param,
                body,
                body_step,
                frame_size,
                capture_names,
                [column[lane] for column in columns],
            )
        return plain

    return vstep


def _vcompile_app(expr: App, scope: _Scope, p: int) -> Callable:
    fn, arg = expr.fn, expr.arg
    if isinstance(fn, Prim) and fn.name != "nproc":
        name = fn.name
        if name in BINARY_SCALAR and isinstance(arg, Pair):
            # Saturated binary primitive, vector form: charge once per
            # lane, evaluate both operand columns, combine elementwise
            # with the scalar fast path's exact kind checks/messages.
            left_vstep = _vcompile(arg.first, scope, p)
            right_vstep = _vcompile(arg.second, scope, p)
            op = BINARY_SCALAR[name]
            if name in BOOLEAN:

                def vstep(vx, vframe):
                    vx.vcharge()
                    lefts = left_vstep(vx, vframe)
                    rights = right_vstep(vx, vframe)
                    if (
                        set(map(type, lefts)) == _BOOL_ONLY
                        and set(map(type, rights)) == _BOOL_ONLY
                    ):
                        return list(map(op, lefts, rights))
                    out = [None] * p
                    for lane in list(vx.active):
                        left, right = lefts[lane], rights[lane]
                        if not (left is True or left is False) or not (
                            right is True or right is False
                        ):
                            vx.kill(
                                lane,
                                EvalError(
                                    f"operator {name!r} expects booleans"
                                ),
                            )
                            continue
                        out[lane] = op(left, right)
                    return out

                return vstep

            folded_right = fold_constant(arg.second, p)
            if folded_right is None:
                # fold_constant declines leaves; a literal int or
                # ``nproc`` is still a free constant (zero charge).
                if isinstance(arg.second, Const):
                    folded_right = (arg.second.value, 0.0)
                elif isinstance(arg.second, Prim) and arg.second.name == "nproc":
                    folded_right = (p, 0.0)
            if folded_right is not None and type(folded_right[0]) is int:
                # Constant integer right operand (loop bounds, literal
                # offsets): skip the right column and its type scan,
                # charging whatever the folded subtree charged at the
                # same point in evaluation order.
                k, right_ops = folded_right

                def vstep(vx, vframe):
                    vx.vcharge()
                    lefts = left_vstep(vx, vframe)
                    if right_ops:
                        vx.vcharge(right_ops)
                    if set(map(type, lefts)) == _INT_ONLY:
                        try:
                            return [op(left, k) for left in lefts]
                        except Exception:
                            pass
                    out = [None] * p
                    for lane in list(vx.active):
                        left = lefts[lane]
                        if (
                            left is True
                            or left is False
                            or not isinstance(left, int)
                        ):
                            vx.kill(
                                lane,
                                EvalError(
                                    f"operator {name!r} expects integers"
                                ),
                            )
                            continue
                        try:
                            out[lane] = op(left, k)
                        except Exception as error:
                            vx.kill(lane, error)
                    return out

                return vstep

            def vstep(vx, vframe):
                vx.vcharge()
                lefts = left_vstep(vx, vframe)
                rights = right_vstep(vx, vframe)
                # Uniform fast path: two C-level type scans prove every
                # cell (dead lanes included) is a plain int, then one
                # C-level map applies the operator.  ``bool`` cells fail
                # the scan (type is bool, not int), exactly matching the
                # scalar engine's kind check; any operator exception
                # (division by zero) falls back to the careful loop,
                # which re-runs the pure int ops to find the first
                # failing lane.
                if (
                    set(map(type, lefts)) == _INT_ONLY
                    and set(map(type, rights)) == _INT_ONLY
                ):
                    try:
                        return list(map(op, lefts, rights))
                    except Exception:
                        pass
                out = [None] * p
                for lane in list(vx.active):
                    left, right = lefts[lane], rights[lane]
                    if (
                        left is True
                        or left is False
                        or right is True
                        or right is False
                        or not isinstance(left, int)
                        or not isinstance(right, int)
                    ):
                        vx.kill(
                            lane,
                            EvalError(f"operator {name!r} expects integers"),
                        )
                        continue
                    try:
                        out[lane] = op(left, right)
                    except Exception as error:
                        vx.kill(lane, error)
                return out

            return vstep

        arg_vstep = _vcompile(arg, scope, p)
        if name == "fst" or name == "snd":
            use_first = name == "fst"

            def vstep(vx, vframe):
                vx.vcharge()
                args = arg_vstep(vx, vframe)
                if set(map(type, args)) == _PAIR_ONLY:
                    if use_first:
                        return [value.first for value in args]
                    return [value.second for value in args]
                out = [None] * p
                for lane in list(vx.active):
                    value = args[lane]
                    if isinstance(value, VPair):
                        out[lane] = value.first if use_first else value.second
                    else:
                        vx.kill(lane, EvalError(f"{name!r} expects a pair"))
                return out

            return vstep

        if name == "fix":

            def vstep(vx, vframe):
                vx.vcharge()
                args = arg_vstep(vx, vframe)
                # Batched fixpoint: a uniform ``fun``-built column whose
                # body is itself a ``Fun`` ties all p knots with one
                # vector application of the outer body (zero charge,
                # closure creation is free) followed by a per-lane cell
                # patch — the scalar ``fix_value`` run p times, without
                # p scalar body evaluations.  The patched column keeps
                # its ``_ClosureColumn`` fast path, so recursive calls
                # inside the loop never rescan for uniformity.
                if type(args) is _ClosureColumn:
                    outer = args[vx.active[0]]
                    if isinstance(outer.body, Fun):
                        recursive_name = outer.param
                        inner = _vapply(vx, args, [None] * p)
                        inner_first = inner[vx.active[0]]
                        for index, cname in enumerate(
                            inner_first.capture_names
                        ):
                            if cname == recursive_name:
                                for lane in vx.active:
                                    closure = inner[lane]
                                    closure.cells[index] = closure
                                if (
                                    type(inner) is _ClosureColumn
                                    and inner.capture_columns
                                ):
                                    columns = list(inner.capture_columns)
                                    columns[index] = inner
                                    inner.capture_columns = columns
                                break
                        return inner
                out = [None] * p
                for lane in list(vx.active):
                    try:
                        out[lane] = c._apply_prim_value(
                            vx.rts[lane], name, args[lane]
                        )
                    except Exception as error:
                        vx.kill(lane, error)
                return out

            return vstep

        def vstep(vx, vframe):
            vx.vcharge()
            args = arg_vstep(vx, vframe)
            out = [None] * p
            for lane in list(vx.active):
                try:
                    out[lane] = c._apply_prim_value(
                        vx.rts[lane], name, args[lane]
                    )
                except Exception as error:
                    vx.kill(lane, error)
            return out

        return vstep

    if type(fn) is App and not isinstance(fn.fn, Prim):
        # Curried double application ``f a b`` — the shape every
        # prelude loop takes (``loop (j + 1) acc'``).  When f's column
        # is uniform and its body is itself a ``fun``, the intermediate
        # closure column is write-only: build the inner body's frame
        # directly from f's frame instead of allocating p closures per
        # iteration.  Closure creation charges nothing, so skipping it
        # leaves every charge site (the two App charges, the operand
        # evaluations, the inner body) untouched.
        f_vstep = _vcompile(fn.fn, scope, p)
        a_vstep = _vcompile(fn.arg, scope, p)
        b_vstep = _vcompile(arg, scope, p)

        def vstep(vx, vframe):
            vx.vcharge()  # outer application
            vx.vcharge()  # inner application
            f_col = f_vstep(vx, vframe)
            a_col = a_vstep(vx, vframe)
            if type(f_col) is _ClosureColumn:
                first = f_col[vx.active[0]]
                if type(first.body) is Fun:
                    call2 = _call2_for(vx, first)
                    b_col = b_vstep(vx, vframe)
                    f_frame = [a_col]
                    f_frame.extend(f_col.capture_columns)
                    return call2(vx, f_frame, b_col)
            intermediate = _vapply(vx, f_col, a_col)
            b_col = b_vstep(vx, vframe)
            return _vapply(vx, intermediate, b_col)

        return vstep

    fn_vstep = _vcompile(fn, scope, p)
    arg_vstep = _vcompile(arg, scope, p)

    def vstep(vx, vframe):
        vx.vcharge()
        fn_column = fn_vstep(vx, vframe)
        arg_column = arg_vstep(vx, vframe)
        return _vapply(vx, fn_column, arg_column)

    return vstep


def _vcompile_if(expr: If, scope: _Scope, p: int) -> Callable:
    cond_vstep = _vcompile(expr.cond, scope, p)
    then_vstep = _vcompile(expr.then_branch, scope, p)
    then_twin = c._compile(expr.then_branch, scope, p)
    else_vstep = _vcompile(expr.else_branch, scope, p)
    else_twin = c._compile(expr.else_branch, scope, p)

    def vstep(vx, vframe):
        vx.vcharge()
        conditions = cond_vstep(vx, vframe)
        if set(map(type, conditions)) == _BOOL_ONLY:
            if all(conditions):
                return then_vstep(vx, vframe)
            if not any(conditions):
                return else_vstep(vx, vframe)
        true_lanes: List[int] = []
        false_lanes: List[int] = []
        for lane in list(vx.active):
            condition = conditions[lane]
            if condition is True:
                true_lanes.append(lane)
            elif condition is False:
                false_lanes.append(lane)
            else:
                vx.kill(
                    lane, EvalError("conditional on a non-boolean value")
                )
        if not false_lanes:
            return then_vstep(vx, vframe)
        if not true_lanes:
            return else_vstep(vx, vframe)
        if len(true_lanes) >= len(false_lanes):
            return _split(
                vx, vframe, true_lanes, then_vstep, false_lanes, else_twin
            )
        return _split(
            vx, vframe, false_lanes, else_vstep, true_lanes, then_twin
        )

    return vstep


def _vcompile_case(expr: Case, scope: _Scope, p: int) -> Callable:
    scrutinee_vstep = _vcompile(expr.scrutinee, scope, p)
    left_slot, saved = scope.bind(expr.left_name)
    left_vstep = _vcompile(expr.left_body, scope, p)
    left_twin = c._compile(expr.left_body, scope, p)
    scope.unbind(expr.left_name, saved)
    right_slot, saved = scope.bind(expr.right_name)
    right_vstep = _vcompile(expr.right_body, scope, p)
    right_twin = c._compile(expr.right_body, scope, p)
    scope.unbind(expr.right_name, saved)

    def vstep(vx, vframe):
        vx.vcharge()
        scrutinees = scrutinee_vstep(vx, vframe)
        left_lanes: List[int] = []
        right_lanes: List[int] = []
        for lane in list(vx.active):
            scrutinee = scrutinees[lane]
            if isinstance(scrutinee, VInl):
                left_lanes.append(lane)
            elif isinstance(scrutinee, VInr):
                right_lanes.append(lane)
            else:
                vx.kill(lane, EvalError("case on a non-sum value"))
        if not right_lanes:
            column = [None] * p
            for lane in left_lanes:
                column[lane] = scrutinees[lane].value
            vframe[left_slot] = column
            return left_vstep(vx, vframe)
        if not left_lanes:
            column = [None] * p
            for lane in right_lanes:
                column[lane] = scrutinees[lane].value
            vframe[right_slot] = column
            return right_vstep(vx, vframe)
        if len(left_lanes) >= len(right_lanes):
            column = [None] * p
            for lane in left_lanes:
                column[lane] = scrutinees[lane].value
            vframe[left_slot] = column
            return _split(
                vx,
                vframe,
                left_lanes,
                left_vstep,
                right_lanes,
                right_twin,
                binder=(right_slot, {l: scrutinees[l].value for l in right_lanes}),
            )
        column = [None] * p
        for lane in right_lanes:
            column[lane] = scrutinees[lane].value
        vframe[right_slot] = column
        return _split(
            vx,
            vframe,
            right_lanes,
            right_vstep,
            left_lanes,
            left_twin,
            binder=(left_slot, {l: scrutinees[l].value for l in left_lanes}),
        )

    return vstep


def _split(
    vx: _VectorCtx,
    vframe: List,
    batch_lanes: List[int],
    batch_vstep: Callable,
    peel_lanes: List[int],
    peel_step: Callable,
    binder: Optional[Tuple[int, Dict[int, Value]]] = None,
):
    """A divergence event: the majority side continues as the batch
    (active restricted to ``batch_lanes``), the minority pids are
    peeled through the compiled scalar twin over materialized frames.
    Survivors of both sides rejoin as the new active set."""
    vx.flush()
    obs.count("semantics.vectorized.peel_events")
    obs.count("semantics.vectorized.fallback_pids", len(peel_lanes))
    out = [None] * vx.p
    vx.active = batch_lanes
    try:
        column = batch_vstep(vx, vframe)
        for lane in vx.active:
            out[lane] = column[lane]
        survivors = list(vx.active)
    except _Drained:
        survivors = []
    for lane in peel_lanes:
        frame = [
            column[lane] if column is not None else None for column in vframe
        ]
        if binder is not None:
            frame[binder[0]] = binder[1][lane]
        try:
            out[lane] = peel_step(vx.rts[lane], frame)
            survivors.append(lane)
        except Exception as error:
            vx.errors[lane] = error
    if not survivors:
        vx.active = []
        raise _Drained
    survivors.sort()
    vx.active = survivors
    return out


# -- vector application -------------------------------------------------------


def _vcompiled_for(vx: _VectorCtx, closure: VCompiledClosure):
    """The vector step for ``closure``'s body, compiled on demand and
    memoized per compiled ``code`` object.  The scope starts from the
    closure's own frame layout (``[param, *captures, ...]``), so slot
    columns line up with the cells every lane carries."""
    entry = vx.vcache.get(closure.code)
    if entry is None:
        scope = _Scope((closure.param,) + closure.capture_names)
        vbody = _vcompile(closure.body, scope, vx.p)
        entry = (vbody, scope.size)
        vx.vcache[closure.code] = entry
    return entry


def _call2_for(vx: _VectorCtx, closure: VCompiledClosure):
    """Fused entry for a curried double application whose first step
    lands on ``closure`` (body known to be a ``fun``).  Returns
    ``call2(vx, f_frame, b_col)`` which runs the inner ``fun``'s body
    over a frame built straight from the outer frame's columns — the
    intermediate closure column the normal path would allocate is
    write-only, so it is never materialized.  Memoized per compiled
    ``code`` object alongside the normal vector-body entries."""
    key = (closure.code, 2)
    call2 = vx.vcache.get(key)
    if call2 is None:
        scope = _Scope((closure.param,) + closure.capture_names)
        fun_expr = closure.body
        param2, body2 = fun_expr.param, fun_expr.body
        capture_names2 = tuple(
            sorted(
                name
                for name in c.free_vars(body2) - {param2}
                if name in scope.slots
            )
        )
        capture_slots2 = [scope.slots[name] for name in capture_names2]
        inner_scope = _Scope((param2,) + capture_names2)
        inner_vbody = _vcompile(body2, inner_scope, vx.p)
        inner_size = inner_scope.size

        def call2(vx2, f_frame, b_col):
            frame2: List = [None] * inner_size
            frame2[0] = b_col
            index = 1
            for slot in capture_slots2:
                frame2[index] = f_frame[slot]
                index += 1
            return inner_vbody(vx2, frame2)

        vx.vcache[key] = call2
    return call2


def _vapply(vx: _VectorCtx, fn_column: List, arg_column: List):
    """Apply a function column to an argument column.

    When every active lane holds a compiled closure with the *same*
    code object — the SPMD common case — the body runs once over a
    fresh vector frame (argument column in slot 0, per-lane capture
    cells as columns).  Anything else goes elementwise through the
    compiled engine's ``apply_value`` against the lane's own counting
    runtime, which reproduces charges, messages and nesting rejection
    exactly; lanes whose application raises are killed."""
    active = vx.active
    p = vx.p
    if type(fn_column) is _ClosureColumn:
        # Fresh closures from one ``fun`` node: uniform by construction,
        # capture columns prebuilt — no scan, no transpose.
        first = fn_column[active[0]]
        entry = vx.vcache.get(first.code)
        if entry is None:
            entry = _vcompiled_for(vx, first)
        vbody, frame_size = entry
        vframe: List = [None] * frame_size
        vframe[0] = arg_column
        columns = fn_column.capture_columns
        if columns:
            vframe[1 : 1 + len(columns)] = columns
        return vbody(vx, vframe)
    first = fn_column[active[0]]
    kind = type(first)
    if kind is VCompiledClosure:
        cached = vx.app_cache.get(id(first))
        if cached is not None:
            snapshot, vbody, frame_size, columns = cached
            if tuple(fn_column) == snapshot:  # C-speed identity elementwise
                vframe = [None] * frame_size
                vframe[0] = arg_column
                if columns:
                    vframe[1 : 1 + len(columns)] = columns
                return vbody(vx, vframe)
        code = first.code
        uniform = True
        broadcast = True
        for lane in active:
            fn_value = fn_column[lane]
            if fn_value is first:
                continue
            broadcast = False
            if type(fn_value) is not VCompiledClosure or fn_value.code is not code:
                uniform = False
                break
        if uniform:
            vbody, frame_size = _vcompiled_for(vx, first)
            vframe = [None] * frame_size
            vframe[0] = arg_column
            capture_count = len(first.capture_names)
            columns = []
            if capture_count:
                if broadcast:
                    # One shared closure object: every lane sees the
                    # same cells, so the columns are broadcasts too.
                    columns = [[cell] * p for cell in first.cells]
                elif len(active) == p:
                    # Full-width but per-lane closures: transpose the
                    # cell rows into columns in one C-level pass.
                    columns = list(
                        zip(*[closure.cells for closure in fn_column])
                    )
                else:
                    for index in range(capture_count):
                        column = [None] * p
                        for lane in active:
                            column[lane] = fn_column[lane].cells[index]
                        columns.append(column)
                vframe[1 : 1 + capture_count] = columns
            if (broadcast or type(fn_column) is tuple) and len(active) == p:
                # Stable columns (fix-patched recursion, broadcast
                # cells) recur with the same objects — memoize.
                if len(vx.app_cache) >= 1024:
                    vx.app_cache.clear()
                vx.app_cache[id(first)] = (
                    tuple(fn_column),
                    vbody,
                    frame_size,
                    columns,
                )
            return vbody(vx, vframe)
    elif kind is VDelivered and (
        (uniform := set(map(type, fn_column)) == _DELIVERED_ONLY)
        or all(type(fn_column[lane]) is VDelivered for lane in active)
    ):
        # Delivered-messages lookups: total given an int (out-of-range
        # indices answer ``nc ()``), so only the argument kind can kill.
        # The whole-column fast path needs every cell — dead lanes too —
        # to be a delivered function, or the comprehension would trip on
        # a dead lane's leftover.
        if uniform and set(map(type, arg_column)) == _INT_ONLY:
            return [
                fn.messages[index] if 0 <= index < len(fn.messages) else NC_VALUE
                for fn, index in zip(fn_column, arg_column)
            ]
        out = [None] * p
        for lane in list(active):
            index = arg_column[lane]
            if type(index) is int:
                messages = fn_column[lane].messages
                out[lane] = (
                    messages[index]
                    if 0 <= index < len(messages)
                    else NC_VALUE
                )
            else:
                vx.kill(
                    lane,
                    EvalError("a delivered-messages function expects an int"),
                )
        return out
    if any(
        isinstance(fn_column[lane], (VClosure, VCompiledClosure))
        for lane in active
    ):
        # Closures without shared code charge per lane as they run —
        # leave lockstep accounting before the scalar applications.
        vx.flush()
        obs.count("semantics.vectorized.peel_events")
        obs.count("semantics.vectorized.fallback_pids", len(active))
    out = [None] * p
    for lane in list(active):
        try:
            out[lane] = c.apply_value(vx.rts[lane], fn_column[lane], arg_column[lane])
        except _Drained:  # pragma: no cover - scalar code cannot drain
            raise
        except Exception as error:
            vx.kill(lane, error)
    return out


# -- batched supersteps -------------------------------------------------------


def _replay(value, ops, error):
    """One lane's superstep task: hand back the batch-computed outcome.

    The machine sees p of these — the same task structure, per-task op
    counts and error behaviour as the compiled engine's per-component
    tasks, so cost commits, trace records and fault draws line up bit
    for bit.  (Replaying is only sound when a retry cannot demand real
    re-execution, hence batching is off under an armed fault plan.)
    """
    if error is not None:
        raise error
    return value, ops


def _batch_outcomes(vx: _VectorCtx, results: List) -> List[Tuple]:
    outcomes = []
    for lane in range(vx.p):
        error = vx.errors.get(lane)
        if error is not None:
            outcomes.append((None, 0.0, error))
        else:
            outcomes.append((results[lane], vx.lane_ops(lane), None))
    return outcomes


class _VectorRuntime(_Runtime):
    """The compiled runtime with the parallel primitives re-pointed at
    batched supersteps.  Everything outside ``mkpar``/``apply``/``put``
    — the replicated top level, ``if ... at``, parallel-vector literals
    — is compiled-engine code running unchanged."""

    __slots__ = ("vcache",)

    def __init__(
        self,
        p: int,
        machine: Optional[BspMachine] = None,
        vcache: Optional[Dict] = None,
    ) -> None:
        super().__init__(p, machine)
        self.vcache = {} if vcache is None else vcache

    def _batchable(self) -> bool:
        machine = self.machine
        if machine is None:
            # Uncosted evaluation has no supersteps to batch; the
            # compiled inline path is already a single sweep.
            return False
        if machine.faults is not None or machine.retry is not None:
            # A retry re-executes tasks; replaying a memoized outcome
            # would skip lane effects the scalar engines re-run.
            obs.count("semantics.vectorized.fallback_pids", self.p)
            return False
        return True

    def mkpar(self, fn: Value) -> Value:
        if not self._batchable():
            return c._mkpar(self, fn)
        p = self.p
        obs.count("semantics.vectorized.batched_steps")
        vx = _VectorCtx(p, self.vcache)
        results: List = [None] * p
        with deep_recursion():
            try:
                vx.vcharge()
                column = _vapply(vx, [fn] * p, list(range(p)))
                for lane in vx.active:
                    results[lane] = column[lane]
            except _Drained:
                pass
        tasks = [
            partial(_replay, *outcome) for outcome in _batch_outcomes(vx, results)
        ]
        return VParVec(tuple(self.machine.run_superstep(tasks)))

    def parallel_apply(self, arg: Value) -> Value:
        if not (
            isinstance(arg, VPair)
            and isinstance(arg.first, VParVec)
            and isinstance(arg.second, VParVec)
        ):
            raise EvalError("'apply' expects a pair of parallel vectors")
        if not self._batchable():
            return c._parallel_apply(self, arg)
        p = self.p
        obs.count("semantics.vectorized.batched_steps")
        vx = _VectorCtx(p, self.vcache)
        results: List = [None] * p
        with deep_recursion():
            try:
                vx.vcharge()
                column = _vapply(vx, arg.first.items, list(arg.second.items))
                for lane in vx.active:
                    results[lane] = column[lane]
            except _Drained:
                pass
        tasks = [
            partial(_replay, *outcome) for outcome in _batch_outcomes(vx, results)
        ]
        return VParVec(tuple(self.machine.run_superstep(tasks)))

    def put(self, arg: Value) -> Value:
        if not isinstance(arg, VParVec):
            raise EvalError("'put' expects a parallel vector of functions")
        if not self._batchable():
            return c._put(self, arg)
        p = self.p
        obs.count("semantics.vectorized.batched_steps")
        vx = _VectorCtx(p, self.vcache)
        senders = arg.items  # the tuple itself: app_cache-eligible
        columns: List[List] = []
        with deep_recursion():
            try:
                for destination in range(p):
                    vx.vcharge()
                    columns.append(_vapply(vx, senders, [destination] * p))
            except _Drained:
                pass
        if len(columns) == p and len(vx.active) == p:
            # No lane died: one C-level transpose gives the row-major
            # outgoing messages.
            rows: List[List] = list(map(list, zip(*columns)))
        else:
            rows = [[None] * p for _ in range(p)]
            for destination, column in enumerate(columns):
                for lane in vx.active:
                    rows[lane][destination] = column[lane]
        outcomes = []
        for lane in range(p):
            error = vx.errors.get(lane)
            if error is not None:
                outcomes.append((None, 0.0, error))
            else:
                outcomes.append((rows[lane], vx.lane_ops(lane), None))
        tasks = [partial(_replay, *outcome) for outcome in outcomes]
        outgoing = self.machine.run_superstep(tasks)
        sent = [
            [
                1
                if type(message) is int
                else (0 if isinstance(message, VNc) else words(message))
                for message in row
            ]
            for row in outgoing
        ]
        self.machine.exchange(sent, label="put")
        # ``zip(*outgoing)`` transposes rows (sender-major) into the
        # per-destination message tuples in one C pass.
        return VParVec(tuple(map(VDelivered, zip(*outgoing))))


# -- entry points -------------------------------------------------------------


class VectorizedProgram(c.CompiledProgram):
    """A compiled program whose parallel supersteps run batched.

    Compilation is the compiled engine's (same steps, same frame
    layout); only the runtime differs.  The vector-code cache persists
    across :meth:`run` calls — compile once, run many."""

    def __init__(self, expr: Expr, p: int, env_names: Sequence[str] = ()) -> None:
        super().__init__(expr, p, env_names)
        self.vcache: Dict = {}

    def run(
        self,
        machine: Optional[BspMachine] = None,
        env: Optional[Dict[str, Value]] = None,
    ) -> Value:
        if machine is not None and machine.p != self.p:
            raise ValueError(
                f"machine width {machine.p} differs from p={self.p}"
            )
        frame: List = [None] * self._frame_size
        if self.env_names:
            bindings = env or {}
            for index, name in enumerate(self.env_names):
                frame[index] = bindings[name]
        rt = _VectorRuntime(self.p, machine, self.vcache)
        with deep_recursion():
            return self._step(rt, frame)


def compile_vectorized(
    expr: Expr, p: int, env_names: Sequence[str] = ()
) -> VectorizedProgram:
    """Compile ``expr`` for batched execution on a ``p``-process machine."""
    with deep_recursion():
        return VectorizedProgram(expr, p, env_names)


class VectorizedEvaluator:
    """Drop-in engine with the :class:`Evaluator` surface.

    The vector-code cache is evaluator-scoped, so a REPL session or a
    service worker amortizes vector compilation across evaluations.
    """

    def __init__(self, p: int, machine: Optional[BspMachine] = None) -> None:
        if machine is not None and machine.p != p:
            raise ValueError(f"machine width {machine.p} differs from p={p}")
        self.p = p
        self.machine = machine
        self.vcache: Dict = {}

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None) -> Value:
        names = tuple(sorted(env)) if env else ()
        program = compile_vectorized(expr, self.p, names)
        program.vcache = self.vcache
        return program.run(self.machine, env)

    def apply(self, fn: Value, arg: Value) -> Value:
        rt = _VectorRuntime(self.p, self.machine, self.vcache)
        with deep_recursion():
            return c.apply_value(rt, fn, arg)


def run(
    expr: Expr,
    p: int,
    machine: Optional[BspMachine] = None,
    env: Optional[Dict[str, Value]] = None,
) -> Value:
    """Compile and evaluate ``expr`` with batched supersteps."""
    return VectorizedEvaluator(p, machine).eval(expr, env)
