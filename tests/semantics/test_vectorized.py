"""Unit tests for the SPMD-vectorized evaluator: uniform batching,
divergence peeling on pid-dependent ``if``/``case``, per-pid error
timing, cross-engine closure interop, the chaos fallback, and the
``semantics.vectorized.*`` perf counters."""

from __future__ import annotations

import pytest

from repro import obs
from repro.bsp.faults import FaultPlan
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.lang.parser import parse_expression, parse_program
from repro.lang.prelude import with_prelude
from repro.lang.pretty import pretty
from repro.semantics.bigstep import Evaluator
from repro.semantics.compiled import CompiledEvaluator
from repro.semantics.errors import DivisionByZeroError
from repro.semantics.vectorized import (
    VectorizedEvaluator,
    VectorizedProgram,
    compile_vectorized,
)
from repro.semantics.values import (
    VClosure,
    VCompiledClosure,
    VParVec,
    reify,
)

PARAMS = BspParams(p=4, g=2.0, l=50.0)

ENGINE_CLASSES = (Evaluator, CompiledEvaluator, VectorizedEvaluator)


def _agree3(source, env=None):
    """Evaluate on all three engines with costed machines; assert the
    value fingerprint and the BspCost are identical, return the
    vectorized pair."""
    expr = parse_expression(source)
    results = []
    for engine_cls in ENGINE_CLASSES:
        machine = BspMachine(PARAMS)
        value = engine_cls(PARAMS.p, machine).eval(
            expr, dict(env) if env else None
        )
        results.append((value, machine.cost()))
    (_, tree_cost), (_, compiled_cost), (value, cost) = results
    assert cost == tree_cost == compiled_cost, source
    fingerprints = {pretty(reify(v)) for v, _ in results}
    assert len(fingerprints) == 1, source
    return value, cost


# -- uniform batching ---------------------------------------------------------


def test_uniform_mkpar_batches_once():
    with obs.stats() as stats:
        value, _ = _agree3("mkpar (fun i -> i * i)")
    assert isinstance(value, VParVec)
    assert value.items == (0, 1, 4, 9)
    # One batched superstep for the vectorized run; the happy path
    # never peels.
    assert stats.counter("semantics.vectorized.batched_steps") == 1
    assert stats.counter("semantics.vectorized.fallback_pids") == 0
    assert stats.counter("semantics.vectorized.peel_events") == 0


def test_every_parallel_primitive_batches():
    # mkpar + mkpar + apply, then mkpar + put: each parallel superstep
    # is one batch.
    with obs.stats() as stats:
        _agree3("apply (mkpar (fun i -> fun x -> i + x), mkpar (fun i -> i))")
    assert stats.counter("semantics.vectorized.batched_steps") == 3
    with obs.stats() as stats:
        _agree3("put (mkpar (fun src -> fun dst -> src * 10 + dst))")
    assert stats.counter("semantics.vectorized.batched_steps") == 2


def test_batched_closures_capture_lane_state():
    value, _ = _agree3(
        "let v = mkpar (fun i -> i + 1) in "
        "apply (apply (mkpar (fun i -> fun x -> fun y -> x * y + i), v), v)"
    )
    assert value.items == tuple((i + 1) * (i + 1) + i for i in range(4))


# -- divergence peeling -------------------------------------------------------


def test_pid_divergent_if_peels_minority():
    with obs.stats() as stats:
        value, _ = _agree3("mkpar (fun i -> if i = 0 then 100 else i)")
    assert value.items == (100, 1, 2, 3)
    # One split: pid 0 takes the minority branch and is peeled through
    # the compiled scalar twin; the other three lanes stay batched.
    assert stats.counter("semantics.vectorized.peel_events") == 1
    assert stats.counter("semantics.vectorized.fallback_pids") == 1


def test_pid_divergent_case_peels():
    with obs.stats() as stats:
        value, _ = _agree3(
            "mkpar (fun i -> "
            "case (if i = 0 then inl i else inr i) of "
            "inl x -> x + 100 | inr y -> y * 2)"
        )
    assert value.items == (100, 2, 4, 6)
    assert stats.counter("semantics.vectorized.peel_events") >= 1
    assert stats.counter("semantics.vectorized.fallback_pids") >= 1


def test_uniform_condition_does_not_peel():
    with obs.stats() as stats:
        value, _ = _agree3("mkpar (fun i -> if nproc = 4 then i else 0 - i)")
    assert value.items == (0, 1, 2, 3)
    assert stats.counter("semantics.vectorized.peel_events") == 0
    assert stats.counter("semantics.vectorized.fallback_pids") == 0


def test_mixed_uniform_and_divergent_supersteps():
    value, _ = _agree3(
        "let a = mkpar (fun i -> i * 2) in "
        "let b = mkpar (fun i -> if i < 2 then 10 else 20) in "
        "apply (mkpar (fun i -> fun x -> x + i), b)"
    )
    assert value.items == (10, 11, 22, 23)


# -- error timing -------------------------------------------------------------


def test_one_pid_raises_identically():
    expr = parse_expression("mkpar (fun i -> if i = 2 then 1 / 0 else i)")
    costs = []
    messages = []
    for engine_cls in ENGINE_CLASSES:
        machine = BspMachine(PARAMS)
        with pytest.raises(DivisionByZeroError) as info:
            engine_cls(PARAMS.p, machine).eval(expr)
        messages.append(str(info.value))
        costs.append(machine.cost())
    # Same error text, and the failed superstep commits nothing into
    # BspCost on any engine.
    assert len(set(messages)) == 1
    assert costs[0] == costs[1] == costs[2]


def test_killed_lane_stops_charging():
    # The failing lane dies at its own site; the surviving lanes'
    # results and charges are unaffected (checked via cost identity).
    expr = parse_expression(
        "mkpar (fun i -> if i = 0 then (1 / 0) + 1 else i + 1)"
    )
    for engine_cls in ENGINE_CLASSES:
        with pytest.raises(DivisionByZeroError):
            engine_cls(PARAMS.p, BspMachine(PARAMS)).eval(expr)


# -- cross-engine interop -----------------------------------------------------


def test_other_engines_apply_vectorized_closure():
    fn = VectorizedEvaluator(PARAMS.p).eval(parse_expression("fun x -> x * x"))
    assert isinstance(fn, VCompiledClosure)
    for engine_cls in (Evaluator, CompiledEvaluator):
        machine = BspMachine(PARAMS)
        assert engine_cls(PARAMS.p, machine).eval(
            parse_expression("f 9"), {"f": fn}
        ) == 81


def test_vectorized_batch_runs_foreign_closures():
    # A tree closure inside a vectorized mkpar routes through the
    # elementwise fallback; a compiled closure stays batch-eligible.
    # Values and costs match the other engines either way.
    fn_expr = parse_expression("fun i -> i * i + 1")
    for maker in (Evaluator, CompiledEvaluator):
        fn = maker(PARAMS.p).eval(fn_expr)
        costs = []
        for runner in ENGINE_CLASSES:
            machine = BspMachine(PARAMS)
            value = runner(PARAMS.p, machine).eval(
                parse_expression("mkpar f"), {"f": fn}
            )
            assert value.items == (1, 2, 5, 10)
            costs.append(machine.cost())
        assert costs[0] == costs[1] == costs[2]
    tree_fn = Evaluator(PARAMS.p).eval(fn_expr)
    assert isinstance(tree_fn, VClosure)


# -- chaos fallback -----------------------------------------------------------


def test_armed_fault_plan_disables_batching():
    # With a fault plan armed a retry may re-execute tasks, so replaying
    # memoized outcomes is unsound: the engine must fall back to the
    # compiled scalar path wholesale and say so in the counters.
    plan = FaultPlan(seed=0)  # all rates zero: survivable by definition
    expr = parse_expression("mkpar (fun i -> i * 3)")
    with obs.stats() as stats:
        machine = BspMachine(PARAMS, faults=plan)
        value = VectorizedEvaluator(PARAMS.p, machine).eval(expr)
    assert value.items == (0, 3, 6, 9)
    assert stats.counter("semantics.vectorized.batched_steps") == 0
    assert stats.counter("semantics.vectorized.fallback_pids") == PARAMS.p


# -- programs, prelude, reruns ------------------------------------------------


def test_prelude_fold_agrees():
    expr = with_prelude(
        parse_program("fold (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))")
    )
    costs = []
    for engine_cls in ENGINE_CLASSES:
        machine = BspMachine(PARAMS)
        value = engine_cls(PARAMS.p, machine).eval(expr)
        costs.append(machine.cost())
        assert value.items == (6, 6, 6, 6)
    assert costs[0] == costs[1] == costs[2]


def test_vectorized_program_reruns():
    program = compile_vectorized(
        parse_expression("mkpar (fun i -> i + 1)"), PARAMS.p
    )
    assert isinstance(program, VectorizedProgram)
    for _ in range(3):
        machine = BspMachine(PARAMS)
        assert program.run(machine).items == (1, 2, 3, 4)


def test_vectorized_program_env_names():
    program = compile_vectorized(
        parse_expression("mkpar (fun i -> i * k)"), PARAMS.p, env_names=("k",)
    )
    machine = BspMachine(PARAMS)
    assert program.run(machine, env={"k": 5}).items == (0, 5, 10, 15)


def test_machine_width_check():
    program = compile_vectorized(parse_expression("1 + 1"), PARAMS.p)
    with pytest.raises(ValueError, match="machine width"):
        program.run(machine=BspMachine(BspParams(p=2)))
    with pytest.raises(ValueError, match="machine width"):
        VectorizedEvaluator(PARAMS.p, BspMachine(BspParams(p=2)))


def test_uncosted_eval_matches_compiled():
    # No machine means no supersteps to batch: the inline compiled path
    # runs, values still agree.
    source = "mkpar (fun i -> if i = 1 then 7 else i)"
    vec = VectorizedEvaluator(PARAMS.p).eval(parse_expression(source))
    com = CompiledEvaluator(PARAMS.p).eval(parse_expression(source))
    assert vec.items == com.items == (0, 7, 2, 3)
