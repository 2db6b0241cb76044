"""Regression: stats/trace collection windows are context-isolated.

Before the :mod:`contextvars` refactor, the active-collector stacks of
the instrumentation were module-global lists: two inferences traced
concurrently (the long-running service's normal situation) appended
every record to *both* collectors, producing interleaved span stacks
and double-counted counters.  These tests run
two traced/collected inferences concurrently on separate threads and
assert each window saw exactly — and only — its own work.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.core.infer import infer
from repro.lang.parser import parse_program

#: Two programs with deliberately different AST sizes so each trace's
#: judgment-span count uniquely identifies which program produced it.
SMALL = "1 + 2"
LARGE = "let f = fun x -> x + 1 in let g = fun y -> f (f y) in g (g (g 1))"


def _node_count(source: str) -> int:
    expr = parse_program(source)
    return sum(1 for _ in _walk(expr))


def _walk(expr):
    yield expr
    for child in expr.children() if hasattr(expr, "children") else ():
        yield from _walk(child)


def _traced_inference(source: str, barrier: threading.Barrier, out: dict) -> None:
    expr = parse_program(source)
    barrier.wait(timeout=10)
    with obs.stats() as stats, obs.trace() as collected:
        for _ in range(20):
            infer(expr)
    out[source] = (stats, collected)


@pytest.mark.parametrize("rounds", [3])
def test_concurrent_traces_are_disjoint(rounds):
    """Two traced inferences on two threads collect disjoint records."""
    for _ in range(rounds):
        barrier = threading.Barrier(2)
        out: dict = {}
        threads = [
            threading.Thread(target=_traced_inference, args=(source, barrier, out))
            for source in (SMALL, LARGE)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        small_stats, small_trace = out[SMALL]
        large_stats, large_trace = out[LARGE]

        # Counter isolation: each window counted exactly its own 20 runs.
        assert small_stats.counter("infer.runs") == 20
        assert large_stats.counter("infer.runs") == 20

        # Span isolation: each trace holds judgment spans for exactly its
        # own program's nodes (20 runs x node count), not the union.
        small_judgments = len(small_trace.spans("judgment"))
        large_judgments = len(large_trace.spans("judgment"))
        assert small_judgments == 20 * _expr_nodes(SMALL)
        assert large_judgments == 20 * _expr_nodes(LARGE)
        assert small_judgments != large_judgments


def _expr_nodes(source: str) -> int:
    """Count judgment spans one traced inference of ``source`` emits."""
    expr = parse_program(source)
    with obs.trace() as collected:
        infer(expr)
    return len(collected.spans("judgment"))


def test_concurrent_span_stacks_are_well_formed():
    """Every trace's spans nest properly: a span's [ts, ts+dur] interval
    lies inside its enclosing span's interval (the property interleaving
    from another thread destroys)."""
    barrier = threading.Barrier(2)
    out: dict = {}
    threads = [
        threading.Thread(target=_traced_inference, args=(source, barrier, out))
        for source in (SMALL, LARGE)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    for source in (SMALL, LARGE):
        _, collected = out[source]
        spans = collected.spans()
        assert spans, "expected inference spans"
        # 'infer' root spans must bracket every judgment span recorded
        # in the same window (single-threaded nesting restored).
        roots = collected.spans("infer")
        assert len(roots) == 20
        for record in collected.spans("judgment"):
            assert any(
                root.ts <= record.ts
                and record.ts + record.dur <= root.ts + root.dur + 1e-9
                for root in roots
            ), f"judgment span outside every infer root in {source!r}"


def test_thread_without_window_records_nothing():
    """A thread with no active window must not see another thread's."""
    stats_holder: dict = {}

    def bystander():
        stats_holder["collecting"] = obs.is_active(window_stats)
        stats_holder["tracing"] = obs.enabled()

    with obs.stats() as window_stats, obs.trace():
        thread = threading.Thread(target=bystander)
        thread.start()
        thread.join(timeout=10)
    assert stats_holder == {"collecting": False, "tracing": False}
