"""Benchmark — the tracing layer's disabled overhead.

The instrumentation stream (``repro.obs``) is opt-in: with no window
open and no sink installed every instrumentation point is one
truthiness test on the context-local window stack.  The guard below
holds the machine to that promise: a superstep workload run with
tracing disabled must cost at most ``MAX_OVERHEAD`` of the same workload with the
instrumentation sites **stubbed out entirely** — a faithful stand-in for
the machine as it was before the layer existed (that code is gone, so it
cannot be measured directly).

A third, informational measurement runs with a collector active.  That
path deliberately pays for record construction (it is opt-in precisely
because it is not free), so it is reported but not guarded.

The regenerated table lands in ``benchmarks/results/trace.txt``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial

from repro import obs
from repro.bsp import executor as executor_mod
from repro.bsp import machine as machine_mod
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams

from _util import write_table

PARAMS = BspParams(p=4, g=2.0, l=50.0)

#: Supersteps (each: one compute phase + one exchange) per measurement.
REPS = 300

#: Best-of-N wall-clock measurements (minimum filters scheduler noise).
REPEATS = 7

#: The guard: tracing disabled must cost at most this factor of the
#: machine with the instrumentation sites removed.
MAX_OVERHEAD = 1.05


def _unit_task(i):
    return i * i, 1.0


TASKS = [partial(_unit_task, i) for i in range(PARAMS.p)]
SENT = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
PAYLOADS = {(0, 1): "a", (1, 2): "b", (2, 3): "c", (3, 0): "d"}


class _ObsStub:
    """The tracer's surface with every site compiled down to nothing —
    the machine as it was before the layer existed."""

    MACHINE_TRACK = obs.MACHINE_TRACK
    INFERENCE_TRACK = obs.INFERENCE_TRACK

    @staticmethod
    def process_track(proc):
        return f"proc {proc}"

    @staticmethod
    def enabled():
        return False

    @staticmethod
    def count(*args, **kwargs):
        pass

    @staticmethod
    def record(*args, **kwargs):
        pass

    @staticmethod
    def event(*args, **kwargs):
        pass

    @staticmethod
    @contextmanager
    def span(*args, **kwargs):
        yield None


@contextmanager
def _instrumentation_removed():
    """Swap the machine/executor layers' ``obs`` binding for the stub."""
    originals = (machine_mod.obs, executor_mod.obs)
    machine_mod.obs = executor_mod.obs = _ObsStub
    try:
        yield
    finally:
        machine_mod.obs, executor_mod.obs = originals


def _drive(machine: BspMachine):
    values = None
    for _ in range(REPS):
        values = machine.run_superstep(TASKS)
        machine.exchange(SENT, payloads=dict(PAYLOADS), label="bench")
    return values


def _measure_once() -> float:
    machine = BspMachine(PARAMS)
    start = time.perf_counter()
    _drive(machine)
    return time.perf_counter() - start


def _best_of(mode: str) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        if mode == "stubbed":
            with _instrumentation_removed():
                best = min(best, _measure_once())
        elif mode == "disabled":
            best = min(best, _measure_once())
        else:  # enabled
            with obs.trace():
                best = min(best, _measure_once())
    return best


def test_disabled_tracing_is_free(benchmark):
    # Correctness first: neither the stub nor an active collector changes
    # anything observable.
    with _instrumentation_removed():
        stub_machine = BspMachine(PARAMS)
        stub_values = _drive(stub_machine)
    plain_machine = BspMachine(PARAMS)
    plain_values = _drive(plain_machine)
    traced_machine = BspMachine(PARAMS)
    with obs.trace() as collected:
        traced_values = _drive(traced_machine)
    assert stub_values == plain_values == traced_values == [0, 1, 4, 9]
    assert stub_machine.cost() == plain_machine.cost() == traced_machine.cost()
    # and the traced run actually recorded the pipeline
    assert len(collected.events("superstep")) == REPS

    stubbed_s = _best_of("stubbed")
    disabled_s = _best_of("disabled")
    enabled_s = _best_of("enabled")
    ratio = disabled_s / stubbed_s
    enabled_ratio = enabled_s / stubbed_s

    write_table(
        "trace",
        f"Tracing overhead — {REPS} supersteps (compute + exchange), "
        f"p={PARAMS.p}, best of {REPEATS}",
        ("machine", "total (ms)", "vs no layer", "verdict"),
        [
            (
                "instrumentation stubbed out",
                f"{stubbed_s * 1e3:.1f}",
                "1.00x",
                "reference",
            ),
            (
                "tracing disabled (no collector)",
                f"{disabled_s * 1e3:.1f}",
                f"{ratio:.2f}x",
                "within guard" if ratio <= MAX_OVERHEAD else "OVER BUDGET",
            ),
            (
                "collector active (full trace)",
                f"{enabled_s * 1e3:.1f}",
                f"{enabled_ratio:.2f}x",
                "informational",
            ),
        ],
        footer="Guard: with no collector active the instrumentation must "
        f"cost <= {MAX_OVERHEAD:.2f}x the machine with the sites removed "
        "entirely (one truthiness test per site).  An active collector "
        "pays for record construction by design and is opt-in.",
    )

    assert ratio <= MAX_OVERHEAD, (
        f"disabled-tracing overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x budget ({disabled_s * 1e3:.2f} ms vs "
        f"{stubbed_s * 1e3:.2f} ms over {REPS} supersteps)"
    )

    benchmark(lambda: _drive(BspMachine(PARAMS)))
