"""Tests for the pluggable execution backends (repro.bsp.executor)."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro import obs
from repro.bsp.executor import (
    BACKENDS,
    ProcessExecutor,
    SequentialExecutor,
    ThreadExecutor,
    get_executor,
)
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams


def _square_task(i):
    """Module-level, so the process backend can actually pickle it."""
    return i * i, 1.0


def _boom_task():
    raise RuntimeError("boom")


def _pick_task(items, i):
    """Module-level partial target sharing ``items`` across tasks."""
    return items[i], 1.0


def _tasks(p):
    return [partial(_square_task, i) for i in range(p)]


@pytest.fixture(params=BACKENDS)
def executor(request):
    return get_executor(request.param)


class TestAllBackends:
    def test_values_in_task_order(self, executor):
        outcomes = executor.run(_tasks(5))
        assert [outcome.value for outcome in outcomes] == [
            (i * i, 1.0) for i in range(5)
        ]
        assert all(outcome.error is None for outcome in outcomes)

    def test_timings_are_measured(self, executor):
        outcomes = executor.run(_tasks(3))
        assert all(outcome.seconds >= 0.0 for outcome in outcomes)

    def test_errors_are_reported_per_task(self, executor):
        outcomes = executor.run([partial(_square_task, 0), _boom_task])
        assert outcomes[0].error is None
        assert isinstance(outcomes[1].error, RuntimeError)

    def test_empty_task_list(self, executor):
        assert executor.run([]) == []


class TestSequential:
    def test_fails_fast(self):
        ran = []

        def record(i):
            ran.append(i)
            return i, 1.0

        def boom():
            raise RuntimeError("stop here")

        outcomes = SequentialExecutor().run(
            [partial(record, 0), boom, partial(record, 2)]
        )
        # The task after the failure never ran: exactly the historical
        # in-line semantics the other backends are compared against.
        assert ran == [0]
        assert outcomes[2].skipped


class TestThread:
    def test_reentrant_submission_runs_inline(self):
        # A task that itself opens a computation phase must not deadlock
        # the pool (it runs inline and is rejected by downstream checks).
        executor = ThreadExecutor(max_workers=1)

        def outer():
            inner = executor.run([lambda: (42, 1.0)])
            return inner[0].value[0], 1.0

        outcomes = executor.run([outer])
        assert outcomes[0].value == (42, 1.0)
        executor.close()


class TestProcess:
    def test_picklable_tasks_cross_the_boundary(self):
        executor = get_executor("process")
        with obs.stats() as stats:
            outcomes = executor.run(_tasks(3))
        assert [outcome.value[0] for outcome in outcomes] == [0, 1, 4]
        assert stats.counter("bsp.backend.process.inline") == 0

    def test_unpicklable_tasks_fall_back_inline(self):
        executor = get_executor("process")
        witness = []  # closure over a local: the task cannot pickle

        def local_task():
            witness.append(True)
            return "ran here", 1.0

        with pytest.raises(Exception):
            pickle.dumps(local_task)
        with obs.stats() as stats:
            outcomes = executor.run([local_task])
        assert outcomes[0].value == ("ran here", 1.0)
        assert witness == [True]  # side effect landed in this process
        assert stats.counter("bsp.backend.process.inline") == 1

    def test_shared_task_parts_are_pickled_once(self):
        # The tasks of one phase share their function and one big
        # argument (the evaluator's closure environment, here a tuple);
        # each shared object must be pickled once and its blob reused.
        executor = get_executor("process")
        shared = tuple(range(100))
        tasks = [partial(_pick_task, shared, i) for i in range(4)]
        with obs.stats() as stats:
            outcomes = executor.run(tasks)
        assert [outcome.value[0] for outcome in outcomes] == [0, 1, 2, 3]
        assert stats.counter("bsp.backend.process.inline") == 0
        # 6 misses: _pick_task, shared, and the four distinct indices;
        # 6 hits: _pick_task and shared reused by tasks 1..3.
        assert stats.counter("bsp.backend.process.pickle_cache_miss") == 6
        assert stats.counter("bsp.backend.process.pickle_cache_hit") == 6

    def test_part_pickling_preserves_errors(self):
        executor = get_executor("process")
        outcomes = executor.run(
            [partial(_pick_task, (1, 2), 0), partial(_pick_task, (1, 2), 9)]
        )
        assert outcomes[0].error is None
        assert isinstance(outcomes[1].error, IndexError)


class TestRegistry:
    def test_shared_instances(self):
        assert get_executor("thread") is get_executor("thread")
        assert get_executor("seq") is get_executor("sequential")
        assert get_executor("processes") is get_executor("process")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")

    def test_machine_accepts_executor(self):
        machine = BspMachine(BspParams(p=2), executor=get_executor("thread"))
        assert machine.executor.name == "thread"
        machine.use_backend("seq")
        assert machine.executor.name == "seq"


class _ReduceBomb:
    """A callable whose *pickling itself* raises — not merely an
    unpicklable shape, but an unexpected serialization failure."""

    def __init__(self, i):
        self.i = i

    def __call__(self):
        return self.i * 2, 1.0

    def __reduce__(self):
        raise RuntimeError("pickling went sideways")


def _die_once(sentinel, i):
    """Kill the hosting pool worker the first time, succeed after."""
    import os

    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(1)
    return i + 100, 1.0


class TestProcessFallbackErrors:
    """Satellite 1: the pickling probe must never swallow exceptions."""

    def test_unexpected_pickle_failure_is_recorded_not_discarded(self):
        executor = get_executor("process")
        with obs.stats() as stats:
            outcomes = executor.run([_ReduceBomb(3)])
        # The task still runs (inline fallback keeps the machine going)...
        assert outcomes[0].value == (6, 1.0)
        assert outcomes[0].error is None
        # ...but the cause is recorded on the outcome and counted, not
        # silently dropped as the old bare ``except Exception: pass`` did.
        assert "RuntimeError" in outcomes[0].fallback_error
        assert "pickling went sideways" in outcomes[0].fallback_error
        assert stats.counter("bsp.backend.process.fallback_error") == 1
        assert stats.counter("bsp.backend.process.inline") == 1

    def test_ordinary_unpicklable_fallback_is_not_an_error(self):
        executor = get_executor("process")
        witness = []

        def local_task():
            witness.append(True)
            return "ok", 1.0

        with obs.stats() as stats:
            outcomes = executor.run([local_task])
        assert outcomes[0].value == ("ok", 1.0)
        # A closure is unpicklable *by design*: the cause is still
        # recorded on the outcome (nothing is ever discarded), but it is
        # a routine inline fallback, not an unexpected fallback error.
        assert "local_task" in outcomes[0].fallback_error
        assert stats.counter("bsp.backend.process.fallback_error") == 0
        assert stats.counter("bsp.backend.process.inline") == 1


class TestBrokenPoolRecovery:
    """Satellite 4: a process-pool worker dying mid-run must either be
    retried on a fresh pool (policy armed) or surface as an atomic
    SuperstepFault (policy off) — never a stuck machine."""

    def _machine(self, retry=None):
        from repro.bsp.faults import RetryPolicy

        executor = ProcessExecutor()
        machine = BspMachine(
            BspParams(p=2), executor=executor, retry=retry
        )
        return machine, executor

    def test_retry_policy_recovers_on_a_fresh_pool(self, tmp_path):
        from repro.bsp.faults import RetryPolicy

        machine, executor = self._machine(retry=RetryPolicy(max_attempts=3))
        sentinel = str(tmp_path / "died-once")
        try:
            with obs.stats() as stats:
                values = machine.run_superstep(
                    [partial(_die_once, sentinel, i) for i in range(2)]
                )
            assert values == [100, 101]
            assert stats.counter("bsp.backend.process.broken_pool") >= 1
            assert stats.counter("bsp.retry.recovered") == 1
        finally:
            executor.close()

    def test_no_policy_raises_superstep_fault_atomically(self, tmp_path):
        from repro.bsp.faults import SuperstepFault

        machine, executor = self._machine(retry=None)
        machine.exchange(
            [[0, 2], [0, 0]], payloads={(0, 1): "kept"}, label="pre"
        )
        before = machine.state_fingerprint()
        sentinel = str(tmp_path / "dies")
        try:
            with pytest.raises(SuperstepFault) as excinfo:
                machine.run_superstep(
                    [partial(_die_once, sentinel, i) for i in range(2)]
                )
            assert excinfo.value.phase == "compute"
            assert any(row.status == "pool" for row in excinfo.value.table)
            # Nothing committed, mailboxes intact.
            assert machine.state_fingerprint() == before
            assert machine.receive(1, 0) == "kept"
        finally:
            executor.close()
