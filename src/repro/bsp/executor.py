"""Pluggable parallel execution backends for the BSP substrate.

The :class:`~repro.bsp.machine.BspMachine` *accounts* cost; an
:class:`Executor` decides how the per-process computation phase of a
superstep actually runs.  Three interchangeable backends sit behind one
protocol:

* :class:`SequentialExecutor` — the historical behaviour: run each task
  in order on the calling thread (the default, and the reference
  semantics the others are differentially tested against);
* :class:`ThreadExecutor` — a shared ``ThreadPoolExecutor``; real
  concurrency for I/O-ish workloads and a scheduling stress test for the
  deterministic cost accounting;
* :class:`ProcessExecutor` — a shared ``ProcessPoolExecutor``; true
  multi-core parallelism for *picklable* per-process tasks, with a
  per-task inline fallback (counted in ``bsp.backend.process.inline``)
  for tasks that cannot cross a process boundary (closures over mutable
  references, lambdas, whole BSML contexts).

Every task is a zero-argument callable returning ``(value, ops)`` where
``ops`` is the abstract local-work count to fold into the cost model.
Executors measure per-task wall-clock seconds (*inside* the worker, so
IPC and pickling overhead is excluded from compute time) and report
:class:`TaskOutcome` records in task order.  Cost accounting therefore
stays **backend-independent**: the abstract op counts are computed by the
tasks themselves, deterministically, while the measured seconds ride
alongside and never participate in :class:`~repro.bsp.cost.BspCost`
equality.

Error discipline: the sequential backend fails fast (exactly the old
in-line behaviour); the concurrent backends run every task and report
each task's error, and the machine re-raises the lowest-index one, so
the *propagated* exception is deterministic across backends.  **No
executor path discards an exception silently**: an inline fallback
records *why* it fell back on the outcome (``fallback_error``), an
unexpected fallback cause is counted under
``bsp.backend.process.fallback_error``, and a broken pool is reported as
a per-task error (retryable at machine level — see
:mod:`repro.bsp.faults`) rather than being papered over.  A backend
whose pool cannot even start in this environment raises
:class:`~repro.bsp.faults.BackendUnavailableError` with a one-line
message naming the valid backends.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.bsp.faults import BackendUnavailableError

#: A unit of per-process work: returns ``(value, abstract_op_count)``.
Task = Callable[[], Any]

#: The canonical backend names, in documentation order.
BACKENDS = ("seq", "thread", "process")

_ALIASES = {
    "seq": "seq",
    "sequential": "seq",
    "thread": "thread",
    "threads": "thread",
    "process": "process",
    "processes": "process",
}


@dataclass
class TaskOutcome:
    """What happened to one task: a value, an error, or skipped.

    ``seconds`` is the wall-clock compute time measured around the call
    inside the worker (thread, child process, or the calling thread for
    the sequential backend); ``started`` is the worker's
    ``perf_counter`` at call time, so the tracing layer
    (:mod:`repro.obs`) can place the task on its process's timeline.
    ``fallback_error`` records *why* the process backend ran this task
    inline instead of on the pool (the pickling or submission failure) —
    the task may still have succeeded, but the cause is never discarded.
    """

    value: Any = None
    seconds: float = 0.0
    started: float = 0.0
    error: Optional[BaseException] = None
    skipped: bool = False
    fallback_error: Optional[str] = None


def _timed(task: Task) -> TaskOutcome:
    """Run ``task`` and capture its value/error with wall-clock timing."""
    start = time.perf_counter()
    try:
        value = task()
    except Exception as error:
        return TaskOutcome(
            error=error, seconds=time.perf_counter() - start, started=start
        )
    return TaskOutcome(
        value=value, seconds=time.perf_counter() - start, started=start
    )


def _run_pickled(blob: bytes) -> TaskOutcome:
    """Worker entry point of :class:`ProcessExecutor` (module-level so it
    is importable — hence picklable — in the child)."""
    task = pickle.loads(blob)
    return _timed(task)


def _run_parts(blobs: Sequence[bytes]) -> TaskOutcome:
    """Worker entry point for part-wise pickled ``functools.partial``
    tasks: ``blobs[0]`` is the function, the rest its positional
    arguments, each pickled separately so the parent can reuse one blob
    for an object shared across a superstep's tasks (typically the
    closure environment every per-process task carries)."""
    parts = [pickle.loads(blob) for blob in blobs]
    return _timed(functools.partial(parts[0], *parts[1:]))


class SequentialExecutor:
    """Run tasks one after another on the calling thread (fail-fast).

    This is the reference backend: its interleaving is exactly the
    historical in-line execution, so anything the differential harness
    observes on it defines correctness for the others.
    """

    name = "seq"

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        failed = False
        for task in tasks:
            if failed:
                outcomes.append(TaskOutcome(skipped=True))
                continue
            outcome = _timed(task)
            outcomes.append(outcome)
            failed = outcome.error is not None
        return outcomes

    def recycle(self) -> None:
        """Replace the worker pool (no-op: there is none)."""

    def ensure_available(self) -> None:
        """Probe that the backend can run here (always true)."""

    def close(self) -> None:
        pass


class ThreadExecutor:
    """Run tasks concurrently on a shared thread pool.

    Re-entrant submissions (a task that itself opens a computation phase,
    e.g. an improperly nested BSML ``mkpar``) are detected via a
    thread-local flag and run inline instead of being queued — queueing
    them behind the very task that is waiting for them would deadlock a
    small pool.  The nesting itself is still rejected downstream by the
    usual dynamic checks; the executor just refuses to die first.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers or min(16, 4 * (os.cpu_count() or 1))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._local = threading.local()

    def _ensure(self) -> ThreadPoolExecutor:
        if self._pool is None:
            try:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers, thread_name_prefix="bsp-proc"
                )
            except Exception as error:
                raise BackendUnavailableError(
                    f"backend 'thread' is unavailable here ({error}); "
                    f"valid backends: {', '.join(BACKENDS)}"
                ) from error
        return self._pool

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        if getattr(self._local, "in_worker", False):
            obs.event(
                "backend.reentrant_inline",
                obs.MACHINE_TRACK,
                backend=self.name,
                tasks=len(tasks),
            )
            return SequentialExecutor().run(tasks)
        pool = self._ensure()
        futures = [pool.submit(self._worker, task) for task in tasks]
        return [future.result() for future in futures]

    def _worker(self, task: Task) -> TaskOutcome:
        self._local.in_worker = True
        try:
            return _timed(task)
        finally:
            self._local.in_worker = False

    def recycle(self) -> None:
        """Tear down the pool; the next phase builds a fresh one."""
        obs.event("backend.recycle", obs.MACHINE_TRACK, backend=self.name)
        self.close()

    def ensure_available(self) -> None:
        """Probe that a thread pool can be started here (eagerly)."""
        self._ensure()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Exception types that mean "this object simply does not pickle" — the
#: routine, by-design fallback signal for closures, lambdas and live
#: contexts.  Anything else escaping ``pickle.dumps`` (a ``__reduce__``
#: raising, a corrupted payload) is an *unexpected* failure and is
#: counted under ``bsp.backend.process.fallback_error``.
_EXPECTED_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class ProcessExecutor:
    """Run tasks on a shared process pool (``concurrent.futures``).

    A task crosses the process boundary only if it pickles; tasks built
    from module-level functions and picklable values (the ones the
    evaluator and the BSML primitives construct) do, while closures over
    live mutable state — references, pools, whole contexts — do not and
    are executed inline in the parent, where their side effects land on
    the real objects.  Every inline fallback records its cause on the
    outcome (``fallback_error``) and an unexpected cause — a pickling
    probe *raising* rather than politely refusing, or a result that
    cannot come back — is additionally counted under
    ``bsp.backend.process.fallback_error``; nothing is discarded.

    A broken pool (a worker died mid-phase) is **not** silently papered
    over: the affected tasks report the :class:`BrokenExecutor` as their
    error — a transient, retryable condition — and the dead pool is
    dropped so the next phase starts a fresh one.  The machine layer
    decides whether to retry (``RetryPolicy``) or abort atomically
    (:class:`~repro.bsp.faults.SuperstepFault`).
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers or min(4, os.cpu_count() or 1)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
            except Exception as error:
                raise BackendUnavailableError(
                    f"backend 'process' is unavailable here ({error}); "
                    f"valid backends: {', '.join(BACKENDS)}"
                ) from error
        return self._pool

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        futures: Dict[int, Any] = {}
        fallback_causes: Dict[int, BaseException] = {}
        # Per-phase pickle cache, keyed by object identity.  The tasks of
        # one superstep usually share big immutable parts — every
        # per-process task carries the *same* function value (its closure
        # environment included), which used to be re-pickled p times.
        # Identity keys are safe exactly for the duration of this call:
        # ``tasks`` keeps every part alive, so an id cannot be recycled.
        # Part-wise pickling trades away aliasing *between* the parts of
        # one task, which is sound here: evaluator values are immutable,
        # and the one mutable value (``VRef``) refuses to pickle at all.
        cache: Dict[int, bytes] = {}

        def dump_part(part: Any) -> bytes:
            key = id(part)
            blob = cache.get(key)
            if blob is not None:
                obs.count("bsp.backend.process.pickle_cache_hit")
                return blob
            blob = pickle.dumps(part)
            obs.count("bsp.backend.process.pickle_cache_miss")
            cache[key] = blob
            return blob

        for index, task in enumerate(tasks):
            try:
                if isinstance(task, functools.partial) and not task.keywords:
                    blobs = [dump_part(task.func)]
                    blobs.extend(dump_part(arg) for arg in task.args)
                    entry = (_run_parts, blobs)
                else:
                    entry = (_run_pickled, pickle.dumps(task))
            except Exception as error:
                fallback_causes[index] = error  # runs inline below
                continue
            try:
                futures[index] = self._ensure().submit(*entry)
            except BackendUnavailableError:
                raise
            except Exception as error:
                futures.pop(index, None)
                fallback_causes[index] = error
        for index, task in enumerate(tasks):
            future = futures.get(index)
            if future is not None:
                try:
                    outcomes[index] = future.result()
                    continue
                except BrokenExecutor as error:
                    # The pool died under this task.  Report it as the
                    # task's (retryable) error and drop the dead pool so
                    # the next phase — or a machine-level retry — gets a
                    # fresh one.  Never run the task inline here: the
                    # machine must decide whether a retry is allowed.
                    self._pool = None
                    if obs.enabled():
                        obs.count("bsp.backend.process.broken_pool")
                        obs.event(
                            "backend.broken_pool",
                            obs.MACHINE_TRACK,
                            backend=self.name,
                            slot=index,
                        )
                    outcomes[index] = TaskOutcome(error=error)
                    continue
                except Exception as error:
                    # The result could not come back (e.g. it does not
                    # unpickle).  Fall back inline, but record why.
                    fallback_causes[index] = error
            cause = fallback_causes.get(index)
            if obs.enabled():
                expected = cause is None or isinstance(cause, _EXPECTED_UNPICKLABLE)
                obs.count("bsp.backend.process.inline")
                if not expected:
                    obs.count("bsp.backend.process.fallback_error")
                obs.event(
                    "backend.fallback",
                    obs.MACHINE_TRACK,
                    backend=self.name,
                    slot=index,
                    cause=(
                        f"{type(cause).__name__}: {cause}"
                        if cause is not None
                        else "unpicklable"
                    ),
                    expected=expected,
                )
            outcome = _timed(task)
            if cause is not None:
                outcome.fallback_error = f"{type(cause).__name__}: {cause}"
            outcomes[index] = outcome
        return [outcome for outcome in outcomes if outcome is not None]

    def recycle(self) -> None:
        """Drop the current pool (fast); the next phase builds a fresh
        one.  Used by the fault layer's injected broken-pool events and
        safe to call on a healthy pool."""
        obs.event("backend.recycle", obs.MACHINE_TRACK, backend=self.name)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def ensure_available(self) -> None:
        """Probe that a process pool can be started here (eagerly)."""
        self._ensure()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Shared per-name instances so thread/process pools are reused across
#: machines (pool startup dwarfs any superstep; see bench_backends.py).
_SHARED: Dict[str, Any] = {}


def get_executor(name: str = "seq"):
    """The shared executor for ``name`` (``seq``, ``thread``, ``process``).

    Aliases ``sequential``/``threads``/``processes`` are accepted.
    Instances are lazily created and cached module-wide, so repeated
    machines reuse one pool per backend.
    """
    try:
        key = _ALIASES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
        ) from None
    if key not in _SHARED:
        _SHARED[key] = {
            "seq": SequentialExecutor,
            "thread": ThreadExecutor,
            "process": ProcessExecutor,
        }[key]()
    return _SHARED[key]


def shutdown_executors() -> None:
    """Close every shared pool (tests and interpreter teardown)."""
    for executor in _SHARED.values():
        executor.close()
