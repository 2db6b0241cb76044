"""The BSP machine simulator: superstep engine with cost accounting.

The machine is the substrate on which both the Python BSMLlib
(:mod:`repro.bsml`) and the costed mini-BSML interpreter
(:mod:`repro.semantics.costed`) run.  It does not execute code itself —
the callers do — it *accounts*: callers report local work per process and
hand over traffic matrices for the communication phases, and the machine
folds everything into the paper's cost model ``W + H*g + S*l``.

A superstep is, per the BSP model, (1) local computation, (2) delivery of
the requested h-relation, (3) a synchronization barrier.  ``exchange``
performs (2)+(3) and opens the next superstep; ``barrier`` is an exchange
with an empty relation (``if ... at ...`` uses an explicit small one).

Since the executor layer (:mod:`repro.bsp.executor`) the machine also
*executes*: :meth:`BspMachine.run_superstep` runs one task per process on
a pluggable backend (sequential, threads, processes), folds the tasks'
abstract op counts into the ``w_i`` work accounting, and records their
measured wall-clock seconds alongside (carried on
:class:`~repro.bsp.cost.SuperstepCost` but excluded from equality, so
cost accounting stays backend-independent).

Since the fault layer (:mod:`repro.bsp.faults`) every phase is also
**transactional**: :meth:`run_superstep` and :meth:`exchange` either
commit — values, cost rows, mailboxes — or leave the machine exactly as
it was and raise (a :class:`~repro.bsp.faults.SuperstepFault` for
transient faults that retries could not absorb, the original error for a
genuine program failure).  A machine can arm a deterministic
:class:`~repro.bsp.faults.FaultPlan` (injected crashes, timeouts,
message drops/duplications/corruptions, broken pools) and a
:class:`~repro.bsp.faults.RetryPolicy` (bounded retry with backoff);
with both armed, any *survivable* fault schedule is observationally
invisible — identical values, bit-identical :class:`BspCost` — which is
exactly what the chaos conformance sweep checks.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from concurrent.futures import BrokenExecutor

from repro import obs
from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.executor import (
    SequentialExecutor,
    Task,
    TaskOutcome,
    _timed,
    get_executor,
)
from repro.bsp.faults import (
    INJECTED_TASKS,
    BrokenPool,
    FaultPlan,
    ProcOutcome,
    RetryPolicy,
    SuperstepFault,
    TaskTimeout,
    TransientFault,
    WorkerCrash,
)
from repro.bsp.network import HRelation, h_relation_of_matrix
from repro.bsp.params import BspParams


class _NoMessage:
    """Singleton marker for "no message was delivered".

    Distinct from every user value — in particular from a transmitted
    ``None`` — so :meth:`BspMachine.receive` never conflates "the mailbox
    is empty" with "the sender sent the value ``None``" (the BSML
    ``nc ()`` versus a sent value).  Falsy, like the absence it denotes.
    """

    _instance: Optional["_NoMessage"] = None

    def __new__(cls) -> "_NoMessage":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NO_MESSAGE"


#: The unique "mailbox empty" marker.
NO_MESSAGE = _NoMessage()


def _fault_kind(error: BaseException) -> str:
    """The outcome-table status for a transient fault."""
    if isinstance(error, WorkerCrash):
        return "crash"
    if isinstance(error, TaskTimeout):
        return "timeout"
    if isinstance(error, (BrokenPool, BrokenExecutor)):
        return "pool"
    return "error"


class BspMachine:
    """A ``p``-process BSP machine accumulating a :class:`BspCost`.

    ``faults`` optionally arms a deterministic
    :class:`~repro.bsp.faults.FaultPlan`; ``retry`` optionally sets the
    :class:`~repro.bsp.faults.RetryPolicy` applied to transient faults
    (injected ones *and* genuine broken pools).  Without a policy every
    transient fault is fatal — but still atomic.
    """

    def __init__(
        self,
        params: BspParams,
        executor=None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.params = params
        self.executor = executor if executor is not None else SequentialExecutor()
        self._faults = faults
        self._retry = retry
        self._work: List[float] = [0.0] * params.p
        self._elapsed: List[float] = [0.0] * params.p
        self._steps: List[SuperstepCost] = []
        self._mailboxes: List[Dict[int, object]] = [dict() for _ in range(params.p)]

    @property
    def p(self) -> int:
        return self.params.p

    def use_backend(self, name: str) -> None:
        """Switch to the (shared) executor named ``name``.

        Only the execution strategy changes; accumulated cost, mailboxes
        and the current superstep all carry over, because accounting is
        backend-independent by construction.  Raises :class:`ValueError`
        (naming the valid backends) for an unknown name.
        """
        self.executor = get_executor(name)

    # -- fault layer ---------------------------------------------------------

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self._faults

    @property
    def retry(self) -> Optional[RetryPolicy]:
        return self._retry

    def arm_faults(
        self,
        plan: Optional[FaultPlan],
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        """Arm a fault plan (and optionally a retry policy)."""
        self._faults = plan
        if retry is not None:
            self._retry = retry

    def disarm_faults(self) -> None:
        """Drop the fault plan and the retry policy."""
        self._faults = None
        self._retry = None

    def set_retry(self, policy: Optional[RetryPolicy]) -> None:
        self._retry = policy

    def state_fingerprint(self) -> Tuple:
        """A structural snapshot of all superstep-visible machine state:
        work, elapsed seconds, committed cost rows and mailboxes.  Two
        equal fingerprints mean the machine is observationally in the
        same place — the atomicity assertions of the chaos harness
        compare fingerprints taken before and after a failed phase."""
        return (
            tuple(self._work),
            tuple(self._elapsed),
            tuple(self._steps),
            tuple(
                tuple(sorted(mailbox.items())) for mailbox in self._mailboxes
            ),
        )

    # -- computation phase --------------------------------------------------

    def local(self, proc: int, ops: float = 1.0) -> None:
        """Account ``ops`` units of work on process ``proc``."""
        if not 0 <= proc < self.p:
            raise ValueError(f"process {proc} out of range (p = {self.p})")
        self._work[proc] += ops

    def replicated(self, ops: float = 1.0) -> None:
        """Account work executed identically by every process (the
        replicated global control of an SPMD BSML program)."""
        for proc in range(self.p):
            self._work[proc] += ops

    def run_superstep(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute the computation phase of a superstep on the backend.

        ``tasks[i]`` is a zero-argument callable — process ``i``'s local
        computation — returning ``(value, ops)``.  The abstract ``ops``
        are folded into process ``i``'s ``w_i`` (exactly what the callers
        used to account in-line, so costs are backend-independent), and
        the measured wall-clock seconds accumulate separately until the
        superstep closes.  Returns the values in process order.

        The superstep is *not* closed: like ``mkpar``/``apply`` these are
        asynchronous phases; the barrier still comes from
        :meth:`exchange` or :meth:`barrier`.

        The phase is **transactional**.  Work and elapsed time commit
        only when every process has a value; on any failure the machine
        is left exactly as it was.  Transient faults — injected crashes,
        timeouts and pool breaks from an armed
        :class:`~repro.bsp.faults.FaultPlan`, or a genuine
        ``BrokenExecutor`` — are retried under the machine's
        :class:`~repro.bsp.faults.RetryPolicy` (only the processes that
        failed re-run, so recovered user code executes exactly once);
        when retries are exhausted (or no policy is set) a
        :class:`~repro.bsp.faults.SuperstepFault` carrying the
        per-process outcome table is raised.  A genuine program error
        re-raises the lowest-index task error, which keeps the propagated
        exception deterministic across backends.
        """
        if len(tasks) != self.p:
            raise ValueError(f"expected {self.p} tasks, got {len(tasks)}")
        if obs.enabled():
            with obs.span(
                "superstep.compute",
                obs.MACHINE_TRACK,
                superstep=len(self._steps),
                procs=self.p,
                backend=self.executor.name,
            ) as extra:
                return self._compute(tasks, True, extra)
        return self._compute(tasks, False, None)

    def _compute(self, tasks: Sequence[Task], instrumented: bool, extra) -> List[Any]:
        """The (transactional) body of :meth:`run_superstep`;
        ``instrumented`` is the site's :func:`obs.enabled` guard and
        ``extra`` the enclosing span's arg dict (None when not recorded)."""
        tracing = extra is not None
        step_index = len(self._steps)
        plan, policy = self._faults, self._retry
        max_attempts = policy.max_attempts if policy is not None else 1
        final: List[Optional[TaskOutcome]] = [None] * self.p
        status: List[str] = ["pending"] * self.p
        detail: List[str] = [""] * self.p
        pending = list(range(self.p))
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1 and instrumented:
                obs.count("bsp.retry.attempts")
                obs.event(
                    "retry",
                    obs.MACHINE_TRACK,
                    phase="compute",
                    superstep=step_index,
                    attempt=attempt,
                )
            if plan is not None and plan.draw_pool_break():
                self.executor.recycle()
                error: BaseException = BrokenPool(
                    f"injected pool break (attempt {attempt})"
                )
                attempt_outcomes = {
                    proc: TaskOutcome(error=error) for proc in pending
                }
            else:
                injected = (
                    plan.draw_task_faults(pending) if plan is not None else {}
                )
                run_tasks: List[Task] = []
                for proc in pending:
                    kind = injected.get(proc)
                    if kind is None:
                        run_tasks.append(tasks[proc])
                    else:
                        run_tasks.append(
                            partial(INJECTED_TASKS[kind], proc, attempt)
                        )
                # With a plan armed, every backend must observe the same
                # set of per-attempt failures, or the deterministic fault
                # stream would diverge between backends — so the
                # sequential backend's fail-fast skipping is suspended
                # (it exists to mirror the historical in-line semantics
                # of *unrecovered* errors, which faults never are).
                if plan is not None and isinstance(
                    self.executor, SequentialExecutor
                ):
                    outcomes = [_timed(task) for task in run_tasks]
                else:
                    outcomes = self.executor.run(run_tasks)
                attempt_outcomes = dict(zip(pending, outcomes))
            first_user_error: Optional[BaseException] = None
            still_pending: List[int] = []
            for proc in pending:
                outcome = attempt_outcomes[proc]
                if outcome.skipped:
                    still_pending.append(proc)
                    status[proc], detail[proc] = "pending", "skipped by fail-fast"
                elif outcome.error is None:
                    final[proc] = outcome
                    status[proc], detail[proc] = "ok", ""
                elif isinstance(outcome.error, (TransientFault, BrokenExecutor)):
                    still_pending.append(proc)
                    status[proc] = _fault_kind(outcome.error)
                    detail[proc] = str(outcome.error)
                elif first_user_error is None:
                    first_user_error = outcome.error
            if first_user_error is not None:
                # A genuine program error: nothing was committed, so the
                # machine state is untouched — re-raise it as the callers
                # have always seen it.
                raise first_user_error
            pending = still_pending
            if not pending:
                break
            if attempt >= max_attempts:
                table = [
                    ProcOutcome(f"proc {proc}", status[proc], detail[proc])
                    for proc in range(self.p)
                ]
                if instrumented:
                    obs.count("bsp.fault.supersteps_failed")
                    if policy is not None:
                        obs.count("bsp.retry.exhausted")
                    obs.event(
                        "rollback",
                        obs.MACHINE_TRACK,
                        phase="compute",
                        superstep=step_index,
                        attempts=attempt,
                        outcomes=";".join(
                            f"{row.site}:{row.status}" for row in table
                        ),
                    )
                raise SuperstepFault("compute", "", attempt, table)
            if policy is not None:
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                    obs.count("bsp.retry.sleep", delay, timer=True)
        # Commit: every process has a successful outcome.
        values: List[Any] = []
        total_seconds = 0.0
        for proc, outcome in enumerate(final):
            value, ops = outcome.value
            self._work[proc] += ops
            self._elapsed[proc] += outcome.seconds
            total_seconds += outcome.seconds
            values.append(value)
            if tracing:
                obs.record(
                    "task",
                    obs.process_track(proc),
                    outcome.started,
                    outcome.seconds,
                    proc=proc,
                    ops=ops,
                    superstep=step_index,
                )
        if tracing:
            extra["attempts"] = attempt
        if instrumented:
            if attempt > 1:
                obs.count("bsp.retry.recovered")
                obs.event(
                    "retry.recovered",
                    obs.MACHINE_TRACK,
                    phase="compute",
                    superstep=step_index,
                    attempts=attempt,
                )
            backend = f"bsp.backend.{self.executor.name}"
            obs.count(f"{backend}.phases")
            obs.count(f"{backend}.tasks", self.p)
            obs.count(f"{backend}.compute", total_seconds, timer=True)
        return values

    # -- communication + synchronization phases ------------------------------

    def exchange(
        self,
        sent_words: Sequence[Sequence[int]],
        payloads: Optional[Dict[Tuple[int, int], object]] = None,
        label: str = "",
    ) -> HRelation:
        """Deliver an h-relation and pass the barrier, closing the superstep.

        ``sent_words[i][j]`` is the number of words process ``i`` sends to
        process ``j`` (diagonal ignored).  ``payloads`` optionally carries
        the actual values; they become readable via :meth:`receive` during
        the next superstep, which is how the BSML ``put`` is built.

        Every payload key must be accounted in the traffic matrix:
        endpoints are range-checked, diagonal self-sends are rejected
        (the h-relation ignores the diagonal, so delivering them would
        undercount communication), and a payload for a ``(src, dst)``
        pair whose matrix entry is zero raises :class:`ValueError` — cost
        accounting can never miss traffic that was actually delivered.

        The delivery is **transactional**.  With a fault plan armed, each
        in-flight message may be dropped, duplicated or corrupted; all
        three are *detected* faults (acknowledgements and checksums in a
        real runtime), so an injured delivery attempt never lands a wrong
        value — it is retried whole under the retry policy, and when
        retries are exhausted a
        :class:`~repro.bsp.faults.SuperstepFault` is raised with the
        machine untouched: no cost row, mailboxes still holding the
        previous superstep's deliveries.
        """
        relation = h_relation_of_matrix(sent_words)
        if payloads:
            for src, dst in payloads:
                if not (0 <= src < self.p and 0 <= dst < self.p):
                    raise ValueError(
                        f"payload endpoints ({src}, {dst}) out of range (p = {self.p})"
                    )
                if src == dst:
                    raise ValueError(
                        f"payload ({src}, {dst}) is a diagonal self-send: the "
                        "h-relation does not account it; keep local data local"
                    )
                if sent_words[src][dst] == 0:
                    raise ValueError(
                        f"payload for ({src}, {dst}) but the traffic matrix "
                        "records 0 words sent — unaccounted communication"
                    )
        if obs.enabled():
            with obs.span(
                "superstep.exchange",
                obs.MACHINE_TRACK,
                superstep=len(self._steps),
                label=label,
                h=relation.h,
                words=relation.total_words,
            ) as extra:
                if extra is not None:
                    # The full traffic matrix rides on the span
                    # (deterministic, so abstract signatures stay
                    # backend-identical): the trace analyzer aggregates it
                    # into the per-pair communication report without
                    # re-deriving routing from payload keys.
                    extra["matrix"] = tuple(
                        tuple(int(w) for w in row) for row in sent_words
                    )
                self._deliver(relation, payloads, label, True)
        else:
            self._deliver(relation, payloads, label, False)
        return relation

    def _deliver(
        self,
        relation: HRelation,
        payloads: Optional[Dict[Tuple[int, int], object]],
        label: str,
        instrumented: bool,
    ) -> None:
        """The (transactional) delivery + barrier of :meth:`exchange`."""
        step_index = len(self._steps)
        plan, policy = self._faults, self._retry
        if plan is not None and payloads and plan.message_faults_active:
            keys = sorted(payloads)
            max_attempts = policy.max_attempts if policy is not None else 1
            attempt = 0
            while True:
                attempt += 1
                if attempt > 1 and instrumented:
                    obs.count("bsp.retry.attempts")
                    obs.event(
                        "retry",
                        obs.MACHINE_TRACK,
                        phase="exchange",
                        superstep=step_index,
                        attempt=attempt,
                    )
                injured = plan.draw_message_faults(keys)
                if not injured:
                    if attempt > 1 and instrumented:
                        obs.count("bsp.retry.recovered")
                        obs.event(
                            "retry.recovered",
                            obs.MACHINE_TRACK,
                            phase="exchange",
                            superstep=step_index,
                            attempts=attempt,
                        )
                    break
                if attempt >= max_attempts:
                    table = [
                        ProcOutcome(
                            f"{src}->{dst}",
                            injured.get((src, dst), "ok"),
                        )
                        for src, dst in keys
                    ]
                    if instrumented:
                        obs.count("bsp.fault.supersteps_failed")
                        if policy is not None:
                            obs.count("bsp.retry.exhausted")
                        obs.event(
                            "rollback",
                            obs.MACHINE_TRACK,
                            phase="exchange",
                            superstep=step_index,
                            attempts=attempt,
                            outcomes=";".join(
                                f"{row.site}:{row.status}" for row in table
                            ),
                        )
                    raise SuperstepFault("exchange", label, attempt, table)
                if policy is not None:
                    delay = policy.delay(attempt)
                    if delay > 0:
                        time.sleep(delay)
                        obs.count("bsp.retry.sleep", delay, timer=True)
        self._close(relation, label, deliveries=payloads)

    def barrier(self, label: str = "barrier") -> None:
        """A pure synchronization: empty relation, still costs ``l``.

        Like every barrier passage it clears the mailboxes: a payload is
        readable only during the superstep immediately after its
        exchange, never across a later barrier.
        """
        relation = HRelation((0,) * self.p, (0,) * self.p)
        if obs.enabled():
            with obs.span(
                "superstep.barrier",
                obs.MACHINE_TRACK,
                superstep=len(self._steps),
                label=label,
            ):
                self._close(relation, label)
        else:
            self._close(relation, label)

    def receive(self, proc: int, source: int):
        """The payload ``source`` sent to ``proc`` in the last exchange,
        or :data:`NO_MESSAGE` when nothing was sent.

        A transmitted ``None`` is a real value and is returned as such;
        only the distinct :data:`NO_MESSAGE` sentinel means "no message"
        (use :meth:`has_message` for the boolean question).
        """
        return self._mailboxes[proc].get(source, NO_MESSAGE)

    def has_message(self, proc: int, source: int) -> bool:
        """True when ``source`` delivered a payload to ``proc`` in the
        last exchange — even if that payload was ``None``."""
        return source in self._mailboxes[proc]

    # -- results --------------------------------------------------------------

    def _close(
        self,
        relation: HRelation,
        label: str,
        deliveries: Optional[Dict[Tuple[int, int], object]] = None,
    ) -> None:
        """End the superstep: record its cost, clear delivery state, and
        deliver the new payloads (if any) for the next superstep.

        Clearing happens here — on *every* barrier passage — rather than
        in :meth:`exchange`: a ``barrier()`` between an exchange and a
        read must not leave stale payloads readable (regression: it did).
        """
        step = SuperstepCost(
            tuple(self._work),
            relation,
            synchronized=True,
            label=label,
            measured=tuple(self._elapsed) if any(self._elapsed) else None,
        )
        self._steps.append(step)
        if obs.enabled():
            obs.count("bsp.supersteps")
            obs.count("bsp.words_exchanged", relation.total_words)
            # The committed BspCost row rides on the trace so modelled
            # cost can be read next to the measured phase spans.
            obs.event(
                "superstep",
                obs.MACHINE_TRACK,
                superstep=len(self._steps) - 1,
                w_max=step.w_max,
                h=step.h,
                words=relation.total_words,
                label=label,
            )
        self._work = [0.0] * self.p
        self._elapsed = [0.0] * self.p
        self._mailboxes = [dict() for _ in range(self.p)]
        if deliveries:
            for (src, dst), value in deliveries.items():
                self._mailboxes[dst][src] = value

    def cost(self) -> BspCost:
        """The cost so far, including any unfinished local-only phase."""
        steps = list(self._steps)
        if any(work > 0 for work in self._work):
            steps.append(
                SuperstepCost(
                    tuple(self._work),
                    None,
                    synchronized=False,
                    label="trailing local",
                    measured=tuple(self._elapsed) if any(self._elapsed) else None,
                )
            )
        return BspCost(self.p, steps)

    def total_time(self) -> float:
        return self.cost().total(self.params)

    def reset(self) -> None:
        """Forget all accounting (mailboxes included)."""
        self._work = [0.0] * self.p
        self._elapsed = [0.0] * self.p
        self._steps = []
        self._mailboxes = [dict() for _ in range(self.p)]
