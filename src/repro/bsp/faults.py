"""Deterministic fault injection and retry policy for the BSP substrate.

The simulator's soundness story ("well-typed programs don't go wrong")
is only as good as the machine's *error paths*: a worker that dies, a
task that never returns, a message that gets dropped on the wire, a
process pool that breaks mid-superstep.  This module makes every one of
those failure modes **injectable, deterministic and recoverable**:

* :class:`FaultPlan` — a seed-driven plan that decides, reproducibly,
  which faults fire at which injection sites.  Sites are visited in the
  coordinator in program order, so the *same* plan (same seed, same
  rates) makes the *same* decisions on every execution backend — which
  is what lets the chaos conformance sweep demand bit-identical values
  and costs across seq/thread/process under a survivable plan;
* :class:`RetryPolicy` — bounded retry with exponential backoff and
  deterministic jitter for transient (injected or genuine) faults;
* :class:`SuperstepFault` — the typed failure raised when a superstep
  cannot be completed, carrying a per-process outcome table.  The
  machine guarantees the raise is **atomic**: values, cost rows and
  mailboxes are exactly what they were before the failing phase.

The fault kinds:

========  ======================================================
kind      injected as
========  ======================================================
crash     a per-process task raises :class:`WorkerCrash`
timeout   a per-process task exceeds its budget (:class:`TaskTimeout`)
drop      a message in :meth:`~repro.bsp.machine.BspMachine.exchange`
          is lost in transit
dup       a message is delivered twice (detected, redelivered)
corrupt   a message arrives damaged (detected by checksum)
pool      the executor's worker pool breaks (:class:`BrokenPool`)
========  ======================================================

Message faults are *detected* faults, as they would be in a real BSP
runtime with acknowledgements and checksums: a drop/dup/corrupt never
silently lands a wrong value, it fails the delivery attempt, which the
machine then retries (policy on) or aborts atomically (policy off or
exhausted).  This is what keeps survivable plans observationally
invisible — the whole point of the transactional superstep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.lang.errors import ReproError

#: The injectable fault kinds, in documentation order.
FAULT_KINDS = ("crash", "timeout", "drop", "dup", "corrupt", "pool")

#: Fault kinds injected into per-process tasks (computation phase).
TASK_FAULT_KINDS = ("crash", "timeout")

#: Fault kinds injected into message deliveries (communication phase).
MESSAGE_FAULT_KINDS = ("drop", "dup", "corrupt")


class BspFaultError(ReproError):
    """Base of every fault-layer failure (transient *and* final)."""


class TransientFault(BspFaultError):
    """A fault that a retry may recover from (injected or genuine)."""


class WorkerCrash(TransientFault):
    """An (injected) worker death during a per-process task."""


class TaskTimeout(TransientFault):
    """An (injected) per-task timeout: the task exceeded its budget."""


class MessageFault(TransientFault):
    """A detected message-level fault (drop, duplication, corruption)."""


class BrokenPool(TransientFault):
    """An (injected) broken worker pool; the pool is recycled on retry."""


class BackendUnavailableError(BspFaultError):
    """A known backend whose pool cannot be started in this environment."""


class FaultSpecError(BspFaultError):
    """A malformed ``--faults`` / ``:faults`` specification string."""


@dataclass(frozen=True)
class ProcOutcome:
    """One row of a :class:`SuperstepFault` table: what finally happened
    to one process (or one ``src->dst`` message) of the failing phase."""

    site: str
    status: str  # "ok", "crash", "timeout", "drop", "dup", "corrupt",
    #              "pool", "error", "pending"
    detail: str = ""

    def render(self) -> str:
        text = f"{self.site:>10}  {self.status}"
        return f"{text}: {self.detail}" if self.detail else text


class SuperstepFault(BspFaultError):
    """A superstep phase that could not be completed.

    Raised **atomically**: the machine's accumulated cost, per-process
    work and mailboxes are exactly what they were before the failing
    phase began (``state_restored`` records the machine's own check).
    ``table`` holds one :class:`ProcOutcome` per process (computation
    phase) or per in-flight message (communication phase).
    """

    def __init__(
        self,
        phase: str,
        label: str,
        attempts: int,
        table: Sequence[ProcOutcome],
        state_restored: bool = True,
    ) -> None:
        self.phase = phase
        self.label = label
        self.attempts = attempts
        self.table = tuple(table)
        self.state_restored = state_restored
        failing = [row for row in self.table if row.status not in ("ok", "pending")]
        summary = ", ".join(
            f"{row.site}: {row.status}" for row in failing[:4]
        ) or "no outcome recorded"
        if len(failing) > 4:
            summary += f", ... ({len(failing) - 4} more)"
        super().__init__(
            f"superstep {phase} phase"
            + (f" [{label}]" if label else "")
            + f" failed after {attempts} attempt{'s' if attempts != 1 else ''}"
            + f" ({summary}); machine state rolled back"
        )

    def render(self) -> str:
        """The full outcome table, one line per site."""
        lines = [str(self)]
        for row in self.table:
            lines.append(f"  {row.render()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attempt ``n`` (1-based) failing with a transient fault is retried
    after ``base_delay * multiplier**(n-1) * (1 + jitter)`` seconds,
    where ``jitter`` is drawn reproducibly from ``jitter_seed`` — two
    machines with the same policy back off identically, so chaos runs
    stay deterministic end to end.  ``base_delay=0`` (the default used
    by the test suites) retries immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    jitter_seed: int = 0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.multiplier < 1:
            raise ValueError("multiplier must be at least 1")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        if self.base_delay == 0:
            return 0.0
        jitter = random.Random(self.jitter_seed * 2654435761 + attempt).uniform(
            0.0, 0.5
        )
        return self.base_delay * (self.multiplier ** (attempt - 1)) * (1.0 + jitter)

    def describe(self) -> str:
        return (
            f"retry up to {self.max_attempts} attempts, "
            f"base delay {self.base_delay}s x{self.multiplier} "
            f"(jitter seed {self.jitter_seed})"
        )


@dataclass
class FaultPlan:
    """A reproducible schedule of fault injections.

    Rates are per-site probabilities in ``[0, 1]``: ``crash``/``timeout``
    are drawn once per pending process per computation attempt, ``pool``
    once per computation attempt, and ``drop``/``dup``/``corrupt`` once
    per in-flight message per delivery attempt.  All draws come from one
    ``random.Random(seed)`` stream consumed at machine level in program
    order, so a plan's decisions do not depend on the execution backend.

    A plan is **stateful** (the stream advances); build a fresh plan from
    the same seed to replay the identical fault schedule.
    """

    seed: int = 0
    crash: float = 0.0
    timeout: float = 0.0
    drop: float = 0.0
    dup: float = 0.0
    corrupt: float = 0.0
    pool: float = 0.0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {kind}={rate} outside [0, 1]")
        self._rng = random.Random(self.seed)

    def replay(self) -> "FaultPlan":
        """A fresh plan with the same seed and rates (stream rewound)."""
        return FaultPlan(
            seed=self.seed,
            crash=self.crash,
            timeout=self.timeout,
            drop=self.drop,
            dup=self.dup,
            corrupt=self.corrupt,
            pool=self.pool,
        )

    # -- activity tests (fast paths when a class of faults is unarmed) ------

    @property
    def active(self) -> bool:
        return any(getattr(self, kind) > 0.0 for kind in FAULT_KINDS)

    @property
    def task_faults_active(self) -> bool:
        return self.crash > 0.0 or self.timeout > 0.0

    @property
    def message_faults_active(self) -> bool:
        return self.drop > 0.0 or self.dup > 0.0 or self.corrupt > 0.0

    @property
    def pool_faults_active(self) -> bool:
        return self.pool > 0.0

    # -- draws (coordinator-side, deterministic order) ----------------------

    def draw_task_faults(self, procs: Sequence[int]) -> Dict[int, str]:
        """Which of ``procs`` get a crash/timeout injected this attempt.

        Each injection is also counted (``bsp.fault.<kind>``) and recorded
        as a ``fault`` trace event on the owning process's track (:mod:`repro.obs`) carrying the drawn
        outcome — the draws are machine-side and in program order, so the
        events are bit-identical across execution backends.
        """
        injected: Dict[int, str] = {}
        if not self.task_faults_active:
            return injected
        for proc in procs:
            if self.crash > 0.0 and self._rng.random() < self.crash:
                injected[proc] = "crash"
            elif self.timeout > 0.0 and self._rng.random() < self.timeout:
                injected[proc] = "timeout"
        if injected and obs.enabled():
            for proc, kind in injected.items():
                obs.count(f"bsp.fault.{kind}")
                obs.event(
                    "fault", obs.process_track(proc), kind=kind, proc=proc
                )
        return injected

    def draw_pool_break(self) -> bool:
        """Does the worker pool break on this computation attempt?"""
        broke = self.pool_faults_active and self._rng.random() < self.pool
        if broke and obs.enabled():
            obs.count("bsp.fault.pool")
            obs.event("fault", obs.MACHINE_TRACK, kind="pool")
        return broke

    def draw_message_faults(
        self, keys: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], str]:
        """Which in-flight ``(src, dst)`` messages get injured this
        delivery attempt, and how.  Each injury is recorded as a
        ``fault`` trace event on the *sender's* track (the process that
        owns the failed delivery)."""
        injected: Dict[Tuple[int, int], str] = {}
        if not self.message_faults_active:
            return injected
        for key in keys:
            for kind in MESSAGE_FAULT_KINDS:
                rate = getattr(self, kind)
                if rate > 0.0 and self._rng.random() < rate:
                    injected[key] = kind
                    break
        if injected and obs.enabled():
            for (src, dst), kind in injected.items():
                obs.count(f"bsp.fault.{kind}")
                obs.event(
                    "fault",
                    obs.process_track(src),
                    kind=kind,
                    src=src,
                    dst=dst,
                )
        return injected

    def describe(self) -> str:
        rates = ", ".join(
            f"{kind}={getattr(self, kind)}"
            for kind in FAULT_KINDS
            if getattr(self, kind) > 0.0
        )
        return f"seed={self.seed}" + (f", {rates}" if rates else ", no faults armed")


#: Keys accepted by :func:`parse_fault_spec` beyond the fault rates.
_SPEC_POLICY_KEYS = ("attempts", "delay", "jitter", "multiplier")


def parse_fault_spec(spec: str) -> Tuple[FaultPlan, Optional[RetryPolicy]]:
    """Parse a ``--faults`` / ``:faults`` specification string.

    The grammar is a comma-separated ``key=value`` list::

        seed=42,crash=0.1,timeout=0.05,drop=0.05,dup=0.01,corrupt=0.01,
        pool=0.02,attempts=4,delay=0.0,jitter=7,multiplier=2

    ``seed`` and the six fault rates build the :class:`FaultPlan`;
    ``attempts``/``delay``/``jitter``/``multiplier`` build the
    :class:`RetryPolicy` (omitted entirely -> no policy: every injected
    fault is fatal and supersteps abort atomically on the first one).
    Raises :class:`FaultSpecError` on anything malformed.
    """
    plan_kwargs: Dict[str, float] = {}
    policy_kwargs: Dict[str, float] = {}
    seen: List[str] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, separator, value = item.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not separator or not value:
            raise FaultSpecError(
                f"bad fault spec item {item!r}: expected key=value "
                f"(keys: seed, {', '.join(FAULT_KINDS)}, "
                f"{', '.join(_SPEC_POLICY_KEYS)})"
            )
        if key in seen:
            raise FaultSpecError(f"duplicate key {key!r} in fault spec")
        seen.append(key)
        try:
            if key == "seed":
                plan_kwargs["seed"] = int(value)
            elif key in FAULT_KINDS:
                plan_kwargs[key] = float(value)
            elif key == "attempts":
                policy_kwargs["max_attempts"] = int(value)
            elif key == "delay":
                policy_kwargs["base_delay"] = float(value)
            elif key == "jitter":
                policy_kwargs["jitter_seed"] = int(value)
            elif key == "multiplier":
                policy_kwargs["multiplier"] = float(value)
            else:
                raise FaultSpecError(
                    f"unknown fault spec key {key!r} "
                    f"(keys: seed, {', '.join(FAULT_KINDS)}, "
                    f"{', '.join(_SPEC_POLICY_KEYS)})"
                )
        except ValueError as error:
            raise FaultSpecError(
                f"bad value for {key!r} in fault spec: {error}"
            ) from None
    try:
        plan = FaultPlan(**plan_kwargs)
        policy = RetryPolicy(**policy_kwargs) if policy_kwargs else None
    except ValueError as error:
        raise FaultSpecError(str(error)) from None
    return plan, policy


# -- injected task bodies -----------------------------------------------------
#
# Module-level so the injection wrappers pickle whenever plain tasks do:
# the process backend ships injected tasks to its workers exactly like
# healthy ones, and the crash/timeout surfaces wherever the task would
# have run.


def _raise_worker_crash(proc: int, attempt: int):
    raise WorkerCrash(
        f"injected worker crash on process {proc} (attempt {attempt})"
    )


def _raise_task_timeout(proc: int, attempt: int):
    raise TaskTimeout(
        f"injected task timeout on process {proc} (attempt {attempt})"
    )


INJECTED_TASKS = {
    "crash": _raise_worker_crash,
    "timeout": _raise_task_timeout,
}
