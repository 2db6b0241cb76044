"""The instrumentation stream: spans, events and counts on one stack.

Every instrumentation point — the BSP machine and its backends, the type
inferencer, ``Solve``, unification, the memo caches — reports here in
one of three shapes.  **Spans** (a start timestamp and a duration) and
**instant events** are :class:`TraceRecord` entries on named **tracks**:
``proc 0`` ... ``proc p-1`` carry each process's tasks and injected
faults; ``machine`` carries the superstep phases (compute / exchange /
barrier), commits with their :class:`~repro.bsp.cost.BspCost` row,
retries and rollbacks; ``inference`` carries per-judgment spans and the
``Solve``/unification work under them.  **Counts** add a number (or,
for timers, seconds) under a name and are never records.

Collection is opt-in and stack-shaped: :func:`trace` and :func:`stats`
push a :class:`Trace` or a :class:`PerfStats` window onto **one
context-local** stack (a :class:`contextvars.ContextVar`).  Records go
to every open :class:`Trace`, counts to every open :class:`PerfStats`,
so nested windows each see their own totals, and a window opened on one
thread (or asyncio task) of the service sees only that request's work.
Process-global **sinks** (:func:`add_sink`) see every record of the
process; the metrics registry (:mod:`repro.obs.metrics`) is the one such
consumer.  A sink makes every span site build its record, so counts
stay off that path: a count never builds a record or reaches a sink.

Every site guards itself with :func:`enabled` — one truthiness test when
nothing listens — and a site that counts and records makes that one
check for both; ``count``, ``event`` and ``span`` then route only to
the consumers that want their shape.

Timestamps are ``time.perf_counter()`` values — monotonic and
system-wide, so worker-measured task timings and coordinator-measured
phase spans share one timeline; exporters (:mod:`repro.obs.export`)
normalize them against the window's ``epoch``.

**Abstract versus measured.**  Every record separates what is
*deterministic* about an execution (span names, tracks, superstep
indices, abstract op counts, h-relations, fault outcomes) from what is
*measured* (timestamps, durations, wall-clock seconds, backend names).
:meth:`Trace.abstract_signature` projects a trace onto its deterministic
part: records whose name starts with ``backend.`` (pickling fallbacks,
pool recycling — legitimate per-backend behaviour) are dropped, and arg
keys in :data:`NONABSTRACT_ARGS` are filtered out.  The differential
conformance harness (:mod:`repro.testing.differential`) demands that
this signature be bit-identical across execution backends — the tracing
analogue of comparing :class:`~repro.bsp.cost.BspCost` tables exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple, Union

from repro import perf

#: The track carrying superstep phases, commits, retries and rollbacks.
MACHINE_TRACK = "machine"

#: The track carrying typing judgments, Solve checks and unification.
INFERENCE_TRACK = "inference"

#: Arg keys that carry measured (timing- or backend-dependent) data and
#: are therefore excluded from :meth:`Trace.abstract_signature`.
NONABSTRACT_ARGS = frozenset({"seconds", "ms", "backend", "cause"})

#: Record-name prefixes whose records are backend-specific lifecycle
#: (inline fallbacks, pool recycling) and excluded from the signature.
NONABSTRACT_PREFIXES = ("backend.",)


def process_track(proc: int) -> str:
    """The track name of BSP process ``proc``."""
    return f"proc {proc}"


@dataclass(frozen=True)
class TraceRecord:
    """One span (``dur`` is a duration in seconds) or instant event
    (``dur`` is None).  ``ts`` is an absolute ``perf_counter`` value;
    ``args`` is a name-sorted tuple of key/value pairs so records are
    hashable and structurally comparable."""

    name: str
    track: str
    ts: float
    dur: Optional[float] = None
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def is_span(self) -> bool:
        return self.dur is not None

    def arg(self, key: str, default: Any = None) -> Any:
        for name, value in self.args:
            if name == key:
                return value
        return default

    def args_dict(self) -> Dict[str, Any]:
        return dict(self.args)

    def abstract(self) -> Optional[Tuple[str, str, Tuple[Tuple[str, Any], ...]]]:
        """The deterministic projection of this record, or None when the
        record itself is backend-specific (``backend.*`` lifecycle)."""
        if self.name.startswith(NONABSTRACT_PREFIXES):
            return None
        kept = tuple(
            (key, value) for key, value in self.args if key not in NONABSTRACT_ARGS
        )
        return (self.name, self.track, kept)


@dataclass
class Trace:
    """One collection window of trace records.

    ``epoch`` anchors the window: exporters subtract it so timelines
    start at zero.  Records are appended in *program order* by the
    coordinating thread (the machine's superstep loop, the inferencer's
    traversal), which is what makes :meth:`abstract_signature`
    order-deterministic across execution backends.
    """

    epoch: float = field(default_factory=time.perf_counter)
    records: List[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def spans(self, name: Optional[str] = None) -> List[TraceRecord]:
        """All spans, optionally filtered by exact name."""
        return [
            record
            for record in self.records
            if record.is_span and (name is None or record.name == name)
        ]

    def events(self, name: Optional[str] = None) -> List[TraceRecord]:
        """All instant events, optionally filtered by exact name."""
        return [
            record
            for record in self.records
            if not record.is_span and (name is None or record.name == name)
        ]

    def tracks(self) -> List[str]:
        """Track names in canonical display order: machine first, then
        the process tracks in numeric order, then inference, then any
        other track alphabetically."""
        seen = {record.track for record in self.records}
        ordered: List[str] = []
        if MACHINE_TRACK in seen:
            ordered.append(MACHINE_TRACK)
        procs = sorted(
            (int(track.split()[1]), track)
            for track in seen
            if track.startswith("proc ") and track.split()[1].isdigit()
        )
        ordered.extend(track for _, track in procs)
        if INFERENCE_TRACK in seen:
            ordered.append(INFERENCE_TRACK)
        ordered.extend(sorted(seen.difference(ordered)))
        return ordered

    def abstract_signature(self) -> Tuple[Tuple[str, str, Tuple], ...]:
        """The deterministic projection of the whole trace: per record in
        append order, ``(name, track, abstract args)`` — timestamps,
        durations, measured seconds and backend identity excluded.  Two
        runs of the same program on different backends must produce equal
        signatures (the trace-conformance check)."""
        projected = (record.abstract() for record in self.records)
        return tuple(entry for entry in projected if entry is not None)


@dataclass
class CacheReport:
    """Hit/miss/eviction delta of one registered cache over a window.

    ``evictions`` is nonzero only for caches that expose an eviction
    count (:class:`repro.perf.memo.BoundedMemo`); plain ``lru_cache``
    functions report 0 — their evictions are invisible to the stdlib
    bookkeeping.
    """

    name: str
    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from cache (0.0 when never called)."""
        return self.hits / self.calls if self.calls else 0.0


@dataclass
class PerfStats:
    """One collection window of counters, timers and cache deltas."""

    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    _cache_baseline: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The baseline is taken as the window is created, so the cache
        # reports cover exactly the window's lifetime.
        for name, fn in perf.registered_caches().items():
            info = fn.cache_info()
            self._cache_baseline[name] = (
                info.hits,
                info.misses,
                getattr(fn, "evictions", 0),
            )

    def cache_reports(self) -> List[CacheReport]:
        """Per-cache hit/miss/eviction deltas since the window was created."""
        reports = []
        for name, fn in sorted(perf.registered_caches().items()):
            info = fn.cache_info()
            base_hits, base_misses, base_evict = self._cache_baseline.get(
                name, (0, 0, 0)
            )
            reports.append(
                CacheReport(
                    name,
                    info.hits - base_hits,
                    info.misses - base_misses,
                    info.currsize,
                    info.maxsize or 0,
                    getattr(fn, "evictions", 0) - base_evict,
                )
            )
        return reports

    def hit_rate(self, name: str) -> float:
        """Hit rate of one registered cache over this window."""
        for report in self.cache_reports():
            if report.name == name:
                return report.hit_rate
        raise KeyError(f"no registered cache named {name!r}")

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def render(self, verbose: bool = False) -> str:
        """A human-readable report (counters, cache hit rates, timers).

        Caches are listed in deterministic name order.  By default caches
        with no calls in this window are suppressed; ``verbose=True``
        includes them (useful to confirm a cache was registered but never
        exercised by a workload).
        """
        lines = ["perf stats:"]
        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                value = self.counters[name]
                shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.2f}"
                lines.append(f"    {name:<28} {shown:>12}")
        reports = self.cache_reports()
        if not verbose:
            reports = [r for r in reports if r.calls]
        if reports:
            lines.append("  caches (hits/misses, hit rate):")
            for report in reports:
                evicted = f", {report.evictions} evicted" if report.evictions else ""
                lines.append(
                    f"    {report.name:<28} {report.hits:>8}/{report.misses:<8}"
                    f" {report.hit_rate:>6.1%}  (size {report.size}/{report.maxsize}"
                    f"{evicted})"
                )
        if self.timers:
            lines.append("  timers:")
            for name in sorted(self.timers):
                lines.append(f"    {name:<28} {self.timers[name] * 1e3:>10.2f} ms")
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)


Window = Union[Trace, PerfStats]


class _Windows(tuple):
    """The open windows of one context in push order, with the
    :class:`Trace` and :class:`PerfStats` ones pre-split so neither
    records nor counts scan windows that ignore them."""

    def __new__(cls, windows: Tuple[Window, ...] = ()) -> "_Windows":
        self = super().__new__(cls, windows)
        self.traces = tuple(w for w in windows if isinstance(w, Trace))
        self.stats = tuple(w for w in windows if isinstance(w, PerfStats))
        return self


#: The one context-local stack of open windows (usually empty or a
#: single entry).  Immutable, so pushes/pops are plain set() calls and
#: concurrent contexts never observe a half-mutated stack.
_ACTIVE: ContextVar[_Windows] = ContextVar("repro_obs_active", default=_Windows())


def _push(window: Window) -> None:
    _ACTIVE.set(_Windows(_ACTIVE.get() + (window,)))


def _pop(window: Window) -> None:
    active = _ACTIVE.get()
    if window in active:
        _ACTIVE.set(_Windows(tuple(entry for entry in active if entry is not window)))


#: Module-global record sinks.  Unlike the context-local windows a sink
#: sees every record of the whole process — it is how the metrics
#: aggregation layer (:mod:`repro.obs.metrics`) observes superstep and
#: inference spans across all concurrent requests of the service while
#: each request's trace window stays isolated.  An immutable tuple for
#: the same torn-read-free reason as ``_ACTIVE``.
_SINKS: Tuple[Callable[[TraceRecord], None], ...] = ()


def add_sink(sink: Callable[[TraceRecord], None]) -> None:
    """Register a process-global record sink (idempotent)."""
    global _SINKS
    if sink not in _SINKS:
        _SINKS = _SINKS + (sink,)


def remove_sink(sink: Callable[[TraceRecord], None]) -> None:
    """Unregister a sink previously added with :func:`add_sink`."""
    global _SINKS
    if sink in _SINKS:
        _SINKS = tuple(entry for entry in _SINKS if entry is not sink)


def enabled() -> bool:
    """The guard of every instrumentation site: True when anything
    listens — a window in this context, or a process-global sink."""
    return bool(_ACTIVE.get()) or bool(_SINKS)


def is_active(window: Window) -> bool:
    """True when ``window`` is currently collecting in this context."""
    return window in _ACTIVE.get()


def count(name: str, by: float = 1, *, timer: bool = False) -> None:
    """Add ``by`` to counter ``name`` — or, with ``timer``, ``by``
    seconds to timer ``name`` — on every open :class:`PerfStats`."""
    for stats in _ACTIVE.get().stats:
        table = stats.timers if timer else stats.counters
        table[name] = table.get(name, 0) + by


def record(
    name: str,
    track: str,
    ts: float,
    dur: Optional[float] = None,
    **args: Any,
) -> None:
    """Append a finished record to every open :class:`Trace` and sink."""
    traces = _ACTIVE.get().traces
    sinks = _SINKS
    if not traces and not sinks:
        return
    entry = TraceRecord(name, track, ts, dur, tuple(sorted(args.items())))
    for trace_ in traces:
        trace_.records.append(entry)
    for sink in sinks:
        try:
            sink(entry)
        except Exception:
            # A broken metrics sink must never take the machine down.
            pass


def event(name: str, track: str, **args: Any) -> None:
    """Record an instant event at the current time (no-op when no
    trace window or sink is open)."""
    if _ACTIVE.get().traces or _SINKS:
        record(name, track, time.perf_counter(), None, **args)


#: What :func:`span` hands out when nothing would consume the span: a
#: reusable no-op, so the unmeasured path builds no generator.
_UNMEASURED: ContextManager[None] = nullcontext()


def span(
    name: str, track: str, *, timer: bool = False, **args: Any
) -> ContextManager[Optional[Dict[str, Any]]]:
    """Record the enclosed block as a span; with ``timer`` its duration
    also adds to timer ``name`` of every open :class:`PerfStats`.

    Yields a mutable dict when the span is measured (None otherwise) so
    the block can attach args that are only known at the end::

        with obs.span("superstep.compute", obs.MACHINE_TRACK) as extra:
            values = ...
            if extra is not None:
                extra["attempts"] = attempt

    The span is recorded even when the block raises — a failed phase is
    exactly what a chaos trace needs to show.
    """
    windows = _ACTIVE.get()
    if windows.traces or _SINKS or (timer and windows.stats):
        return _measured(name, track, timer, args)
    return _UNMEASURED


@contextmanager
def _measured(
    name: str, track: str, timer: bool, args: Dict[str, Any]
) -> Iterator[Dict[str, Any]]:
    extra: Dict[str, Any] = {}
    start = time.perf_counter()
    try:
        yield extra
    finally:
        seconds = time.perf_counter() - start
        if timer:
            count(name, seconds, timer=True)
        record(name, track, start, seconds, **{**args, **extra})


@contextmanager
def _collecting(window: Window) -> Iterator[Window]:
    _push(window)
    try:
        yield window
    finally:
        _pop(window)


def trace() -> ContextManager[Trace]:
    """Collect trace records for the enclosed block."""
    return _collecting(Trace())


def stats() -> ContextManager[PerfStats]:
    """Collect counters, timers and cache deltas for the enclosed block."""
    return _collecting(PerfStats())


def start(window: Optional[Window] = None) -> Window:
    """Begin an open-ended collection window (REPL sessions): ``window``
    (a fresh :class:`Trace` by default) collects until :func:`stop`.

    The window may be read live at any point.  It is bound to the
    calling context: code running on other threads or tasks does not
    report into it.
    """
    window = Trace() if window is None else window
    _push(window)
    return window


def stop(window: Window) -> Window:
    """End a window opened with :func:`start` (idempotent)."""
    _pop(window)
    return window


def resume(window: Window) -> Window:
    """Re-activate a window previously paused with :func:`stop`.

    New records append after the ones already collected (the REPL's
    ``:trace on`` after ``:trace off``); idempotent when already active.
    """
    if window not in _ACTIVE.get():
        _push(window)
    return window
