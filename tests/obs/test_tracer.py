"""Tests for the instrumentation stream: records, spans, counts, tracks,
signatures, and the one window stack they share."""

from __future__ import annotations

import time

import pytest

from repro import obs


class TestDisabledPath:
    def test_not_tracing_by_default(self):
        assert not obs.enabled()

    def test_record_is_noop_when_inactive(self):
        obs.record("x", obs.MACHINE_TRACK, 0.0, 1.0)
        obs.event("y", obs.MACHINE_TRACK)
        assert not obs.enabled()

    def test_span_yields_none_when_inactive(self):
        with obs.span("x", obs.MACHINE_TRACK) as extra:
            assert extra is None

    def test_span_yields_dict_when_active(self):
        with obs.trace() as t:
            with obs.span("x", obs.MACHINE_TRACK) as extra:
                assert extra == {}
                extra["late"] = 7
        assert t.records[0].arg("late") == 7


class TestCollection:
    def test_event_and_span_recorded(self):
        with obs.trace() as t:
            obs.event("boom", obs.MACHINE_TRACK, kind="crash")
            with obs.span("phase", obs.MACHINE_TRACK, superstep=0):
                pass
        assert len(t.records) == 2
        boom, phase = t.records
        assert not boom.is_span and boom.dur is None
        assert phase.is_span and phase.dur >= 0.0
        assert boom.arg("kind") == "crash"
        assert phase.arg("superstep") == 0

    def test_span_recorded_even_on_raise(self):
        with obs.trace() as t:
            with pytest.raises(RuntimeError):
                with obs.span("failing", obs.MACHINE_TRACK):
                    raise RuntimeError("boom")
        assert [r.name for r in t.records] == ["failing"]

    def test_args_are_name_sorted(self):
        with obs.trace() as t:
            obs.event("e", obs.MACHINE_TRACK, z=1, a=2, m=3)
        assert [k for k, _ in t.records[0].args] == ["a", "m", "z"]

    def test_nested_collectors_both_see_records(self):
        with obs.trace() as outer:
            obs.event("one", obs.MACHINE_TRACK)
            with obs.trace() as inner:
                obs.event("two", obs.MACHINE_TRACK)
        assert [r.name for r in outer.records] == ["one", "two"]
        assert [r.name for r in inner.records] == ["two"]

    def test_stack_unwinds(self):
        with obs.trace():
            assert obs.enabled()
        assert not obs.enabled()

    def test_open_ended_window(self):
        collector = obs.start()
        obs.event("during", obs.MACHINE_TRACK)
        obs.stop(collector)
        obs.event("after", obs.MACHINE_TRACK)
        assert [r.name for r in collector.records] == ["during"]
        assert not obs.enabled()

    def test_stop_is_idempotent(self):
        collector = obs.start()
        obs.stop(collector)
        obs.stop(collector)
        assert not obs.enabled()

    def test_resume_appends_after_pause(self):
        collector = obs.start()
        obs.event("first", obs.MACHINE_TRACK)
        obs.stop(collector)
        obs.event("lost", obs.MACHINE_TRACK)
        obs.resume(collector)
        obs.event("second", obs.MACHINE_TRACK)
        obs.stop(collector)
        assert [r.name for r in collector.records] == ["first", "second"]

    def test_resume_is_idempotent(self):
        collector = obs.start()
        obs.resume(collector)
        obs.event("once", obs.MACHINE_TRACK)
        obs.stop(collector)
        assert [r.name for r in collector.records] == ["once"]

    def test_timestamps_are_perf_counter_values(self):
        before = time.perf_counter()
        with obs.trace() as t:
            obs.event("now", obs.MACHINE_TRACK)
        after = time.perf_counter()
        assert before <= t.records[0].ts <= after
        assert t.epoch <= t.records[0].ts


class TestQueries:
    def test_spans_and_events_filter(self):
        with obs.trace() as t:
            obs.event("fault", obs.process_track(1), kind="crash")
            with obs.span("task", obs.process_track(1)):
                pass
            with obs.span("task", obs.process_track(2)):
                pass
        assert len(t.spans()) == 2
        assert len(t.spans("task")) == 2
        assert t.spans("fault") == []
        assert len(t.events("fault")) == 1
        assert len(t) == 3

    def test_track_order_machine_procs_inference(self):
        with obs.trace() as t:
            obs.event("a", obs.INFERENCE_TRACK)
            obs.event("b", obs.process_track(10))
            obs.event("c", obs.process_track(2))
            obs.event("d", obs.MACHINE_TRACK)
            obs.event("e", "zcustom")
        assert t.tracks() == ["machine", "proc 2", "proc 10", "inference", "zcustom"]

    def test_track_order_is_linear_in_tracks(self):
        """``tracks()`` hashes each track name O(1) times: at p=16k the
        old per-track ``set(ordered)`` rebuild cost p² hashes."""
        hashes = [0]

        class CountingTrack(str):
            def __hash__(self):
                hashes[0] += 1
                return str.__hash__(self)

        p = 16384
        names = [obs.process_track(proc) for proc in range(p)] + ["b", "a"]
        trace = obs.Trace(
            records=[obs.TraceRecord("e", CountingTrack(name), 0.0) for name in names]
        )
        ordered = trace.tracks()
        assert ordered[:3] == ["proc 0", "proc 1", "proc 2"]
        assert ordered[-3:] == ["proc 16383", "a", "b"]
        assert hashes[0] <= 4 * len(names)


class TestAbstractSignature:
    def test_measured_args_are_filtered(self):
        with obs.trace() as t:
            obs.record(
                "task",
                obs.process_track(0),
                1.0,
                0.5,
                proc=0,
                ops=12,
                seconds=0.5,
                backend="thread",
            )
        (entry,) = t.abstract_signature()
        assert entry == ("task", "proc 0", (("ops", 12), ("proc", 0)))

    def test_backend_lifecycle_records_are_dropped(self):
        with obs.trace() as t:
            obs.event("backend.fallback", obs.MACHINE_TRACK, slot=1)
            obs.event("fault", obs.process_track(0), kind="crash", proc=0)
        signature = t.abstract_signature()
        assert len(signature) == 1
        assert signature[0][0] == "fault"

    def test_signature_ignores_timing_but_keeps_order(self):
        def run(delay):
            t = obs.start()
            obs.event("one", obs.MACHINE_TRACK, superstep=0)
            if delay:
                time.sleep(0.002)
            obs.event("two", obs.MACHINE_TRACK, superstep=1)
            obs.stop(t)
            return t

        assert run(False).abstract_signature() == run(True).abstract_signature()

    def test_records_are_hashable(self):
        with obs.trace() as t:
            obs.event("e", obs.MACHINE_TRACK, kind="crash")
        assert isinstance(hash(t.records[0]), int)
        assert t.records[0].args_dict() == {"kind": "crash"}


class TestCounts:
    def test_count_outside_any_window_is_noop(self):
        obs.count("orphan")
        with obs.stats() as stats:
            pass
        assert stats.counter("orphan") == 0

    def test_count_and_timer_land_in_stats_windows_only(self):
        with obs.trace() as t, obs.stats() as stats:
            obs.count("events", 2)
            obs.count("wait", 0.5, timer=True)
        assert stats.counters == {"events": 2}
        assert stats.timers == {"wait": 0.5}
        assert t.records == []

    def test_count_never_builds_a_record_or_reaches_a_sink(self, monkeypatch):
        from repro.obs import tracer

        seen = []

        def sink(*fields):
            seen.append(fields)

        obs.add_sink(sink)
        try:
            with obs.stats() as stats:
                monkeypatch.setattr(tracer, "TraceRecord", None)  # would raise
                obs.count("quiet")
                obs.count("quiet", 0.1, timer=True)
        finally:
            obs.remove_sink(sink)
        assert seen == []
        assert stats.counter("quiet") == 1

    def test_timer_span_times_and_records_in_one_call(self):
        with obs.trace() as t, obs.stats() as stats:
            with obs.span("work", obs.INFERENCE_TRACK, timer=True):
                pass
        (record,) = t.records
        assert stats.timers["work"] == record.dur

    def test_windows_share_one_stack(self):
        trace = obs.start()
        stats = obs.start(obs.PerfStats())
        assert obs.is_active(trace) and obs.is_active(stats)
        obs.stop(trace)
        assert obs.enabled() and not obs.is_active(trace)
        obs.stop(stats)
        assert not obs.enabled()
