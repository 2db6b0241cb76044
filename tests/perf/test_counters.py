"""Tests for stats windows (counters, timers, cache reports) on the
instrumentation stream, and for the memo-cache registry they read."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import obs, perf


class TestCounters:
    def test_increment_outside_collection_is_noop(self):
        obs.count("orphan")  # must not raise, must not record anywhere
        with obs.stats() as stats:
            pass
        assert stats.counter("orphan") == 0

    def test_increment_inside_collection(self):
        with obs.stats() as stats:
            obs.count("events")
            obs.count("events", 2)
        assert stats.counter("events") == 3

    def test_missing_counter_reads_zero(self):
        with obs.stats() as stats:
            pass
        assert stats.counter("never-touched") == 0

    def test_nested_collectors_each_see_their_window(self):
        with obs.stats() as outer:
            obs.count("n")
            with obs.stats() as inner:
                obs.count("n")
        assert outer.counter("n") == 2
        assert inner.counter("n") == 1

    def test_is_collecting(self):
        assert not obs.enabled()
        with obs.stats() as stats:
            assert obs.enabled() and obs.is_active(stats)
        assert not obs.enabled()


class TestTimers:
    def test_timed_accumulates(self):
        with obs.stats() as stats:
            with obs.span("work", obs.INFERENCE_TRACK, timer=True):
                pass
            with obs.span("work", obs.INFERENCE_TRACK, timer=True):
                pass
        assert stats.timers["work"] >= 0.0

    def test_timed_is_noop_when_inactive(self):
        with obs.span("ghost", obs.INFERENCE_TRACK, timer=True) as extra:
            assert extra is None  # no window: nothing recorded, nothing raised

    def test_render_mentions_sections(self):
        with obs.stats() as stats:
            obs.count("a.count", 5)
            obs.count("a.time", 0.25, timer=True)
        text = stats.render()
        assert "a.count" in text and "a.time" in text

    def test_render_empty_window(self):
        stats = obs.PerfStats()  # baseline == now: zero deltas everywhere
        assert "nothing recorded" in stats.render()


class TestCacheReports:
    def test_register_requires_lru_cache(self):
        with pytest.raises(TypeError):
            perf.register_cache("plain", lambda x: x)

    def test_solver_caches_are_registered(self):
        import repro.core.constraints  # noqa: F401  (registers on import)

        names = set(perf.registered_caches())
        assert {
            "constraints.solve",
            "constraints.is_satisfiable",
            "constraints.is_valid",
            "constraints.locality",
            "constraints.basic_constraint",
        } <= names

    def test_deltas_are_windowed(self):
        @lru_cache(maxsize=None)
        def double(x):
            return 2 * x

        perf.register_cache("test.double", double)
        try:
            double(1)  # a miss before the window opens
            with obs.stats() as stats:
                double(1)  # hit
                double(2)  # miss
                double(2)  # hit
            report = {r.name: r for r in stats.cache_reports()}["test.double"]
            assert report.hits == 2
            assert report.misses == 1
            assert report.calls == 3
            assert report.hit_rate == pytest.approx(2 / 3)
        finally:
            del perf.memo._REGISTERED_CACHES["test.double"]

    def test_hit_rate_of_unknown_cache_raises(self):
        with obs.stats() as stats:
            pass
        with pytest.raises(KeyError):
            stats.hit_rate("no-such-cache")


class TestRenderVerbose:
    def test_default_render_hides_zero_call_caches(self):
        import repro.core.constraints  # noqa: F401  (registers on import)

        stats = obs.PerfStats()  # baseline == now: zero deltas everywhere
        assert "constraints.solve" not in stats.render()

    def test_verbose_render_includes_zero_call_caches(self):
        import repro.core.constraints  # noqa: F401

        stats = obs.PerfStats()
        text = stats.render(verbose=True)
        assert "constraints.solve" in text
        assert "0/0" in text

    def test_cache_order_is_deterministic_by_name(self):
        @lru_cache(maxsize=None)
        def zzz(x):
            return x

        @lru_cache(maxsize=None)
        def aaa(x):
            return x

        # registration order is deliberately reversed alphabetically
        perf.register_cache("test.zzz", zzz)
        perf.register_cache("test.aaa", aaa)
        try:
            with obs.stats() as stats:
                zzz(1)
                aaa(1)
            names = [r.name for r in stats.cache_reports()]
            assert names == sorted(names)
            text = stats.render(verbose=True)
            assert text.index("test.aaa") < text.index("test.zzz")
        finally:
            del perf.memo._REGISTERED_CACHES["test.zzz"]
            del perf.memo._REGISTERED_CACHES["test.aaa"]


class TestPerfAndTracingTogether:
    """Nested stats windows interacting with trace windows on the one
    stack: every open window of each kind sees the instrumentation fired
    inside it, and only the instrumentation meant for its kind."""

    def test_nested_perf_scopes_with_active_tracer(self):
        from repro import run_program

        with obs.trace() as trace:
            with obs.stats() as outer:
                run_program("mkpar (fun i -> i)", p=2)
                first_runs = outer.counter("infer.runs")
                spans_after_first = len(trace.records)
                with obs.stats() as inner:
                    run_program("mkpar (fun i -> i + 1)", p=2)
        # both perf windows saw their own counter totals: the outer one
        # accumulated the first run plus everything the inner one saw
        assert first_runs > 0
        assert inner.counter("infer.runs") > 0
        assert outer.counter("infer.runs") == first_runs + inner.counter(
            "infer.runs"
        )
        # the tracer kept collecting across both perf scopes
        assert len(trace.records) > spans_after_first > 0

    def test_nested_tracers_with_active_perf_scope(self):
        from repro import run_program

        with obs.stats() as stats:
            with obs.trace() as outer:
                run_program("mkpar (fun i -> i)", p=2)
                with obs.trace() as inner:
                    run_program("mkpar (fun i -> i * 2)", p=2)
        assert stats.counter("infer.runs") > 0
        assert len(inner.records) > 0
        # the outer tracer saw everything the inner one saw, plus its own
        assert len(outer.records) > len(inner.records)
        assert outer.records[-len(inner.records):] == inner.records

    def test_perf_without_tracing_records_no_spans(self, monkeypatch):
        from repro import run_program
        from repro.obs import tracer

        with obs.stats() as stats:
            monkeypatch.setattr(tracer, "TraceRecord", None)  # building one raises
            run_program("bcast 1 (mkpar (fun i -> i))", p=2)
        assert stats.counter("infer.runs") > 0
        assert stats.counter("bsp.supersteps") == 1
        assert stats.timers["infer"] > 0.0

    def test_tracing_without_perf_counts_nothing(self):
        from repro import run_program

        with obs.trace() as trace:
            run_program("mkpar (fun i -> i)", p=2)
        assert not obs.enabled()
        assert trace.spans("judgment")
        assert not {"infer.runs", "infer.nodes"} & {r.name for r in trace.records}


class TestStartStop:
    def test_open_ended_window(self):
        stats = obs.start(obs.PerfStats())
        try:
            obs.count("repl.events")
        finally:
            obs.stop(stats)
        assert stats.counter("repl.events") == 1
        assert not obs.enabled()

    def test_stop_is_idempotent(self):
        stats = obs.start(obs.PerfStats())
        obs.stop(stats)
        obs.stop(stats)
        assert not obs.enabled()
