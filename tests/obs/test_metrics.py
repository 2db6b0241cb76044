"""Tests for the label-aware metrics registry and its Prometheus text
exposition (repro.obs.metrics)."""

from __future__ import annotations

import math
import threading

import pytest

from repro import obs
from repro.obs import metrics
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus,
)


class TestCounter:
    def test_unlabelled_increments(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "hits")
        hits.inc()
        hits.inc(2.5)
        assert hits.value() == 3.5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        requests = registry.counter("req_total", "reqs", ("route", "status"))
        requests.inc(route="/run", status="200")
        requests.inc(route="/run", status="200")
        requests.inc(route="/run", status="429")
        assert requests.value(route="/run", status="200") == 2
        assert requests.value(route="/run", status="429") == 1
        assert requests.value(route="/other", status="200") == 0

    def test_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_rejects_wrong_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c", ("route",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(verb="GET")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "c")
        assert registry.counter("c_total", "c") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c_total", "c")

    def test_rejects_invalid_names(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("2bad", "x")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", "x", ("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight", "g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4

    def test_set_to_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("peak", "g")
        gauge.set_to_max(3)
        gauge.set_to_max(1)
        assert gauge.value() == 3

    def test_function_gauge_reads_at_scrape(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sessions", "g")
        box = {"n": 2}
        gauge.set_function(lambda: box["n"])
        assert gauge.value() == 2
        box["n"] = 7
        data = gauge.collect()
        assert data.samples[0].value == 7


class TestHistogram:
    def test_streaming_buckets_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count() == 5
        assert hist.sum() == pytest.approx(5.605)
        data = hist.collect()
        buckets = {
            dict(s.labels)["le"]: s.value
            for s in data.samples
            if s.suffix == "_bucket"
        }
        # Cumulative: <=0.01 one, <=0.1 three, <=1.0 four, +Inf five.
        assert buckets == {"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}

    def test_quantile_is_bucket_resolution(self):
        registry = MetricsRegistry()
        hist = registry.histogram("q_seconds", "h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5):
            hist.observe(value)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(1.0) == 1.0
        hist.observe(100.0)
        assert hist.quantile(1.0) == math.inf

    def test_memory_is_constant_per_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("m_seconds", "h", buckets=(0.1, 1.0))
        for i in range(10_000):
            hist.observe((i % 7) / 3.0)
        counts, totals = hist._series[()]
        assert len(counts) == 3  # two bounds + overflow, however many samples
        assert totals[0] == 10_000

    def test_labelled_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("p_seconds", "h", ("phase",), buckets=(1.0,))
        hist.observe(0.5, phase="compute")
        hist.observe(2.0, phase="barrier")
        assert hist.count(phase="compute") == 1
        assert hist.count(phase="barrier") == 1
        assert hist.count(phase="exchange") == 0


class TestRender:
    def test_exposition_parses_and_round_trips(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "Requests.", ("route",))
        counter.inc(route="/v1/run")
        gauge = registry.gauge("inflight", "In flight.")
        gauge.set(3)
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.render()
        families = parse_prometheus(text)
        assert families["req_total"]["type"] == "counter"
        assert families["inflight"]["type"] == "gauge"
        assert families["lat_seconds"]["type"] == "histogram"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["req_total"]["samples"]
        }
        assert samples[("req_total", (("route", "/v1/run"),))] == 1

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "e", ("path",))
        counter.inc(path='a"b\\c\nd')
        families = parse_prometheus(registry.render())
        ((_, labels, _),) = families["esc_total"]["samples"]
        assert labels["path"] == 'a"b\\c\nd'

    def test_collector_contributions_render(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [
                metrics.MetricData(
                    "extra_total",
                    "counter",
                    "Extra.",
                    [metrics.MetricSample("", (("k", "v"),), 9)],
                )
            ]
        )
        families = parse_prometheus(registry.render())
        assert families["extra_total"]["samples"][0][2] == 9

    def test_broken_collector_does_not_break_scrape(self):
        registry = MetricsRegistry()
        registry.counter("ok_total", "ok").inc()

        def broken():
            raise RuntimeError("boom")

        registry.register_collector(broken)
        families = parse_prometheus(registry.render())
        assert "ok_total" in families

    def test_reset_zeroes_but_keeps_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("r_total", "r")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0
        counter.inc()
        assert counter.value() == 1


class TestParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus("orphan_total 3\n")

    def test_rejects_malformed_labels(self):
        text = "# TYPE x counter\nx{bad} 1\n"
        with pytest.raises(ValueError, match="malformed label"):
            parse_prometheus(text)

    def test_rejects_non_numeric_value(self):
        text = "# TYPE x counter\nx lots\n"
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus(text)

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prometheus("# TYPE x enum\n")

    def test_rejects_non_cumulative_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 6\n'
            "h_sum 1\n"
            "h_count 6\n"
        )
        with pytest.raises(ValueError, match="not.*cumulative"):
            parse_prometheus(text)

    def test_rejects_histogram_without_inf_bucket(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="0.1"} 5\n'
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_prometheus(text)

    def test_error_names_the_line(self):
        text = "# TYPE x counter\nx 1\n???\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_prometheus(text)


class TestTraceSinkIntegration:
    """enable() installs a tracer sink feeding the standard families."""

    def setup_method(self):
        metrics.global_registry().reset()

    def test_superstep_spans_feed_phase_histograms(self):
        metrics.enable()
        try:
            base = metrics.SUPERSTEP_SECONDS.count(phase="exchange")
            obs.record("superstep.exchange", obs.MACHINE_TRACK, 0.0, 0.25, superstep=0)
            obs.record("superstep.barrier", obs.MACHINE_TRACK, 0.3, 0.05, superstep=0)
            obs.event("superstep", obs.MACHINE_TRACK, superstep=0, words=12)
            assert metrics.SUPERSTEP_SECONDS.count(phase="exchange") == base + 1
            assert metrics.SUPERSTEP_SECONDS.sum(phase="exchange") == pytest.approx(0.25)
            assert metrics.SUPERSTEPS_TOTAL.value() >= 1
            assert metrics.WORDS_TOTAL.value() >= 12
        finally:
            metrics.disable()

    def test_machine_run_feeds_registry_without_local_collector(self):
        from repro.bsp.machine import BspMachine
        from repro.bsp.params import BspParams

        metrics.enable()
        try:
            machine = BspMachine(BspParams(p=2, g=1.0, l=10.0))
            machine.run_superstep([lambda: (1, 1), lambda: (2, 1)])
            machine.exchange([[0, 1], [0, 0]], {(0, 1): "x"})
            assert metrics.SUPERSTEPS_TOTAL.value() >= 1
            assert metrics.SUPERSTEP_SECONDS.count(phase="exchange") >= 1
        finally:
            metrics.disable()

    def test_disabled_means_no_sink_and_no_observation(self):
        assert not metrics.is_enabled()
        before = metrics.SUPERSTEP_SECONDS.count(phase="compute")
        obs.record("superstep.compute", obs.MACHINE_TRACK, 0.0, 0.1, superstep=0)
        assert metrics.SUPERSTEP_SECONDS.count(phase="compute") == before

    def test_enable_is_refcounted(self):
        metrics.enable()
        metrics.enable()
        metrics.disable()
        assert metrics.is_enabled()
        metrics.disable()
        assert not metrics.is_enabled()

    def test_context_collectors_stay_isolated_from_sink(self):
        """A trace window and the global sink both see a record, but the
        window only sees its own context's records."""
        metrics.enable()
        try:
            with obs.trace() as window:
                obs.record("solve", obs.INFERENCE_TRACK, 0.0, 0.001)
            done = threading.Event()

            def other_thread():
                obs.record("unify", obs.INFERENCE_TRACK, 0.0, 0.002)
                done.set()

            threading.Thread(target=other_thread).start()
            assert done.wait(5)
            names = [record.name for record in window.records]
            assert names == ["solve"]  # the other thread's record is absent
            assert metrics.INFERENCE_SECONDS.count(kind="solve") == 1
            assert metrics.INFERENCE_SECONDS.count(kind="unify") == 1
        finally:
            metrics.disable()

    def test_sink_exceptions_are_swallowed(self):
        def bad_sink(*fields):
            raise RuntimeError("boom")

        obs.add_sink(bad_sink)
        try:
            obs.record("solve", obs.INFERENCE_TRACK, 0.0, 0.001)
        finally:
            obs.remove_sink(bad_sink)


class TestSinkPath:
    """With only the metrics sink listening, spans and records feed the
    histograms from their raw fields: no :class:`TraceRecord` is built."""

    def setup_method(self):
        metrics.global_registry().reset()

    def _counting_records(self, monkeypatch):
        from repro.obs import tracer

        built = []

        class CountingRecord(tracer.TraceRecord):
            def __init__(self, *args, **kwargs):
                built.append(args[0] if args else kwargs.get("name"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tracer, "TraceRecord", CountingRecord)
        return built

    def test_metrics_only_uf_infer_builds_no_trace_record(self, monkeypatch):
        from repro.core.infer import infer
        from repro.lang.parser import parse_program

        expr = parse_program("let f = fun x -> (x, 1) in fst (f true)")
        built = self._counting_records(monkeypatch)
        metrics.enable()
        try:
            infer(expr, engine="uf")
            assert built == []
            judgments = metrics.INFERENCE_SECONDS.count(kind="judgment")
            assert judgments == expr.size()
            assert metrics.INFERENCE_SECONDS.count(kind="solve") == judgments
            assert metrics.INFERENCE_SECONDS.count(kind="unify") > 0
            assert metrics.INFERENCE_SECONDS.count(kind="infer") == 1
            # The same run under a trace window builds one record per span.
            with obs.trace() as window:
                infer(expr, engine="uf")
            assert len(built) == len(window.records) > judgments
        finally:
            metrics.disable()

    def test_span_args_reach_sink_and_trace_alike(self):
        seen = []

        def sink(name, track, ts, dur, args):
            seen.append((name, track, dur is not None, dict(args)))

        obs.add_sink(sink)
        try:
            with obs.trace() as window:
                with obs.span("work", obs.MACHINE_TRACK, step=1) as extra:
                    extra["late"] = "yes"
                obs.event("tick", obs.MACHINE_TRACK, words=3)
        finally:
            obs.remove_sink(sink)
        assert seen == [
            ("work", obs.MACHINE_TRACK, True, {"step": 1, "late": "yes"}),
            ("tick", obs.MACHINE_TRACK, False, {"words": 3}),
        ]
        span, tick = window.records
        assert span.args == (("late", "yes"), ("step", 1))
        assert tick.args == (("words", 3),)

    def test_histogram_bucket_is_first_bound_at_or_above_value(self):
        registry = MetricsRegistry()
        hist = registry.histogram("b_seconds", "h", buckets=(0.01, 0.1, 1.0))
        values = (-math.inf, 0.0, 0.01, 0.010001, 0.1, 0.5, 1.0, 1.5, math.inf, math.nan)
        for value in values:
            hist.observe(value)
        counts, totals = hist._series[()]
        # <=0.01: -inf, 0, 0.01; <=0.1: 0.010001, 0.1; <=1: 0.5, 1.0;
        # +Inf: 1.5, inf and NaN (NaN is below no bound).
        assert counts == [3, 2, 2, 3]
        assert totals[0] == len(values)


class TestPerfBridge:
    def test_solver_caches_appear_at_scrape(self):
        from repro import typecheck_scheme

        typecheck_scheme("fun x -> x")  # touch the solver caches
        metrics.enable()
        try:
            families = parse_prometheus(metrics.render_global())
            assert "repro_solver_cache_requests_total" in families
            assert "repro_intern_pool_size" in families
            results = {
                labels["result"]
                for _, labels, _ in families["repro_solver_cache_requests_total"][
                    "samples"
                ]
            }
            assert results <= {"hit", "miss"}
        finally:
            metrics.disable()
