"""The /v1/metrics exposition and metrics behaviour under concurrent load.

Pins down the two-sided contract of the aggregation layer: the
process-global registry sums over *every* request (no lost increments),
while the contextvars-based perf/trace collectors stay request-isolated
(no cross-request leakage into windows opened elsewhere).
"""

from __future__ import annotations

import http.client
import threading

import pytest

from repro import obs
from repro.obs import metrics
from repro.obs.metrics import parse_prometheus
from repro.service import ServiceConfig, ServiceCore, start_in_background


@pytest.fixture()
def server():
    metrics.global_registry().reset()
    handle = start_in_background(
        ServiceCore(ServiceConfig(cache_capacity=256)),
        max_concurrency=4,
        max_queue=32,
    )
    try:
        yield handle
    finally:
        handle.stop()
        metrics.global_registry().reset()


def fetch_metrics(port: int):
    """GET /v1/metrics raw — the body is Prometheus text, not JSON."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, body, headers
    finally:
        conn.close()


def post_json(port: int, path: str, payload: dict):
    import json

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestMetricsEndpoint:
    def test_serves_valid_prometheus_text(self, server):
        status, body, headers = fetch_metrics(server.port)
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in headers["content-type"]
        families = parse_prometheus(body)  # raises on any format violation
        for name in (
            "repro_request_seconds",
            "repro_requests_total",
            "repro_requests_rejected_total",
            "repro_response_cache_requests_total",
            "repro_inflight_requests",
            "repro_waiting_requests",
            "repro_sessions",
            "repro_superstep_phase_seconds",
            "repro_solver_cache_requests_total",
        ):
            assert name in families, f"family {name} missing from exposition"

    def test_request_latency_carries_route_engine_backend_cache(self, server):
        program = "bcast 0 (mkpar (fun i -> i + 1))"
        status, _ = post_json(server.port, "/v1/run", {"program": program, "engine": "compiled", "backend": "seq"})
        assert status == 200
        status, _ = post_json(server.port, "/v1/run", {"program": program, "engine": "compiled", "backend": "seq"})
        assert status == 200  # replay: cache hit
        _, body, _ = fetch_metrics(server.port)
        families = parse_prometheus(body)
        counts = {
            tuple(sorted(labels.items())): value
            for name, labels, value in families["repro_request_seconds"]["samples"]
            if name.endswith("_count")
        }
        miss_key = tuple(
            sorted(
                {
                    "route": "/v1/run",
                    "engine": "compiled",
                    "backend": "seq",
                    "cache": "miss",
                }.items()
            )
        )
        hit_key = tuple(
            sorted(
                {
                    "route": "/v1/run",
                    "engine": "compiled",
                    "backend": "seq",
                    "cache": "hit",
                }.items()
            )
        )
        assert counts.get(miss_key, 0) >= 1
        assert counts.get(hit_key, 0) >= 1

    def test_cache_hit_ratio_counters(self, server):
        program = "1 + 2"
        post_json(server.port, "/v1/typecheck", {"program": program})
        post_json(server.port, "/v1/typecheck", {"program": program})
        assert metrics.CACHE_REQUESTS_TOTAL.value(result="miss") >= 1
        assert metrics.CACHE_REQUESTS_TOTAL.value(result="hit") >= 1

    def test_superstep_histograms_fed_by_service_runs(self, server):
        before = metrics.SUPERSTEP_SECONDS.count(phase="exchange")
        status, _ = post_json(
            server.port,
            "/v1/run",
            {"program": "put (mkpar (fun i -> fun dst -> i))", "p": 2},
        )
        assert status == 200
        assert metrics.SUPERSTEP_SECONDS.count(phase="exchange") > before

    def test_sessions_gauge_tracks_create_and_delete(self, server):
        status, created = post_json(server.port, "/v1/session", {})
        assert status == 201
        assert metrics.SESSIONS.value() >= 1
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        try:
            conn.request("DELETE", f"/v1/session/{created['session']}")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        assert metrics.SESSIONS.value() == 0

    def test_unknown_engine_label_bucketed_as_other(self, server):
        # An invalid engine is rejected 400, but its latency sample must
        # not mint a new label value from attacker-controlled input.
        status, _ = post_json(
            server.port, "/v1/run", {"program": "1", "engine": "zzz-evil"}
        )
        assert status == 400
        _, body, _ = fetch_metrics(server.port)
        families = parse_prometheus(body)
        engines = {
            labels["engine"]
            for name, labels, _ in families["repro_request_seconds"]["samples"]
            if name.endswith("_count")
        }
        assert "zzz-evil" not in engines
        assert "other" in engines

    def test_metrics_can_be_disabled_by_config(self):
        metrics.global_registry().reset()
        handle = start_in_background(
            ServiceCore(ServiceConfig(metrics=False)),
            max_concurrency=2,
            max_queue=8,
        )
        try:
            assert not metrics.is_enabled()
            post_json(handle.port, "/v1/typecheck", {"program": "1"})
            # The endpoint still answers (with whatever was collected —
            # here nothing), but no request was recorded.
            status, body, _ = fetch_metrics(handle.port)
            assert status == 200
            parse_prometheus(body)
            assert metrics.REQUESTS_TOTAL.value(route="/v1/typecheck", status="200") == 0
        finally:
            handle.stop()


class TestConcurrentAggregationAndIsolation:
    """Satellite: global aggregation is exact under concurrent load while
    context-local perf/trace windows see none of it."""

    def test_no_lost_increments_and_no_leakage(self, server):
        requests_per_worker = 6
        workers = 8
        errors = []
        barrier = threading.Barrier(workers)

        def drive(worker: int):
            try:
                barrier.wait(timeout=30)
                for i in range(requests_per_worker):
                    # Distinct programs per (worker, i): all cache misses,
                    # every one runs a real superstep.
                    program = f"bcast 0 (mkpar (fun i -> i + {worker * 100 + i}))"
                    status, _ = post_json(
                        server.port, "/v1/run", {"program": program, "p": 2}
                    )
                    if status != 200:
                        errors.append((worker, i, status))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append((worker, repr(error)))

        before = metrics.REQUESTS_TOTAL.value(route="/v1/run", status="200")
        supersteps_before = metrics.SUPERSTEPS_TOTAL.value()

        # The observer's own context-local windows, opened while the load
        # runs on server worker threads.
        with obs.stats() as window_stats, obs.trace() as window_trace:
            threads = [
                threading.Thread(target=drive, args=(w,)) for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

        assert not errors, errors
        total = workers * requests_per_worker
        # Exact aggregation: every request counted, none double-counted.
        after = metrics.REQUESTS_TOTAL.value(route="/v1/run", status="200")
        assert after - before == total
        # Every run executed at least one superstep through the sink.
        assert metrics.SUPERSTEPS_TOTAL.value() - supersteps_before >= total
        # Isolation: the server's cache/solver activity is invisible to a
        # perf window opened in this (different) context...
        assert window_stats.counter("service.cache.hit") == 0
        assert window_stats.counter("service.cache.miss") == 0
        # ...and no server-side span leaked into this trace window.
        assert window_trace.records == []

    def test_histogram_count_matches_request_count(self, server):
        program_base = "fst (1, mkpar (fun i -> i))"
        n = 10
        threads = []

        def drive(k: int):
            post_json(
                server.port,
                "/v1/typecheck",
                {"program": f"fst ({k}, mkpar (fun i -> i))"},
            )

        before = sum(
            metrics.REQUEST_SECONDS.count(
                route="/v1/typecheck", engine=e, backend=b, cache=c
            )
            for e in ("-",)
            for b in ("-",)
            for c in ("hit", "miss", "-")
        )
        for k in range(n):
            thread = threading.Thread(target=drive, args=(k,))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=60)
        after = sum(
            metrics.REQUEST_SECONDS.count(
                route="/v1/typecheck", engine=e, backend=b, cache=c
            )
            for e in ("-",)
            for b in ("-",)
            for c in ("hit", "miss", "-")
        )
        assert after - before == n


class TestSinkPathObservations:
    """The metrics sink sees the same observations whether or not a
    trace window is open (a window changes what is recorded, never what
    the registry counts)."""

    SEQUENCE = (
        ("typecheck", {"program": "let f = fun x -> (x, 1) in fst (f true)"}),
        ("typecheck", {"program": "fst (1, mkpar (fun i -> i))"}),  # 422 type
        ("run", {"program": "bcast 2 (mkpar (fun i -> i * i))", "p": 4}),
        ("run", {"program": "fun x -> x", "p": 2}),
        ("typecheck", {"program": " + ".join(["1"] * 200)}),
    )

    def _scrape_after_sequence(self):
        from repro.service.handlers import RequestError

        metrics.global_registry().reset()
        core = ServiceCore()
        for route, payload in self.SEQUENCE:
            handle = core.handle_typecheck if route == "typecheck" else core.handle_run
            try:
                handle(dict(payload))
            except RequestError:
                pass
        families = parse_prometheus(metrics.render_global())
        observed = {}
        for sample_name, labels, value in families["repro_inference_seconds"]["samples"]:
            if sample_name.endswith("_count"):
                observed[("inference", labels["kind"])] = value
        for family in ("repro_supersteps_total", "repro_words_exchanged_total"):
            for _, _, value in families[family]["samples"]:
                observed[family] = value
        return observed

    def test_same_counts_with_and_without_a_trace_window(self):
        from repro.core.prelude_env import prelude_env

        prelude_env()  # built (and inferred) once per process
        metrics.enable()
        try:
            without = self._scrape_after_sequence()
            with obs.trace() as window:
                within = self._scrape_after_sequence()
        finally:
            metrics.disable()
            metrics.global_registry().reset()
        assert without == within
        kinds = {key[1] for key in without if isinstance(key, tuple)}
        assert kinds == {"infer", "judgment", "solve", "unify"}
        assert without["repro_supersteps_total"] > 0
        assert without["repro_words_exchanged_total"] > 0
        # Under the window every judgment span was also recorded.
        assert len(window.spans("judgment")) == without[("inference", "judgment")]
