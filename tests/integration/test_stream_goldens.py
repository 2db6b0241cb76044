"""Golden contracts of the instrumentation stream.

Everything a user reads off the instrumentation — the ``--stats`` and
``--stats-verbose`` reports, the REPL's ``:stats``, the deterministic
trace signature of every corpus program, the ``/v1/metrics`` family and
label set, and the exact service response bodies — is pinned here
against files under ``tests/golden/``.  Measured wall clock (timer
milliseconds, trace-summary latencies) is masked; every other byte must
match.

The CLI and REPL reports run in a fresh interpreter, so solver-cache
hit counts do not depend on what earlier tests warmed up.  The service
bodies run in-process on purpose: a response must not depend on the
requests the process served before it.

Regenerate the files (only when a contract changes on purpose) with::

    PYTHONPATH=src python tests/integration/test_stream_goldens.py
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro import obs
from repro.bsp import BspParams
from repro.core import infer, prelude_env
from repro.lang import parse_program
from repro.obs import metrics
from repro.obs.metrics import parse_prometheus
from repro.semantics import run_costed
from repro.service import ServiceConfig, ServiceCore, start_in_background
from repro.service.handlers import RequestError, serialize
from repro.testing.differential import conformance_corpus

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"

#: CLI invocations whose stdout + stats report are pinned.
STATS_RUNS = {
    "run-tree": ["run", "--stats", "programs/odd_even_sort.bsml", "-p", "4"],
    "run-compiled": [
        "run", "--stats", "programs/odd_even_sort.bsml", "-p", "4",
        "--engine", "compiled",
    ],
    "run-vectorized": [
        "run", "--stats", "programs/odd_even_sort.bsml", "-p", "4",
        "--engine", "vectorized",
    ],
    "run-verbose-w": [
        "run", "--stats-verbose", "programs/parallel_prefix.bsml", "-p", "4",
        "--infer-engine", "w",
    ],
    "run-faults": [
        "run", "--stats", "programs/broadcast.bsml", "-p", "4",
        "--engine", "compiled",
        "--faults", "seed=7,crash=0.2,drop=0.2,pool=0.1,attempts=12",
    ],
    "run-process": [
        "run", "--stats", "programs/inner_product.bsml", "-p", "4",
        "--backend", "process", "--engine", "compiled",
    ],
    "typecheck-verbose": ["typecheck", "--stats-verbose", "-e", "fun x -> x + 1"],
}

REPL_SCRIPT = (
    "let v = mkpar (fun i -> i * 2)\n"
    ":stats\n"
    "bcast 1 v\n"
    ":type fun x -> mkpar (fun i -> x)\n"
    ":stats verbose\n"
    ":quit\n"
)

_TIMER = re.compile(r"-?\d+\.\d+ ms\b")
_MEASURED = re.compile(r"\b\d+\.\d{2,3}\b")


def _cli(argv: List[str], stdin: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    text = f"exit {done.returncode}\n-- stdout\n{done.stdout}-- stderr\n{done.stderr}"
    return _TIMER.sub("<ms> ms", text)


def stats_report(name: str) -> str:
    return _cli(STATS_RUNS[name])


def repl_report() -> str:
    return _cli(["repl", "-p", "4"], stdin=REPL_SCRIPT)


def corpus_signatures() -> Dict[str, Dict[str, object]]:
    """Per corpus program: record count and digest of the abstract
    signature of a traced p=4 run and of a traced typecheck."""
    env = prelude_env()
    signatures: Dict[str, Dict[str, object]] = {}
    for name, source in conformance_corpus():
        expr = parse_program(source)
        entry: Dict[str, object] = {}
        for kind, action in (
            ("run", lambda: run_costed(expr, BspParams(p=4), use_prelude=True)),
            ("infer-uf", lambda: infer(expr, env, engine="uf")),
            ("infer-w", lambda: infer(expr, env, engine="w")),
        ):
            with obs.trace() as collected:
                try:
                    action()
                except Exception as error:  # recorded, part of the contract
                    entry[f"{kind}-error"] = type(error).__name__
            signature = collected.abstract_signature()
            entry[f"{kind}-records"] = len(signature)
            entry[f"{kind}-sha256"] = hashlib.sha256(
                repr(signature).encode("utf-8")
            ).hexdigest()
        signatures[name] = entry
    return signatures


def _post(port: int, path: str, payload: dict) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


METRICS_REQUESTS = [
    ("/v1/typecheck", {"program": "fun x -> x + 1"}),
    ("/v1/run", {"program": "bcast 2 (mkpar (fun i -> i * i))", "p": 4}),
    ("/v1/run", {"program": "bcast 2 (mkpar (fun i -> i * i))", "p": 4}),
    ("/v1/run", {"program": "mkpar (fun i -> mkpar (fun j -> j))"}),
    ("/v1/run", {"program": "fun ->"}),
    (
        "/v1/run",
        {
            "program": "bcast 1 (mkpar (fun i -> i))",
            "engine": "compiled",
            "faults": "seed=3,crash=0.3,drop=0.3,attempts=12",
        },
    ),
]


def metrics_families() -> Dict[str, Dict[str, object]]:
    """The ``/v1/metrics`` families after :data:`METRICS_REQUESTS`: type,
    help and the distinct label sets of their samples (bucket bounds
    aside)."""
    metrics.global_registry().reset()
    handle = start_in_background(ServiceCore(ServiceConfig()), max_concurrency=1)
    try:
        statuses = [_post(handle.port, path, body) for path, body in METRICS_REQUESTS]
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60.0)
        try:
            conn.request("GET", "/v1/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
    finally:
        handle.stop()
        metrics.global_registry().reset()
    families: Dict[str, Dict[str, object]] = {"statuses": {"codes": statuses}}
    for name, family in sorted(parse_prometheus(text).items()):
        labels = sorted(
            {
                json.dumps(
                    {k: v for k, v in labels.items() if k != "le"}, sort_keys=True
                )
                for _, labels, _ in family["samples"]
            }
        )
        families[name] = {
            "type": family["type"],
            "help": family["help"],
            "labels": labels,
        }
    return families


def service_bodies() -> Dict[str, object]:
    """Exact response bodies of a fresh :class:`ServiceCore` (the
    ``trace_summary`` milliseconds masked)."""
    core = ServiceCore(ServiceConfig())
    _, typecheck_body, _ = core.handle_typecheck(
        {"program": "fun f -> fun v -> apply (mkpar (fun i -> f), v)"}
    )
    _, run_body, _ = core.handle_run(
        {
            "program": (ROOT / "programs" / "odd_even_sort.bsml").read_text(),
            "p": 4,
            "engine": "compiled",
        }
    )
    try:
        core.handle_run({"program": "fst (1, mkpar (fun i -> i))"})
    except RequestError as error:
        error_status, error_body = error.status, serialize(error.payload())
    else:  # pragma: no cover - the golden below says 422
        error_status, error_body = 200, b""
    run = json.loads(run_body)
    run["trace_summary"] = _MEASURED.sub("#", run["trace_summary"])
    return {
        "typecheck": typecheck_body.decode("utf-8"),
        "run": run,
        "error_status": error_status,
        "error": error_body.decode("utf-8"),
    }


def _golden_json(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(STATS_RUNS))
def test_stats_report_matches_golden(name):
    expected = (GOLDEN / f"stats-{name}.txt").read_text(encoding="utf-8")
    assert stats_report(name) == expected


def test_repl_stats_matches_golden():
    expected = (GOLDEN / "repl-stats.txt").read_text(encoding="utf-8")
    assert repl_report() == expected


def test_corpus_trace_signatures_match_golden():
    expected = _golden_json("corpus-signatures.json")
    actual = corpus_signatures()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_metrics_families_match_golden():
    assert metrics_families() == _golden_json("metrics-families.json")


def test_service_bodies_match_golden():
    assert service_bodies() == _golden_json("service-bodies.json")


def _write_goldens() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in STATS_RUNS:
        (GOLDEN / f"stats-{name}.txt").write_text(stats_report(name), encoding="utf-8")
    (GOLDEN / "repl-stats.txt").write_text(repl_report(), encoding="utf-8")
    for filename, data in (
        ("corpus-signatures.json", corpus_signatures()),
        ("metrics-families.json", metrics_families()),
        ("service-bodies.json", service_bodies()),
    ):
        (GOLDEN / filename).write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    _write_goldens()
