"""The traced run: a workload's distinct requests replayed in-process,
stage by stage, through the public function of each layer.

For every request the pipeline a cold ``/v1/run`` or ``/v1/typecheck``
goes through is called here, in order, and each call is timed from
outside: ``parse_program`` -> ``program_digest`` -> ``prelude_env`` and
``infer`` -> ``with_prelude`` -> ``get_engine``/``compile_program`` ->
``eval`` on a ``BspMachine`` -> ``obs.summarize`` -> ``reify`` and
``pretty`` -> ``serialize``.  The superstep phases come from the
machine's own ``superstep.*`` spans, read through ``obs.trace()``, and
the BSP counts from its ``BspCost``.  The same request then goes through
``ServiceCore.handle_*`` on an empty response cache; the difference
between that and the sum of the stages is ``service.unattributed_ms``.

Per-layer metrics are medians over every (request, round) sample in
which the layer ran.  Importing this module imports ``repro``: put the
checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextvars
import json
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from oracle import check, expected
from workloads import ColdKeys, Request, base_requests, shuffled_rounds

from repro import obs
from repro.bsp import BspMachine, BspParams, get_executor
from repro.core import TypingError, infer, prelude_env
from repro.core.digest import program_digest
from repro.lang import parse_program, pretty, with_prelude
from repro.lang.limits import deep_recursion
from repro.semantics import compile_program, get_engine, reify
from repro.service.handlers import RequestError, ServiceConfig, ServiceCore, serialize

#: Subprocess repetitions behind ``startup.import_ms`` and
#: ``core.prelude_env_ms``.
STARTUP_REPEATS = 3
#: Time stages, in pipeline order.
STAGES = (
    "lang.parse_ms",
    "core.digest_ms",
    "core.infer_ms",
    "lang.prelude_link_ms",
    "semantics.compile_ms",
    "semantics.eval_ms",
    "bsp.compute_ms",
    "bsp.exchange_ms",
    "bsp.barrier_ms",
    "obs.summarize_ms",
    "semantics.reify_ms",
    "service.serialize_ms",
)
PHASES = {
    "superstep.compute": "bsp.compute_ms",
    "superstep.exchange": "bsp.exchange_ms",
    "superstep.barrier": "bsp.barrier_ms",
}
#: Every per-layer metric and its unit, in pipeline order.
LAYER_METRICS = {
    "startup.import_ms": "ms",
    "core.prelude_env_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.parse_kb_per_s": "kB/s",
    "lang.ast_nodes": "count",
    "core.digest_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.cache_evictions": "count",
    "service.transport_ms": "ms",
    "lang.prelude_link_ms": "ms",
    "lang.linked_nodes": "count",
    "core.infer_ms": "ms",
    "core.solver_cache_hit_ratio": "ratio",
    "semantics.compile_ms": "ms",
    "semantics.eval_ms": "ms",
    "bsp.compute_ms": "ms",
    "bsp.exchange_ms": "ms",
    "bsp.barrier_ms": "ms",
    "bsp.supersteps": "count",
    "bsp.h_words": "words",
    "bsp.work": "op",
    "bsp.modelled_total": "op",
    "obs.summarize_ms": "ms",
    "semantics.reify_ms": "ms",
    "service.serialize_ms": "ms",
    "service.response_bytes": "B",
    "service.handler_ms": "ms",
    "service.unattributed_ms": "ms",
    "trace_overhead_ratio": "ratio",
}
#: Per-layer metrics measured outside the staged replay: in fresh
#: interpreters (:func:`startup_metrics`) and on the server loop (run.py).
UNSAMPLED = (
    "startup.import_ms",
    "core.prelude_env_ms",
    "service.cache_hit_ratio",
    "service.cache_evictions",
    "service.transport_ms",
    "core.solver_cache_hit_ratio",
)


class Sample:
    """One request's stage times (ms) and counts."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def time(self, stage: str, call: Callable, *args, **kwargs):
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.values[stage] = (time.perf_counter() - started) * 1000

    def stage_sum(self) -> float:
        return sum(self.values.get(stage, 0.0) for stage in STAGES)


def _subprocess_seconds(root: Path, code: str) -> Tuple[float, str]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env={"PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - started, done.stdout


def startup_metrics(root: Path) -> Dict[str, float]:
    """Import cost of ``repro.cli`` over a bare interpreter, and the cost
    of building the prelude's typing environment in a fresh process."""
    bare, imported, prelude = [], [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(_subprocess_seconds(root, "pass")[0])
        imported.append(_subprocess_seconds(root, "import repro.cli")[0])
        prelude.append(float(_subprocess_seconds(root, (
            "import time, repro.cli\n"
            "from repro import prelude_env\n"
            "started = time.perf_counter()\n"
            "prelude_env()\n"
            "print(time.perf_counter() - started)\n"
        ))[1]))
    return {
        "startup.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1000,
        "core.prelude_env_ms": statistics.median(prelude) * 1000,
    }


class Replay:
    """Stage-by-stage replay of single requests against the service's
    default configuration."""

    def __init__(self, oracle: dict, tally) -> None:
        # The server runs with the metrics registry on, which makes every
        # span observable; do the same so the stages cost what they do there.
        obs.metrics.enable()
        self.config = ServiceConfig()
        self.core = ServiceCore(self.config)
        self.oracle = oracle
        self.tally = tally

    def staged(self, request: Request, payload: dict, sample: Sample) -> bool:
        """Run the stages of ``request``; False when it was rejected
        (its expected answer is then checked)."""
        config, source = self.config, payload["program"]
        expr = sample.time("lang.parse_ms", parse_program, source)
        sample.values["lang.ast_nodes"] = expr.size()
        sample.values["lang.parse_kb_per_s"] = (
            len(source.encode()) / 1024 / (sample.values["lang.parse_ms"] / 1000)
        )
        run = request.endpoint == "/v1/run"
        p = payload.get("p", config.p)
        if run:
            sample.time(
                "core.digest_ms", program_digest, expr, p=p, g=config.g, l=payload["l"],
                backend=config.backend, engine=config.engine, faults=None,
                typed=True, use_prelude=True,
            )
        else:
            sample.time(
                "core.digest_ms", program_digest, expr, p=p, use_prelude=True,
                extra={"endpoint": "typecheck", "infer_engine": config.infer_engine},
            )
        try:
            sample.time(
                "core.infer_ms",
                lambda: infer(expr, prelude_env(), engine=config.infer_engine),
            )
        except TypingError:
            return False
        if not run:
            return True

        runnable = sample.time("lang.prelude_link_ms", with_prelude, expr)
        sample.values["lang.linked_nodes"] = runnable.size()
        params = BspParams(p=p, g=config.g, l=payload["l"])
        with obs.trace() as collected:
            started = time.perf_counter()
            machine = BspMachine(params, executor=get_executor(config.backend))
            if config.engine == "compiled":
                program = compile_program(runnable, p)
                compiled = time.perf_counter()
                value = program.run(machine)
            else:
                evaluator = get_engine(config.engine)(p, machine)
                compiled = time.perf_counter()
                with deep_recursion():
                    value = evaluator.eval(runnable)
            finished = time.perf_counter()
        phases = defaultdict(float)
        for span in collected.spans():
            if span.name in PHASES:
                phases[PHASES[span.name]] += span.dur * 1000
        sample.values.update(phases)
        sample.values["semantics.compile_ms"] = (compiled - started) * 1000
        sample.values["semantics.eval_ms"] = (finished - compiled) * 1000 - sum(phases.values())
        sample.time("obs.summarize_ms", obs.summarize, collected)
        with deep_recursion():
            text = sample.time("semantics.reify_ms", lambda: pretty(reify(value)))

        cost = machine.cost()
        sample.values["bsp.supersteps"] = len(cost.supersteps)
        sample.values["bsp.h_words"] = cost.H
        sample.values["bsp.work"] = cost.W
        sample.values["bsp.modelled_total"] = cost.total(params)
        answer = expected(self.oracle, request.endpoint, request.expect)
        same = text == answer["value"] and (cost.W, cost.H, cost.S) == (
            answer["W"], answer["H"], answer["S"]
        )
        self.tally.record(None if same else "staged-value")
        return True

    def handle(self, request: Request, payload: dict) -> Tuple[float, int, bytes]:
        """``ServiceCore.handle_*`` on an empty cache, as the server calls
        it (in a fresh context); ``(ms, status, body)``."""
        core = self.core
        handler = core.handle_run if request.endpoint == "/v1/run" else core.handle_typecheck
        core.cache.clear()
        started = time.perf_counter()
        try:
            status, body, _ = contextvars.Context().run(handler, payload)
        except RequestError as error:
            status, body = error.status, serialize(error.payload())
        elapsed = (time.perf_counter() - started) * 1000
        self.tally.record(
            check(self.oracle, request.endpoint, request.expect, request.l, status, body)
        )
        return elapsed, status, body

    def sample(self, request: Request) -> Tuple[Sample, str]:
        """One request through the stages and through the handler."""
        payload = json.loads(request.body)
        sample = Sample()
        started = time.perf_counter()
        accepted = self.staged(request, payload, sample)
        staged_wall = time.perf_counter() - started
        handler_ms, status, body = self.handle(request, payload)
        if not accepted:
            self.tally.record(None if status == 422 else "staged-verdict")
        elif status == 200:
            # Serializing the handler's own payload times the same bytes.
            decoded = json.loads(body)
            started = time.perf_counter()
            sample.time("service.serialize_ms", serialize, decoded)
            staged_wall += time.perf_counter() - started
        sample.values["service.handler_ms"] = handler_ms
        sample.values["service.response_bytes"] = len(body)
        sample.values["service.unattributed_ms"] = handler_ms - sample.stage_sum()
        sample.values["trace_overhead_ratio"] = staged_wall * 1000 / handler_ms
        kind = "rejected" if not accepted else request.endpoint
        return sample, kind


def _share(samples: List[Sample], names) -> float:
    handler = sum(s.values["service.handler_ms"] for s in samples)
    return sum(s.values.get(name, 0.0) for s in samples for name in names) / handler


def report_shares(by_kind: Dict[str, List[Sample]]) -> List[str]:
    """Lines on how the handler time splits across the layers."""
    everything = [s for samples in by_kind.values() for s in samples]
    lines = []
    for kind, samples in sorted(by_kind.items()):
        totals = {stage: _share(samples, (stage,)) for stage in STAGES}
        top = max(totals, key=totals.get)
        lines.append(
            f"{kind}: {len(samples)} samples, largest stage {top} "
            f"({totals[top]:.0%} of handler time)"
        )
    evaluation = [n for n in STAGES if n.startswith(("semantics.", "bsp."))]
    lines.append(f"semantics+bsp share: {_share(everything, evaluation):.0%}")
    lines.append(f"infer+parse share: {_share(everything, ('core.infer_ms', 'lang.parse_ms')):.0%}")
    return lines


def measure(root: Path, workload: str, seed: int, seconds: float, oracle: dict, tally) -> Dict[str, float]:
    """The traced run: whole rounds over the workload's distinct
    requests, in a seeded order, until ``seconds`` pass."""
    metrics = startup_metrics(root)
    replay = Replay(oracle, tally)
    bases = base_requests(workload, oracle)
    rng = random.Random(f"traced/{workload}/{seed}")
    cold = ColdKeys(oracle, rng)
    by_kind: Dict[str, List[Sample]] = defaultdict(list)
    started = time.perf_counter()
    for order in shuffled_rounds(bases, rng):
        for base in order:
            sample, kind = replay.sample(cold(base))
            by_kind[kind].append(sample)
        if time.perf_counter() - started >= seconds:
            break

    for line in report_shares(by_kind):
        print(f"{workload} traced: {line}")
    samples = [s for group in by_kind.values() for s in group]
    for name in LAYER_METRICS.keys() - UNSAMPLED:
        values = [s.values[name] for s in samples if name in s.values]
        metrics[name] = statistics.median(values) if values else 0.0
    return metrics
