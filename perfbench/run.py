"""End-to-end benchmark of the mini-BSML typecheck-and-run service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mix-p4 --seed 1 --seconds 15 --trace 0

It starts the real server (``python3 -m repro.cli serve --port 0`` with
the service defaults, ``src/`` on the path) and drives it from this one
process in a closed loop on one keep-alive connection: the next request
goes out when the previous reply is in.  Every reply is checked against
``oracle.json``.  With ``--trace 0`` the last line of standard output is
the end-to-end metrics; with ``--trace 1`` it is the per-layer metrics,
from the same server loop plus the in-process staged replay of
``traced.py``.  See ``README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import queue
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from oracle import check, load_oracle
from workloads import (
    FILL,
    MIX_P,
    WARMUP,
    WORKLOADS,
    ColdKeys,
    Request,
    base_requests,
    run_request,
    schedule,
    typecheck_request,
)

ROOT = Path.cwd()
#: Servers started per run; ``setup_s`` is the median of their set-ups
#: and the last one serves the measured loop.
SETUP_SPAWNS = 5
STARTUP_TIMEOUT_S = 60.0
#: A reply that takes longer counts as a transport failure.
REPLY_TIMEOUT_S = 60.0
#: Upper bound on the time spent filling the response cache.
FILL_BUDGET_S = 10.0
#: Cache keys of the requests sent before the loop (cache fill and
#: warm-up round) start here, far from the keys of the measured loop.
UNTIMED_KEYS_FROM = 10**9
#: ``(server CPU, client CPU)``: the server and this client each keep a
#: core of their own, when there are two.
_CPUS = sorted(os.sched_getaffinity(0))
PIN = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else None


class Tally:
    """Every request sent in a run: attempts and failures by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, failure: Optional[str]) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure] += 1


class Server:
    """One ``minibsml serve --port 0`` process with the service defaults."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if PIN:
            os.sched_setaffinity(self.proc.pid, {PIN[0]})
        self.log: List[str] = []
        self._announced = False
        ready: "queue.Queue[Optional[Tuple[str, int]]]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, args=(ready,), daemon=True)
        self._drain.start()
        try:
            address = ready.get(timeout=STARTUP_TIMEOUT_S)
        except queue.Empty:
            address = None
        if address is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.log[-20:]))
        self.host, self.port = address

    def _read_stderr(self, ready: "queue.Queue[Optional[Tuple[str, int]]]") -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match and not self._announced:
                self._announced = True
                ready.put((match.group(1), int(match.group(2))))
        ready.put(None)

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_seconds(self) -> float:
        # utime and stime, fields 14 and 15 of /proc/<pid>/stat (after
        # the parenthesised command name, which may hold spaces).
        fields = self._proc_file("stat").rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        match = re.search(r"VmHWM:\s+(\d+) kB", self._proc_file("status"))
        return int(match.group(1)) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects after an error.

    A minimal client over a non-blocking socket that polls for the reply
    instead of sleeping on it, so that neither this client's own work
    nor the wake-up of its core is part of the measured latency.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._connect()

    def _connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)

    def _receive(self, deadline: float) -> bytes:
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                if time.perf_counter() > deadline:
                    raise TimeoutError("no reply in time") from None
                continue
            if not chunk:
                raise ConnectionError("connection closed by the server")
            return chunk

    def send(self, method: str, path: str, body: bytes = b"") -> Tuple[float, int, str, bytes]:
        """``(seconds, status, X-Repro-Cache, body)``; status 0 on a
        transport error."""
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        started = time.perf_counter()
        deadline = started + REPLY_TIMEOUT_S
        try:
            self.sock.setblocking(True)
            self.sock.sendall(request)
            self.sock.setblocking(False)
            received = b""
            while b"\r\n\r\n" not in received:
                received += self._receive(deadline)
            head, _, data = received.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            headers = {
                name.strip().lower(): value.strip()
                for name, _, value in (line.partition(":") for line in lines[1:])
            }
            length = int(headers["content-length"])
            while len(data) < length:
                data += self._receive(deadline)
        except (OSError, ValueError, IndexError, KeyError):
            self.close()
            self._connect()
            return time.perf_counter() - started, 0, "", b""
        elapsed = time.perf_counter() - started
        return elapsed, status, headers.get("x-repro-cache", ""), data

    def get_json(self, path: str) -> dict:
        return json.loads(self.get_text(path))

    def get_text(self, path: str) -> str:
        _, status, _, data = self.send("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return data.decode()

    def close(self) -> None:
        self.sock.close()


def exchange(
    client: Client,
    request: Request,
    oracle: dict,
    tally: Tally,
    known: Optional[Dict[bytes, bytes]] = None,
) -> Tuple[float, int, str, bytes]:
    """Send one request, check the reply, and record the outcome.

    ``known`` maps request bodies to replies already checked: a reply
    byte-identical to the known one passes on that identity alone (a
    cached replay is served from the stored bytes).
    """
    elapsed, status, verdict, data = client.send("POST", request.endpoint, request.body)
    if status == 0:
        failure: Optional[str] = "transport"
    elif known is not None and known.get(request.body) == data:
        failure = None
    else:
        failure = check(oracle, request.endpoint, request.expect, request.l, status, data)
        if failure is None and known is not None:
            known[request.body] = data
    tally.record(failure)
    return elapsed, status, verdict, data


def start_server(oracle: dict, tally: Tally) -> Tuple[Server, float]:
    """Spawn a server and answer one ``/v1/run`` that links the prelude;
    returns the server and the seconds that took."""
    started = time.perf_counter()
    server = Server()
    client = Client(server.host, server.port)
    warmup = run_request(WARMUP, oracle["programs"][WARMUP], MIX_P, 20.0)
    try:
        exchange(client, warmup, oracle, tally)
    except BaseException:
        server.stop()
        raise
    finally:
        client.close()
    return server, time.perf_counter() - started


def fill_cache(client: Client, oracle: dict, tally: Tally) -> None:
    """Fill the response cache to capacity with cheap distinct typechecks,
    so that every insert of the measured loop evicts."""
    capacity = client.get_json("/v1/stats")["response_cache"]["capacity"]
    deadline = time.perf_counter() + FILL_BUDGET_S
    for index in range(capacity):
        if time.perf_counter() > deadline:
            break
        request = typecheck_request(FILL, oracle["programs"][FILL], UNTIMED_KEYS_FROM + index)
        exchange(client, request, oracle, tally)


def warm_up(client: Client, workload: str, seed: int, oracle: dict, tally: Tally) -> None:
    """Send every base request of the workload once, cold and untimed, so
    that the loop measures a server whose solver caches and interning
    pools are past their first fill."""
    cold = ColdKeys(oracle, random.Random(f"warm-up/{seed}"), first=UNTIMED_KEYS_FROM)
    for base in base_requests(workload, oracle):
        exchange(client, cold(base), oracle, tally)


class Loop:
    """What the measured closed loop saw."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.verdicts: Counter = Counter()
        self.completed = 0
        self.wall = 0.0


def drive(client: Client, workload: str, seed: int, seconds: float, oracle: dict, tally: Tally) -> Loop:
    """Run whole rounds of the workload's schedule until ``seconds`` pass."""
    loop = Loop()
    known: Dict[bytes, bytes] = {}
    # Keep collector pauses of this client out of the measured latencies.
    gc.collect()
    gc.disable()
    started = time.perf_counter()
    for round_ in schedule(workload, seed, oracle):
        for request in round_:
            elapsed, status, verdict, _ = exchange(client, request, oracle, tally, known)
            loop.latencies.append(elapsed)
            loop.verdicts[verdict or "none"] += 1
            if status != 0:
                loop.completed += 1
        if time.perf_counter() - started >= seconds:
            break
    loop.wall = time.perf_counter() - started
    gc.enable()
    return loop


#: The end-to-end metrics and their units.
E2E_METRICS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "ok_ratio": "ratio",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}


def _histogram_totals(text: str) -> Tuple[float, float]:
    """Sum and count of ``repro_request_seconds`` over every label set."""
    totals = {"sum": 0.0, "count": 0.0}
    for line in text.splitlines():
        match = re.match(r"repro_request_seconds_(sum|count)\{[^}]*\} (\S+)$", line)
        if match:
            totals[match.group(1)] += float(match.group(2))
    return totals["sum"], totals["count"]


def _solver_totals(stats: dict) -> Tuple[int, int]:
    caches = stats["solver_caches"].values()
    return sum(c["hits"] for c in caches), sum(c["misses"] for c in caches)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no src/repro under {ROOT}: run from the root of a checkout", file=sys.stderr)
        return 2

    # A terminated benchmark still stops its server (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if PIN:
        os.sched_setaffinity(0, {PIN[1]})
    oracle = load_oracle()
    tally = Tally()
    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server, setup = start_server(oracle, tally)
            setups.append(setup)
        client = Client(server.host, server.port)
        if args.workload == "mix-p4":
            fill_cache(client, oracle, tally)
        warm_up(client, args.workload, args.seed, oracle, tally)
        if args.trace:
            metrics_before = _histogram_totals(client.get_text("/v1/metrics"))
            stats_before = client.get_json("/v1/stats")
        cpu_before = server.cpu_seconds()
        loop = drive(client, args.workload, args.seed, args.seconds, oracle, tally)
        cpu = server.cpu_seconds() - cpu_before
        rss = server.peak_rss_mb()
        if args.trace:
            metrics_after = _histogram_totals(client.get_text("/v1/metrics"))
            stats_after = client.get_json("/v1/stats")
        client.close()
    finally:
        if server is not None:
            server.stop()

    latencies_ms = [seconds * 1000 for seconds in loop.latencies]
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
            "throughput_rps": loop.completed / loop.wall,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "server_cpu_ms_per_req": cpu * 1000 / max(loop.completed, 1),
            "server_rss_mb": rss,
        }
        units = E2E_METRICS
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import traced

        handler_s = metrics_after[0] - metrics_before[0]
        handled = max(metrics_after[1] - metrics_before[1], 1)
        hits, misses = (
            after - before
            for after, before in zip(_solver_totals(stats_after), _solver_totals(stats_before))
        )
        values = {
            "service.cache_hit_ratio": loop.verdicts["hit"] / len(loop.latencies),
            "service.cache_evictions": stats_after["response_cache"]["evictions"]
            - stats_before["response_cache"]["evictions"],
            "service.transport_ms": statistics.mean(latencies_ms) - handler_s * 1000 / handled,
            "core.solver_cache_hit_ratio": hits / max(hits + misses, 1),
        }
        values.update(traced.measure(ROOT, args.workload, args.seed, args.seconds, oracle, tally))
        units = traced.LAYER_METRICS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed}: {len(loop.latencies)} timed requests "
          f"in {loop.wall:.2f} s, setups {', '.join(f'{s:.3f}' for s in setups)} s")
    print("cache verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(loop.verdicts.items())))
    print(f"failures: {tally.failed} of {tally.attempted}" + "".join(
        f", {kind}={count}" for kind, count in sorted(tally.failures.items())))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
