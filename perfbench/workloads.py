"""Seeded request schedules of the benchmark's four workloads.

Pure Python: nothing here imports the system under test.  Every request
is built from the committed corpus in ``oracle.json`` and from the seed,
so the same seed gives a byte-identical request sequence.

A schedule is an endless iterator of *rounds* (lists of
:class:`Request`); the client runs whole rounds until its time is up.

* ``mix-p4`` -- rounds of four: one cold request (a new key) and three
  replays of keys drawn from the last :data:`REPLAY_WINDOW` cold keys.
  The cold requests walk seeded permutations of the base requests, each
  ``/v1/run`` base :data:`MIX_RUNS_PER_TYPECHECK` times.
* ``infer-shapes``, ``par-deep``, ``par-wide`` -- each round sends every
  base program of the workload once, cold, in a seeded order.

A cold ``/v1/run`` differs from its base program only in ``l``, which
enters the response-cache key but not the work; a cold
``/v1/typecheck`` wraps the program's final expression in an unused
integer binding (:func:`with_nonce`), which changes the key but not the
type, the constraints or the scheme.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS: Dict[str, str] = {
    "mix-p4": "/v1/run and /v1/typecheck at p=4 on the shipped programs and "
    "both curated corpora, 3/4 replays of a recent window",
    "infer-shapes": "cold /v1/typecheck of six adversarial shapes at two sizes "
    "(nested fun at three)",
    "par-deep": "cold /v1/run of the shipped programs at p=32",
    "par-wide": "cold /v1/run at p=2048 of programs without communication",
}

MIX_P = 4
DEEP_P = 32
WIDE_P = 2048
#: Keys a ``mix-p4`` replay draws from: the most recent cold requests.
#: Below the service's default response-cache capacity (1024).
REPLAY_WINDOW = 256
REPLAYS_PER_COLD = 3
#: Each ``mix-p4`` program is sent cold to ``/v1/run`` this many times
#: per ``/v1/typecheck``.  Successful cold runs are then about 15% of
#: all requests, so the 90th percentile falls inside their latencies;
#: with 1:1 they are about 10% and it falls on their lower edge, where
#: it jumps between clusters from run to run.
MIX_RUNS_PER_TYPECHECK = 3

#: Program names (keys of the oracle's ``programs``) per workload.
SHIPPED = (
    "broadcast",
    "inner_product",
    "maximum",
    "odd_even_sort",
    "parallel_prefix",
)
#: ``well_typed_corpus()`` entries that do not communicate -- ``put`` is
#: O(p^2), which would swamp the p-wide layers.  Every cold workload has
#: an odd number of base requests: each round sends each once, so the
#: median latency falls inside one program's samples, not on the gap
#: between two programs.
WIDE = (
    "typed.19",  # mkpar (fun i -> i)
    "typed.21",  # apply (mkpar ..., mkpar ...)
    "typed.27",  # let vec = mkpar ... in apply (...)
    "typed.28",  # replicate 42
    "typed.29",  # parfun (fun x -> x * 2) (mkpar ...)
    "typed.35",  # mkpar (fun i -> nproc - i)
    "typed.36",  # mkpar (fun i -> if ... then inl i else inr ...)
)
#: The ``/v1/run`` every server answers once before it is measured.
WARMUP = "typed.30"  # bcast 0 (mkpar (fun i -> i + 7))
#: The cheap program whose distinct typechecks fill the response cache
#: before a ``mix-p4`` run is timed, so that every timed insert evicts.
FILL = "fill"


def _deep_let(n: int) -> str:
    lets = "".join(
        f"let x{i} = {'0' if i == 0 else f'x{i - 1} + 1'} in " for i in range(n)
    )
    return lets + f"x{n - 1}"


def _long_plus(n: int) -> str:
    return " + ".join(["1"] * n)


def _app_chain(n: int) -> str:
    return "(fun x -> x) (" * n + "1" + ")" * n


def _nested_fun(n: int) -> str:
    return "".join(f"fun x{i} -> " for i in range(n)) + "x0"


def _wide_tuple(n: int) -> str:
    return "(" * (n - 1) + "0" + "".join(f", {i})" for i in range(1, n))


def _bcast_chain(n: int) -> str:
    return "bcast 0 (" * n + "mkpar (fun i -> i)" + ")" * n


#: Adversarial inference shapes and their sizes, chosen so that one cold
#: typecheck takes roughly 20-500 ms on the seed state.  Nested ``fun``,
#: the cubic case at the seed state, gets a third size; that also makes
#: the round odd-sized (see ``WIDE``).
SHAPES = {
    "deep_let": (_deep_let, (100, 400)),
    "long_plus": (_long_plus, (400, 1600)),
    "app_chain": (_app_chain, (200, 800)),
    "nested_fun": (_nested_fun, (40, 60, 80)),
    "wide_tuple": (_wide_tuple, (80, 200)),
    "bcast_chain": (_bcast_chain, (100, 400)),
}


def shape_programs() -> Dict[str, str]:
    """``{"shape.<name>.<n>": source}`` for every shape and size."""
    return {
        f"shape.{name}.{n}": build(n)
        for name, (build, sizes) in SHAPES.items()
        for n in sizes
    }


def with_nonce(source: str, nonce: int) -> str:
    """``source`` with its final expression wrapped in an unused binding.

    Definitions (everything up to the last ``;;``) are kept as they are.
    """
    head, sep, body = source.rpartition(";;")
    prefix = f"{head}{sep} " if sep else ""
    return f"{prefix}let bench_nonce = {nonce} in ({body.strip()})"


def encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class Request:
    endpoint: str  #: ``/v1/run`` or ``/v1/typecheck``
    body: bytes  #: the canonical JSON body
    expect: str  #: oracle key of the expected answer
    cold: bool  #: first time this key is sent
    l: Optional[float] = None  #: the BSP ``l`` of a run, for its cost total


def run_key(name: str, p: int) -> str:
    return f"{name}@{p}"


def run_request(name: str, source: str, p: int, l: float) -> Request:
    body = encode({"program": source, "p": p, "l": l})
    return Request("/v1/run", body, run_key(name, p), True, l)


def typecheck_request(name: str, source: str, nonce: int) -> Request:
    body = encode({"program": with_nonce(source, nonce)})
    return Request("/v1/typecheck", body, name, True)


def mix_programs(oracle: Dict[str, dict]) -> List[str]:
    return [
        name
        for name in oracle["programs"]
        if name.split(".")[0] in SHIPPED + ("typed", "unsafe")
    ]


Base = Tuple[str, str, int]  #: ``(endpoint, program name, p)``


def base_requests(workload: str, oracle: Dict[str, dict]) -> List[Base]:
    """The distinct requests of ``workload``, before cold-key variation."""
    if workload == "mix-p4":
        return [
            (endpoint, name, MIX_P)
            for name in mix_programs(oracle)
            for endpoint in ("/v1/run", "/v1/typecheck")
        ]
    if workload == "infer-shapes":
        return [("/v1/typecheck", name, MIX_P) for name in shape_programs()]
    if workload == "par-deep":
        return [("/v1/run", name, DEEP_P) for name in SHIPPED]
    if workload == "par-wide":
        return [("/v1/run", name, WIDE_P) for name in WIDE]
    raise ValueError(f"unknown workload {workload!r}")


class ColdKeys:
    """Turns a base request into one whose cache key was never sent.

    ``first`` offsets the keys, so that two ``ColdKeys`` of one run
    never make the same key.
    """

    def __init__(self, oracle: Dict[str, dict], rng: random.Random, first: int = 0) -> None:
        self.programs = {**oracle["programs"], **shape_programs()}
        self.rng = rng
        self.sent = first

    def __call__(self, base: Base) -> Request:
        endpoint, name, p = base
        self.sent += 1
        if endpoint == "/v1/typecheck":
            return typecheck_request(name, self.programs[name], self.sent)
        # A distinct integer part per cold run keeps every key new.
        l = round(self.sent + self.rng.randrange(1000) / 1000, 3)
        return run_request(name, self.programs[name], p, l)


def shuffled_rounds(bases: List[Base], rng: random.Random) -> Iterator[List[Base]]:
    """Endless seeded permutations of ``bases``."""
    while True:
        order = list(bases)
        rng.shuffle(order)
        yield order


def schedule(workload: str, seed: int, oracle: Dict[str, dict]) -> Iterator[List[Request]]:
    """The endless round sequence of ``workload`` under ``seed``.

    Base requests come in seeded permutations, so every run covers the
    workload's programs in the same proportions whatever the seed.
    """
    bases = base_requests(workload, oracle)
    rng = random.Random(f"{workload}/{seed}")
    cold = ColdKeys(oracle, rng)
    if workload != "mix-p4":
        for order in shuffled_rounds(bases, rng):
            yield [cold(base) for base in order]
    runs = [base for base in bases if base[0] == "/v1/run"]
    window: List[Request] = []
    for order in shuffled_rounds(bases + runs * (MIX_RUNS_PER_TYPECHECK - 1), rng):
        for base in order:
            request = cold(base)
            window = (window + [request])[-REPLAY_WINDOW:]
            replays = [
                replace(rng.choice(window), cold=False) for _ in range(REPLAYS_PER_COLD)
            ]
            yield [request] + replays
