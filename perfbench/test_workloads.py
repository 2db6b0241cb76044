"""Tests of the benchmark's own schedules, oracle and metric names.

Run from the repository root: ``python3 -m pytest perfbench -q``.
Nothing here starts a server.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # traced.py imports repro

import run
import traced
from oracle import check, expected, load_oracle
from workloads import MIX_RUNS_PER_TYPECHECK, REPLAY_WINDOW, WORKLOADS, base_requests, schedule, with_nonce

ORACLE = load_oracle()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def requests(workload, seed, rounds=40):
    return [r for round_ in itertools.islice(schedule(workload, seed, ORACLE), rounds) for r in round_]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_requests(workload):
    first = [(r.endpoint, r.body) for r in requests(workload, 7)]
    second = [(r.endpoint, r.body) for r in requests(workload, 7)]
    assert first == second


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_gives_another_sequence(workload):
    assert [r.body for r in requests(workload, 7)] != [r.body for r in requests(workload, 8)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cold_requests_are_new_keys_and_cover_the_workload(workload):
    cold = [r for r in requests(workload, 3, rounds=300) if r.cold]
    assert len({r.body for r in cold}) == len(cold)
    bases = base_requests(workload, ORACLE)
    # The first cold requests are one permutation of the (weighted) bases.
    runs = sum(endpoint == "/v1/run" for endpoint, _, _ in bases)
    first = len(bases) + (runs * (MIX_RUNS_PER_TYPECHECK - 1) if workload == "mix-p4" else 0)
    covered = [(r.endpoint, r.expect.split("@")[0]) for r in cold[:first]]
    assert set(covered) == {(endpoint, name) for endpoint, name, _ in bases}
    if workload == "mix-p4":
        assert covered.count(("/v1/run", "broadcast")) == MIX_RUNS_PER_TYPECHECK


def test_mix_replays_three_in_four_from_the_recent_window():
    sent = requests("mix-p4", 5, rounds=400)
    assert sum(not r.cold for r in sent) * 4 == len(sent) * 3
    cold_bodies = []
    for r in sent:
        if r.cold:
            cold_bodies.append(r.body)
        else:
            assert r.body in cold_bodies[-REPLAY_WINDOW:]


def test_every_request_has_an_expected_answer():
    for workload in WORKLOADS:
        for r in requests(workload, 1, rounds=3):
            assert expected(ORACLE, r.endpoint, r.expect)["status"] in (200, 422)


def test_unsafe_corpus_expects_a_type_rejection():
    unsafe = [name for name in ORACLE["programs"] if name.startswith("unsafe.")]
    assert len(unsafe) == 10
    for name in unsafe:
        assert ORACLE["typecheck"][name] == {"status": 422, "kind": "type"}
        assert ORACLE["run"][f"{name}@4"] == {"status": 422, "kind": "type"}


def test_check_flags_each_kind_of_difference():
    answer = ORACLE["run"]["broadcast@4"]
    body = {
        "type": answer["type"],
        "constraints": answer["constraints"],
        "value": answer["value"],
        "cost": {"W": answer["W"], "H": answer["H"], "S": answer["S"], "g": ORACLE["g"],
                 "l": 2.5, "total": answer["W"] + answer["H"] * ORACLE["g"] + answer["S"] * 2.5},
    }
    good = json.dumps(body).encode()
    assert check(ORACLE, "/v1/run", "broadcast@4", 2.5, 200, good) is None
    assert check(ORACLE, "/v1/run", "broadcast@4", 2.5, 500, good) == "status-500"
    assert check(ORACLE, "/v1/run", "broadcast@4", 3.5, 200, good) == "cost"
    wrong = json.dumps({**body, "value": "<0>"}).encode()
    assert check(ORACLE, "/v1/run", "broadcast@4", 2.5, 200, wrong) == "value"
    rejected = json.dumps({"error": {"kind": "type", "message": "m"}}).encode()
    assert check(ORACLE, "/v1/typecheck", "unsafe.00", None, 422, rejected) is None
    assert check(ORACLE, "/v1/typecheck", "typed.00", None, 422, rejected) == "status-422"


def test_nonce_keeps_definitions_and_wraps_the_final_expression():
    assert with_nonce("1 + 2", 5) == "let bench_nonce = 5 in (1 + 2)"
    assert with_nonce("let f x = x\n;;\nf 1", 5) == "let f x = x\n;; let bench_nonce = 5 in (f 1)"


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == traced.LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
