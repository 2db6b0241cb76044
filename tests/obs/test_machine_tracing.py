"""Tracing of the BSP pipeline: superstep phases, tasks, faults,
retries, rollbacks, backend lifecycle, and the end-to-end run."""

from __future__ import annotations

import pytest

from repro import obs, run_program
from repro.bsp.faults import FaultPlan, RetryPolicy, SuperstepFault
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams


def machine(p=4, **kwargs):
    return BspMachine(BspParams(p=p), **kwargs)


def tasks(p=4, ops=1.0):
    return [(lambda i: (lambda: (i, ops)))(i) for i in range(p)]


class TestSuperstepPhases:
    def test_compute_span_with_task_spans_per_process(self):
        m = machine()
        with obs.trace() as t:
            m.run_superstep(tasks())
        (compute,) = t.spans("superstep.compute")
        assert compute.track == obs.MACHINE_TRACK
        assert compute.arg("superstep") == 0
        assert compute.arg("procs") == 4
        assert compute.arg("attempts") == 1
        task_spans = t.spans("task")
        assert [s.track for s in task_spans] == [
            obs.process_track(i) for i in range(4)
        ]
        for proc, span in enumerate(task_spans):
            assert span.arg("proc") == proc
            assert span.arg("ops") == 1.0
            assert span.arg("superstep") == 0
            assert span.dur >= 0.0

    def test_exchange_span_and_commit_event(self):
        m = machine(p=2)
        with obs.trace() as t:
            m.run_superstep(tasks(p=2))
            m.exchange([[0, 3], [0, 0]], label="x")
        (exchange,) = t.spans("superstep.exchange")
        assert exchange.arg("h") == 3
        assert exchange.arg("words") == 3
        assert exchange.arg("label") == "x"
        (commit,) = t.events("superstep")
        assert commit.track == obs.MACHINE_TRACK
        assert commit.arg("superstep") == 0
        assert commit.arg("h") == 3
        assert commit.arg("w_max") == m.cost().supersteps[0].w_max

    def test_barrier_span(self):
        m = machine(p=2)
        with obs.trace() as t:
            m.run_superstep(tasks(p=2))
            m.barrier(label="sync")
        (barrier,) = t.spans("superstep.barrier")
        assert barrier.track == obs.MACHINE_TRACK
        (commit,) = t.events("superstep")
        assert commit.arg("label") == "sync"
        assert commit.arg("h") == 0

    def test_commit_events_match_cost_table(self):
        m = machine(p=2)
        with obs.trace() as t:
            for _ in range(3):
                m.run_superstep(tasks(p=2))
                m.exchange([[0, 1], [0, 0]])
        cost = m.cost()
        commits = t.events("superstep")
        assert [c.arg("superstep") for c in commits] == [0, 1, 2]
        for commit, step in zip(commits, cost.supersteps):
            assert commit.arg("w_max") == step.w_max
            assert commit.arg("h") == step.h

    def test_disabled_tracing_records_nothing_and_still_runs(self):
        m = machine()
        values = m.run_superstep(tasks())
        assert values == [0, 1, 2, 3]
        assert not obs.enabled()


class TestFaultTracing:
    # Seed 0 with crash=0.4 deterministically injects one crash on the
    # first attempt and recovers on the second (see repro.bsp.faults:
    # draws are machine-side in program order, so this is stable).
    def test_recovered_retry_emits_fault_retry_and_recovery(self):
        m = machine(
            faults=FaultPlan(seed=0, crash=0.4),
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
        )
        with obs.trace() as t:
            values = m.run_superstep(tasks())
        assert values == [0, 1, 2, 3]
        faults = t.events("fault")
        assert len(faults) >= 1
        for fault in faults:
            proc = fault.arg("proc")
            assert fault.track == obs.process_track(proc)
            assert fault.arg("kind") in ("crash", "timeout")
        (retry,) = t.events("retry")
        assert retry.arg("attempt") == 2
        assert retry.arg("phase") == "compute"
        (recovered,) = t.events("retry.recovered")
        assert recovered.arg("attempts") == 2
        (compute,) = t.spans("superstep.compute")
        assert compute.arg("attempts") == 2

    def test_exhausted_retries_emit_rollback_with_outcomes(self):
        m = machine(
            faults=FaultPlan(seed=0, crash=0.9),
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
        )
        with obs.trace() as t:
            with pytest.raises(SuperstepFault):
                m.run_superstep(tasks())
        (rollback,) = t.events("rollback")
        assert rollback.track == obs.MACHINE_TRACK
        assert rollback.arg("phase") == "compute"
        outcomes = rollback.arg("outcomes")
        assert "crash" in outcomes
        # the compute span is still recorded for the failed phase
        assert len(t.spans("superstep.compute")) == 1
        # and the machine rolled back: nothing committed
        assert m.cost().supersteps == []

    def test_message_fault_events_sit_on_senders_track(self):
        # drop=1.0: every in-flight message is injured on every attempt.
        m = machine(
            p=2,
            faults=FaultPlan(seed=1, drop=1.0),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        with obs.trace() as t:
            m.run_superstep(tasks(p=2))
            with pytest.raises(SuperstepFault):
                m.exchange([[0, 1], [0, 0]], payloads={(0, 1): "m"})
        drops = [e for e in t.events("fault") if e.arg("kind") == "drop"]
        assert drops
        for drop in drops:
            assert drop.track == obs.process_track(drop.arg("src"))
            assert drop.arg("dst") == 1
        (rollback,) = t.events("rollback")
        assert rollback.arg("phase") == "exchange"


class TestAbstractSignature:
    def test_task_spans_keep_abstract_ops_not_seconds(self):
        m = machine()
        with obs.trace() as t:
            m.run_superstep(tasks(ops=7.0))
        signature = t.abstract_signature()
        task_entries = [e for e in signature if e[0] == "task"]
        assert len(task_entries) == 4
        for entry in task_entries:
            keys = [k for k, _ in entry[2]]
            assert "ops" in keys and "proc" in keys
            assert "seconds" not in keys and "backend" not in keys

    def test_backend_identity_not_in_compute_signature(self):
        m = machine()
        with obs.trace() as t:
            m.run_superstep(tasks())
        compute_entry = next(
            e for e in t.abstract_signature() if e[0] == "superstep.compute"
        )
        assert "backend" not in [k for k, _ in compute_entry[2]]


class TestEndToEnd:
    def test_run_program_produces_all_tracks(self):
        with obs.trace() as t:
            result = run_program("bcast 2 (mkpar (fun i -> i * i))", p=4)
        assert result.python_value == [4, 4, 4, 4]
        tracks = t.tracks()
        assert tracks[0] == obs.MACHINE_TRACK
        assert [f"proc {i}" for i in range(4)] == tracks[1:5]
        assert obs.INFERENCE_TRACK in tracks
        assert t.spans("judgment")
        assert t.spans("unify")
        assert t.spans("solve")
        assert t.events("superstep")
        # and the whole thing exports to a valid Chrome trace
        assert obs.validate_chrome_trace(obs.to_chrome(t)) > 0

    def test_infer_span_carries_rule(self):
        with obs.trace() as t:
            run_program("1 + 2", p=2)
        rules = {s.arg("rule") for s in t.spans("judgment")}
        assert rules and None not in rules
