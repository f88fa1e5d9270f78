"""Integration: one Trace threaded through every layer of the stack.

These tests are the acceptance criteria for Scope: a traced accelerated
run must produce a schema-valid Chrome trace containing the host phases,
EnqueueProgram spans with per-core children, and a populated metrics
registry — and the trace's clock must agree exactly with the modelled
timelines the repo already keeps.
"""

import json

import pytest

from repro import (
    Campaign,
    JobSpec,
    ReferenceBackend,
    Simulation,
    Trace,
    TTForceBackend,
    plummer,
    write_chrome_trace,
)
from repro.backends import ShardedTTBackend
from repro.metalium import CreateDevice, GetCommandQueue
from repro.observability import validate_chrome_trace
from repro.telemetry import RetryPolicy


@pytest.fixture()
def traced_run():
    trace = Trace()
    system = plummer(512, seed=21)
    backend = TTForceBackend(CreateDevice(0), n_cores=4)
    result = Simulation(system, backend, dt=1e-3, trace=trace).run(2)
    return trace, result


class TestSimulationTrace:
    def test_cursor_equals_model_seconds(self, traced_run):
        trace, result = traced_run
        assert trace.duration_s == pytest.approx(
            result.model_seconds, abs=1e-9
        )
        assert trace.now == pytest.approx(result.model_seconds, abs=1e-9)

    def test_span_taxonomy(self, traced_run):
        trace, _ = traced_run
        run = trace.find("simulation.run")[0]
        assert run.parent is None
        assert run.attributes["n"] == 512 and run.attributes["n_cycles"] == 2

        cycles = trace.find("cycle")
        assert [c.attributes["index"] for c in cycles] == [0, 1]
        for cycle in cycles:
            names = [s.name for s in trace.children_of(cycle)]
            assert names == ["predict", "force", "correct"]

    def test_enqueue_program_has_per_core_children(self, traced_run):
        trace, _ = traced_run
        launches = trace.find("EnqueueProgram")
        assert len(launches) == 3  # initialise + 2 cycles
        for launch in launches:
            assert launch.category == "launch"
            assert launch.attributes["n_cores"] == 4
            device = next(
                s for s in trace.children_of(launch)
                if s.category == "device"
            )
            cores = trace.children_of(device)
            assert len(cores) == 4
            assert {s.track for s in cores} == {
                f"dev0/core{i}" for i in range(4)
            }
            assert all(s.start_s == device.start_s for s in cores)
            # The device span is the critical path over its cores.
            assert device.duration_s == pytest.approx(
                max(s.duration_s for s in cores)
            )
            assert all(
                s.attributes["compute_cycles"] >= 0 for s in cores
            )

    def test_chrome_export_is_schema_valid(self, traced_run, tmp_path):
        trace, _ = traced_run
        payload = json.loads(
            write_chrome_trace(trace, tmp_path / "t.json").read_text()
        )
        assert validate_chrome_trace(payload) == []
        cats = {e["cat"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"sim", "host", "launch", "device", "core"} <= cats

    def test_device_metrics_populated(self, traced_run):
        trace, _ = traced_run
        m = trace.metrics.to_dict()
        assert m["device0.programs"]["value"] == 3
        assert m["device0.dram.bytes_read"]["value"] > 0
        assert m["device0.noc.bytes"]["value"] > 0
        assert m["device0.l1.cb_high_water_bytes"]["value"] > 0
        assert m["device0.tiles_per_s"]["count"] == 3

    def test_pcie_spans_carry_byte_counts(self, traced_run):
        trace, _ = traced_run
        writes = trace.find("write_buffer")
        assert writes and all(
            s.category == "pcie" and s.attributes["bytes"] > 0
            for s in writes
        )

    def test_untraced_backend_still_traces_as_leaves(self):
        trace = Trace()
        system = plummer(256, seed=3)
        result = Simulation(
            system, ReferenceBackend(), dt=1e-3, trace=trace
        ).run(1)
        assert trace.find("simulation.run")
        assert trace.duration_s == pytest.approx(result.model_seconds)
        assert not trace.find("EnqueueProgram")


class TestTraceIsOptional:
    def test_traced_and_untraced_runs_are_identical(self):
        """Tracing must never change physics or modelled time."""
        def run(trace):
            system = plummer(256, seed=9)
            backend = TTForceBackend(CreateDevice(0), n_cores=2)
            result = Simulation(
                system, backend, dt=1e-3, trace=trace
            ).run(2)
            return system, result

        sys_a, res_a = run(None)
        sys_b, res_b = run(Trace())
        assert (sys_a.pos == sys_b.pos).all()
        assert (sys_a.vel == sys_b.vel).all()
        assert res_a.model_seconds == res_b.model_seconds

    def test_queue_trace_defaults_to_none(self):
        device = CreateDevice(0)
        assert GetCommandQueue(device).trace is None

    def test_multi_device_traced_run_matches_untraced(self):
        def run(trace):
            system = plummer(2048, seed=13)
            backend = ShardedTTBackend(2, n_cores=2, trace=trace)
            ev = backend.compute(system.pos, system.vel, system.mass)
            return ev

        ev_a = run(None)
        trace = Trace()
        ev_b = run(trace)
        assert (ev_a.acc == ev_b.acc).all()
        assert sum(s.seconds for s in ev_a.segments) == pytest.approx(
            sum(s.seconds for s in ev_b.segments)
        )
        # Both cards narrated their launches, and the allgather shows.
        tracks = {s.track for s in trace.spans if s.category == "core"}
        assert any(t.startswith("dev0/") for t in tracks)
        assert any(t.startswith("dev1/") for t in tracks)
        assert trace.find("allgather")


class TestCampaignTrace:
    def test_job_spans_on_the_virtual_clock(self):
        trace = Trace()
        campaign = Campaign(
            seed=5, n_cards=2, reset_failure_rate=0.5,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=5.0),
            trace=trace,
        )
        for _ in range(3):
            campaign.run_job(JobSpec.paper_accelerated())

        assert trace.now == pytest.approx(campaign.clock.now(), abs=1e-6)
        jobs = trace.find("job")
        assert [j.attributes["index"] for j in jobs] == [1, 2, 3]
        for job in jobs:
            names = [s.name for s in trace.children_of(job)]
            assert names[0] == "reset"
            assert names.count("sleep") == 2
            assert "simulate" in names
            assert job.attributes["completed"] is True

        m = trace.metrics.to_dict()
        assert m["campaign.jobs"]["value"] == 3
        assert m["campaign.reset_attempts"]["value"] >= 3
        assert m["campaign.time_to_solution_s"]["count"] == 3
        assert m["campaign.joules_per_cycle"]["count"] == 3

    def test_campaign_trace_chrome_valid(self, tmp_path):
        trace = Trace()
        campaign = Campaign(seed=8, reset_failure_rate=0.0, trace=trace)
        campaign.run_job(JobSpec.paper_reference())
        payload = json.loads(
            write_chrome_trace(trace, tmp_path / "c.json").read_text()
        )
        assert validate_chrome_trace(payload) == []

    def test_traced_campaign_results_unchanged(self):
        def run(trace):
            campaign = Campaign(
                seed=31, n_cards=2, reset_failure_rate=0.4,
                retry=RetryPolicy(max_attempts=3, base_backoff_s=2.0),
                failover="card", trace=trace,
            )
            return [
                campaign.run_job(JobSpec.paper_accelerated())
                for _ in range(4)
            ]

        plain = run(None)
        traced = run(Trace())
        for a, b in zip(plain, traced):
            assert a.time_to_solution == b.time_to_solution
            assert a.attempts == b.attempts
            assert a.completed == b.completed
