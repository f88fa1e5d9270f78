"""PMForceBackend wiring: registry, RunSpec, determinism, timelines."""

import argparse

import numpy as np
import pytest

from repro.backends import BACKENDS, BackendSpec, RunSpec, make_backend
from repro.core import uniform_sphere
from repro.metalium import CloseDevice
from repro.nbody_pm import PMForceBackend


@pytest.fixture
def system():
    return uniform_sphere(512, seed=9)


def close(backend):
    for device in backend.devices:
        if device.is_open:
            CloseDevice(device)


class TestRegistry:
    def test_pm_backends_are_registered(self):
        assert "tt-pm" in BACKENDS.names()
        assert "cpu-pm" in BACKENDS.names()

    def test_make_backend_with_options(self, system):
        backend = make_backend("tt-pm", mesh=64, cutoff=3.0, cores=4)
        try:
            assert backend.mesh == 64
            assert backend.cutoff == 3.0
            assert backend.n_cores == 4
            ev = backend.compute(system.pos, system.vel, system.mass)
            assert ev.model_seconds > 0
        finally:
            close(backend)

    def test_cpu_pm_rejects_cores_option(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_backend("cpu-pm", cores=4)

    def test_runspec_round_trips_mesh_and_cutoff(self):
        spec = RunSpec(n=256, backend=BackendSpec(
            "tt-pm", {"mesh": 64, "cutoff": 2.5}
        ))
        again = RunSpec.from_json(spec.to_json())
        assert again.backend.options["mesh"] == 64
        assert again.backend.options["cutoff"] == 2.5

    def test_runspec_from_cli_picks_up_pm_flags(self):
        args = argparse.Namespace(
            n=256, cycles=1, dt=1e-3, adaptive=False, softening=0.0,
            seed=0, backend="tt-pm", mesh=64, cutoff=0.0, cores=None,
            cards=None, threads=None, workers=None,
        )
        spec = RunSpec.from_cli(args, {})
        assert spec.backend.options["mesh"] == 64
        assert spec.backend.options["cutoff"] == 0.0
        backend = spec.make_backend()
        try:
            assert backend.mesh == 64
            assert backend.cutoff == 0.0
        finally:
            close(backend)


class TestDeterminism:
    def test_cpu_and_tt_are_bit_identical(self, system):
        cpu = make_backend("cpu-pm")
        tt = make_backend("tt-pm")
        try:
            a = cpu.compute(system.pos, system.vel, system.mass)
            b = tt.compute(system.pos, system.vel, system.mass)
            assert np.array_equal(a.acc, b.acc)
            assert np.array_equal(a.jerk, b.jerk)
        finally:
            close(tt)

    def test_same_seed_gives_bit_identical_grids(self, system):
        a = PMForceBackend(mesh=32)
        b = PMForceBackend(mesh=32)
        a.compute(system.pos, system.vel, system.mass)
        b.compute(system.pos, system.vel, system.mass)
        assert a.last_mesh_spec == b.last_mesh_spec
        for key in a.last_grids:
            assert np.array_equal(a.last_grids[key], b.last_grids[key])

    def test_repeated_eval_is_bit_identical(self, system):
        backend = PMForceBackend(mesh=32)
        first = backend.compute(system.pos, system.vel, system.mass)
        second = backend.compute(system.pos, system.vel, system.mass)
        assert np.array_equal(first.acc, second.acc)
        assert np.array_equal(first.jerk, second.jerk)


class TestTimeline:
    def test_tt_pm_segments_cover_all_phases(self, system):
        backend = make_backend("tt-pm")
        try:
            ev = backend.compute(system.pos, system.vel, system.mass)
            tags = {s.tag for s in ev.segments}
            assert {"host", "pcie", "device", "launch"} <= tags
        finally:
            close(backend)

    def test_program_build_charged_once(self, system):
        backend = make_backend("tt-pm")
        try:
            first = backend.compute(system.pos, system.vel, system.mass)
            second = backend.compute(system.pos, system.vel, system.mass)
            # 5 cached programs x 2.5 s build cost only in the first eval
            assert first.model_seconds > second.model_seconds + 10.0
        finally:
            close(backend)

    def test_cpu_pm_is_host_only(self, system):
        ev = make_backend("cpu-pm").compute(
            system.pos, system.vel, system.mass
        )
        assert {s.tag for s in ev.segments} == {"host"}

    def test_residency_counters_accumulate(self, system):
        backend = PMForceBackend(mesh=32)
        backend.compute(system.pos, system.vel, system.mass)
        after_one = backend.residency_counters()
        backend.compute(system.pos, system.vel, system.mass)
        after_two = backend.residency_counters()
        assert after_one["green_cache_misses"] == 1
        assert after_two["green_cache_hits"] == \
            after_one["green_cache_hits"] + 1
        assert after_two["green_cache_misses"] == 1

    def test_trace_receives_residency_metrics(self, system):
        from repro.observability import Trace

        backend = make_backend("tt-pm")
        try:
            backend.trace = Trace()
            backend.compute(system.pos, system.vel, system.mass)
            counter = backend.trace.metrics.counter(
                "residency.green_cache_misses"
            )
            assert counter.value == 1
        finally:
            close(backend)


class TestSimulation:
    def test_energy_is_conserved_over_cycles(self):
        from repro.core import Simulation, energy_report

        system = uniform_sphere(512, seed=4, virial_ratio=0.5)
        before = energy_report(system)
        backend = PMForceBackend(mesh=32)
        sim = Simulation(system, backend, dt=1e-3)
        sim.run(5)
        after = energy_report(system)
        assert after.drift_from(before) < 1e-4
