"""Tests for the simulation driver and its timeline assembly."""

import pytest

from repro.core.energy import energy_report
from repro.core.initial_conditions import plummer
from repro.core.simulation import (
    ForceEvaluation,
    HostCostModel,
    ReferenceBackend,
    Simulation,
    TimelineSegment,
)
from repro.core.timestep import SharedTimestep
from repro.errors import ConfigurationError, NBodyError


class TestConstruction:
    def test_needs_exactly_one_timestep_scheme(self):
        s = plummer(16, seed=0)
        with pytest.raises(ConfigurationError):
            Simulation(s, ReferenceBackend())
        with pytest.raises(ConfigurationError):
            Simulation(s, ReferenceBackend(), dt=0.01, timestep=SharedTimestep())

    def test_invalid_dt(self):
        s = plummer(16, seed=0)
        with pytest.raises(ConfigurationError):
            Simulation(s, ReferenceBackend(), dt=-0.1)

    def test_invalid_cycles(self):
        s = plummer(16, seed=0)
        sim = Simulation(s, ReferenceBackend(), dt=0.01)
        with pytest.raises(ConfigurationError):
            sim.run(0)


class TestPhysics:
    def test_energy_conservation_fixed_dt(self):
        s = plummer(128, seed=1)
        e0 = energy_report(s)
        sim = Simulation(s, ReferenceBackend(softening=0.01), dt=0.001)
        result = sim.run(50)
        e1 = energy_report(result.system)
        # softened system: compare against the softened-force dynamics; the
        # unsoftened energy still drifts only slightly at this dt
        assert e1.drift_from(e0) < 5e-4

    def test_energy_conservation_adaptive(self):
        s = plummer(128, seed=2)
        e0 = energy_report(s)
        sim = Simulation(
            s, ReferenceBackend(),
            timestep=SharedTimestep(eta=0.005, eta_start=0.0025),
        )
        result = sim.run(30)
        e1 = energy_report(result.system)
        assert e1.drift_from(e0) < 1e-6
        assert all(c.dt > 0 for c in result.cycles)

    def test_time_advances(self):
        s = plummer(32, seed=3)
        sim = Simulation(s, ReferenceBackend(), dt=0.01)
        result = sim.run(10)
        assert result.system.time == pytest.approx(0.1)
        assert [c.index for c in result.cycles] == list(range(10))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detected(self):
        """A dt large enough to overflow the predictor is caught."""
        s = plummer(32, seed=4)
        sim = Simulation(s, ReferenceBackend(), dt=1e150)
        with pytest.raises(NBodyError, match="non-finite|singular"):
            sim.run(1)


class TestTimeline:
    def test_reference_backend_has_no_model_time(self):
        s = plummer(16, seed=5)
        sim = Simulation(s, ReferenceBackend(), dt=0.01)
        result = sim.run(3)
        assert result.model_seconds == 0.0
        assert result.timeline == []

    @staticmethod
    def _priced_reference(**host_cost):
        backend = ReferenceBackend()
        backend.host_cost = HostCostModel(**host_cost)
        return backend

    def test_host_cost_model_segments(self):
        s = plummer(16, seed=6)
        backend = self._priced_reference(
            seconds_per_particle_cycle=1e-3, init_seconds=2.0
        )
        sim = Simulation(s, backend, dt=0.01)
        result = sim.run(4)
        by_tag = result.seconds_by_tag()
        # init + 4 cycles * 16 particles * 1e-3
        assert by_tag["host"] == pytest.approx(2.0 + 4 * 16 * 1e-3)
        details = [seg.detail for seg in result.timeline]
        assert details[0] == "init"
        assert details.count("predict") == 4
        assert details.count("correct") == 4

    def test_backend_segments_interleaved(self):
        """Backend device segments land between predict and correct."""

        class FakeBackend:
            name = "fake"
            host_cost = HostCostModel(seconds_per_particle_cycle=1e-3)

            def compute(self, pos, vel, mass):
                from repro.core.forces import accel_jerk_reference

                acc, jerk = accel_jerk_reference(pos, vel, mass, softening=0.1)
                return ForceEvaluation(
                    acc, jerk,
                    segments=(TimelineSegment("device", 1.5, "force"),),
                )

        s = plummer(16, seed=7)
        sim = Simulation(s, FakeBackend(), dt=0.01)
        result = sim.run(2)
        tags = [seg.tag for seg in result.timeline]
        # init eval produces one device segment, then per cycle host/device/host
        assert tags == ["device", "host", "device", "host",
                        "host", "device", "host"]
        assert result.seconds_by_tag()["device"] == pytest.approx(4.5)
        assert result.backend_name == "fake"

    def test_cycle_records_model_seconds(self):
        s = plummer(16, seed=8)
        backend = self._priced_reference(seconds_per_particle_cycle=1e-3)
        sim = Simulation(s, backend, dt=0.01)
        result = sim.run(2)
        for c in result.cycles:
            assert c.model_seconds == pytest.approx(16 * 1e-3)

    def test_per_cycle_host_cost_splits_over_predict_and_correct(self):
        """predict = ½·(k + c·N), correct = ½·(k + c·N_moved)."""
        s = plummer(16, seed=9)
        backend = self._priced_reference(
            seconds_per_particle_cycle=1e-3, seconds_per_cycle=0.5
        )
        result = Simulation(s, backend, dt=0.01).run(2)
        host = [seg for seg in result.timeline if seg.tag == "host"]
        assert [seg.detail for seg in host] == ["predict", "correct"] * 2
        for seg in host:
            assert seg.seconds == pytest.approx(0.5 * (0.5 + 16 * 1e-3))
