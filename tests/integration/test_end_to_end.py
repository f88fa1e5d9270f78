"""Cross-layer integration tests: the paper's full pipelines."""

import numpy as np
import pytest

from repro import (
    CPUForceBackend,
    Campaign,
    CampaignSummary,
    DataFormat,
    JobSpec,
    ReferenceBackend,
    Simulation,
    TTForceBackend,
    energy_report,
    plummer,
    validate_forces,
)
from repro.metalium import CreateDevice


class TestDeviceVsCpuVsReference:
    """The paper's three-way comparison on one workload."""

    @pytest.fixture(scope="class")
    def workload(self):
        return plummer(2048, seed=11)

    @pytest.fixture(scope="class")
    def evaluations(self, workload):
        s = workload
        device = CreateDevice(0)
        tt = TTForceBackend(device, n_cores=4).compute(s.pos, s.vel, s.mass)
        cpu = CPUForceBackend(8, noisy=False).compute(s.pos, s.vel, s.mass)
        ref = ReferenceBackend().compute(s.pos, s.vel, s.mass)
        return tt, cpu, ref

    def test_both_ports_pass_paper_gates(self, workload, evaluations):
        s = workload
        tt, cpu, _ = evaluations
        assert validate_forces(s.pos, s.vel, s.mass, tt.acc, tt.jerk).passed
        assert validate_forces(s.pos, s.vel, s.mass, cpu.acc, cpu.jerk).passed

    def test_device_and_cpu_agree_with_each_other(self, evaluations):
        """Two independent mixed-precision implementations of the same
        math: they must agree to FP32 levels, not merely to the gate."""
        tt, cpu, ref = evaluations
        scale = np.abs(ref.acc).max()
        assert np.abs(tt.acc - cpu.acc).max() / scale < 1e-4

    def test_neither_port_is_bitwise_identical_to_reference(self, evaluations):
        """Mixed precision really happened (no silent fp64 path)."""
        tt, cpu, ref = evaluations
        assert not np.array_equal(tt.acc, ref.acc)
        assert not np.array_equal(cpu.acc, ref.acc)


class TestOffloadedSimulationPhysics:
    def test_cluster_evolution_on_device_matches_reference(self):
        """Integrate the same cluster with both backends; trajectories stay
        close over several dynamical steps and energy is conserved."""
        dt = 1e-3
        n_cycles = 8

        s_ref = plummer(1024, seed=12)
        s_dev = s_ref.copy()
        e0 = energy_report(s_ref)

        Simulation(s_ref, ReferenceBackend(), dt=dt).run(n_cycles)
        device = CreateDevice(0)
        Simulation(
            s_dev, TTForceBackend(device, n_cores=4), dt=dt
        ).run(n_cycles)

        assert energy_report(s_dev).drift_from(e0) < 1e-4
        # FP32 force noise grows slowly; positions stay close at this depth
        assert np.abs(s_dev.pos - s_ref.pos).max() < 1e-3

    def test_mixed_precision_host_state_stays_float64(self):
        s = plummer(1024, seed=13)
        device = CreateDevice(0)
        sim = Simulation(s, TTForceBackend(device, n_cores=2), dt=1e-3)
        sim.run(2)
        assert s.pos.dtype == np.float64
        assert s.acc.dtype == np.float64


class TestTimelineToTelemetry:
    def test_functional_timeline_feeds_power_sampling(self):
        """A functional (not analytic) run's timeline drives the sampler."""
        from repro.telemetry import (
            HostPowerModel,
            Ipmi,
            JobKind,
            JobTimeline,
            PowerSampler,
            Rapl,
            TTSMI,
        )

        s = plummer(1024, seed=14)
        device = CreateDevice(0)
        # the backend prices its own host phases: init and predict/correct
        sim = Simulation(s, TTForceBackend(device, n_cores=2), dt=1e-3)
        result = sim.run(3)
        timeline = JobTimeline(10.0, result.timeline)
        rng = np.random.default_rng(0)
        sampler = PowerSampler(
            TTSMI(4, rng), HostPowerModel(rng), Rapl(), Ipmi(rng)
        )
        rows = sampler.sample_job(
            0.0, timeline.end_time + 5.0,
            JobKind(True, 1, active_device=1), timeline,
        )
        active = [r.card_w[1] for r in rows
                  if timeline.kernel_invoked_by(r.timestamp)
                  and r.timestamp < timeline.end_time]
        assert active and max(active) > 25.0

    def test_campaign_speedup_shape_above_crossover(self):
        """Shape check: above the crossover size the device wins on both
        time and energy (below it, the fixed init and single-threaded host
        phases make the CPU faster — see the crossover ablation bench)."""
        c = Campaign(seed=15, sleep_s=10.0)
        accel = CampaignSummary.from_results(
            c.run_many(JobSpec.paper_accelerated(n_particles=61_440,
                                                 n_cycles=3), 3)
        )
        ref = CampaignSummary.from_results(
            c.run_many(JobSpec.paper_reference(n_particles=61_440,
                                               n_cycles=3), 3)
        )
        assert ref.time_stats.mean > accel.time_stats.mean
        assert ref.energy_stats.mean > accel.energy_stats.mean


class TestPrecisionAblationPath:
    def test_bf16_backend_fails_acc_gate_where_fp32_passes(self):
        """E6: the paper's FP32 choice is load-bearing — bf16 compute is
        outside the acceptance envelope."""
        s = plummer(1024, seed=16)
        dev32 = CreateDevice(0)
        dev16 = CreateDevice(1)
        r32 = TTForceBackend(dev32, n_cores=2).compute(s.pos, s.vel, s.mass)
        r16 = TTForceBackend(
            dev16, n_cores=2, fmt=DataFormat.BFLOAT16
        ).compute(s.pos, s.vel, s.mass)
        rep32 = validate_forces(s.pos, s.vel, s.mass, r32.acc, r32.jerk)
        rep16 = validate_forces(s.pos, s.vel, s.mass, r16.acc, r16.jerk)
        assert rep32.passed
        assert rep16.max_acc_error > rep32.max_acc_error * 10
        assert not rep16.acc_passed
