"""Integration tests: snapshot restarts and long multi-layer pipelines."""

import numpy as np
import pytest

from repro import (
    ReferenceBackend,
    Simulation,
    TTForceBackend,
    energy_report,
    plummer,
)
from repro.core import BlockHermiteIntegrator, load_npz, save_npz
from repro.metalium import CreateDevice


class TestSnapshotRestart:
    def test_restart_is_bitwise_identical(self, tmp_path):
        """Stopping, snapshotting, reloading, and continuing reproduces the
        uninterrupted run exactly — acc and jerk are part of the state, so
        the Hermite integrator resumes without re-priming."""
        dt = 1e-3

        # uninterrupted: 6 cycles
        s_full = plummer(256, seed=20)
        sim_full = Simulation(s_full, ReferenceBackend(), dt=dt)
        sim_full.run(6)

        # interrupted: 3 cycles, snapshot, reload, 3 more
        s_part = plummer(256, seed=20)
        sim_part = Simulation(s_part, ReferenceBackend(), dt=dt)
        sim_part.run(3)
        path = tmp_path / "restart.npz"
        save_npz(path, s_part)
        s_resumed = load_npz(path)
        sim_resumed = Simulation(s_resumed, ReferenceBackend(), dt=dt)
        # the snapshot carries acc/jerk: skip the initial force evaluation
        sim_resumed._initialised = True
        sim_resumed.run(3)

        assert s_resumed.time == pytest.approx(s_full.time)
        assert np.array_equal(s_resumed.pos, s_full.pos)
        assert np.array_equal(s_resumed.vel, s_full.vel)

    def test_restart_on_device_backend(self, tmp_path):
        """The same restart flow with forces on the simulated Wormhole."""
        dt = 1e-3
        device = CreateDevice(0)
        backend = TTForceBackend(device, n_cores=2)

        s_full = plummer(1024, seed=21)
        Simulation(s_full, backend, dt=dt).run(4)

        s_part = plummer(1024, seed=21)
        sim = Simulation(s_part, backend, dt=dt)
        sim.run(2)
        path = tmp_path / "dev_restart.npz"
        save_npz(path, s_part)
        s_resumed = load_npz(path)
        sim2 = Simulation(s_resumed, backend, dt=dt)
        sim2._initialised = True
        sim2.run(2)

        assert np.array_equal(s_resumed.pos, s_full.pos)


class TestLongPipelines:
    def test_fp32_noise_contaminates_aarseth_criterion(self):
        """A mixed-precision interaction the reproduction surfaces: the
        Aarseth criterion reconstructs snap and crackle by dividing force
        differences by dt^2 and dt^3, so the FP32 device kernel's ~1e-5
        force noise inflates them and drags the adaptive step well below
        the reference sequence.  The noise-robust 'simple' criterion
        (eta |a|/|j|) restores agreement — the standard mitigation for
        single-precision force kernels."""
        from repro.core import SharedTimestep

        device = CreateDevice(0)

        def dt_sequence(backend, criterion):
            s = plummer(1024, seed=22)
            sim = Simulation(
                s, backend,
                timestep=SharedTimestep(
                    eta=0.01, eta_start=0.005, criterion=criterion
                ),
            )
            return np.array([c.dt for c in sim.run(5).cycles])

        dev_backend = TTForceBackend(device, n_cores=4)
        aarseth_dev = dt_sequence(dev_backend, "aarseth")
        aarseth_ref = dt_sequence(ReferenceBackend(), "aarseth")
        simple_dev = dt_sequence(dev_backend, "simple")
        simple_ref = dt_sequence(ReferenceBackend(), "simple")

        # the contamination: device steps collapse vs the reference
        assert aarseth_dev[1:].mean() < 0.6 * aarseth_ref[1:].mean()
        # the mitigation: noise-robust criterion agrees across backends
        assert np.allclose(simple_dev, simple_ref, rtol=1e-3)

    def test_simple_criterion_validation(self):
        from repro.core import SharedTimestep
        from repro.errors import IntegratorError

        with pytest.raises(IntegratorError, match="criterion"):
            SharedTimestep(criterion="magic")

    def test_block_integrator_with_mixed_precision_force(self):
        """Block timesteps driven by a mixed-precision force: the cpu
        backend runs the cpuref SIMD kernel on the active rows only."""
        from repro.backends import make_backend

        s = plummer(128, seed=23)
        e0 = energy_report(s)
        BlockHermiteIntegrator(
            s, make_backend("cpu"), dt=0.05, eta=0.01, eta_start=0.005
        ).run(1)
        assert energy_report(s).drift_from(e0) < 1e-5
