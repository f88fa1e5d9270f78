"""Tests for the block-timestep Hermite and leapfrog integrators."""

import numpy as np
import pytest

from repro.core.block_hermite import BlockHermiteIntegrator
from repro.core.energy import energy_report
from repro.core.forces import accel_jerk_on_targets, accel_jerk_reference
from repro.core.hermite import correct
from repro.core.initial_conditions import binary, plummer
from repro.core.leapfrog import LeapfrogDriver, leapfrog_step
from repro.core.simulation import ReferenceBackend, Simulation
from repro.errors import ConfigurationError, NBodyError
from repro.observability import Trace


class TestAccelJerkOnTargets:
    def test_matches_full_evaluation(self):
        s = plummer(128, seed=0)
        acc_full, jerk_full = accel_jerk_reference(s.pos, s.vel, s.mass)
        targets = np.array([3, 17, 55, 100])
        acc, jerk = accel_jerk_on_targets(s.pos, s.vel, s.mass, targets)
        assert np.allclose(acc, acc_full[targets], rtol=1e-13)
        assert np.allclose(jerk, jerk_full[targets], rtol=1e-13)

    def test_all_targets_equals_reference(self):
        s = plummer(64, seed=1)
        acc_full, jerk_full = accel_jerk_reference(s.pos, s.vel, s.mass)
        acc, jerk = accel_jerk_on_targets(
            s.pos, s.vel, s.mass, np.arange(64)
        )
        assert np.allclose(acc, acc_full, rtol=1e-13)
        assert np.allclose(jerk, jerk_full, rtol=1e-13)

    def test_validation(self):
        s = plummer(16, seed=2)
        with pytest.raises(NBodyError):
            accel_jerk_on_targets(s.pos, s.vel, s.mass, np.array([], int))
        with pytest.raises(NBodyError):
            accel_jerk_on_targets(s.pos, s.vel, s.mass, np.array([99]))


class TestBlockHermite:
    def test_energy_conservation(self):
        s = plummer(256, seed=3)
        e0 = energy_report(s)
        BlockHermiteIntegrator(
            s, ReferenceBackend(), dt=0.25, eta=0.01, eta_start=0.005
        ).run(1)
        assert energy_report(s).drift_from(e0) < 1e-7

    def test_momentum_conservation(self):
        """Block schemes pair forces against *predicted* partners, so
        Newton's third law holds only to the scheme's order — momentum
        drifts at the truncation level, not round-off."""
        s = plummer(128, seed=4)
        p0 = (s.mass[:, None] * s.vel).sum(axis=0)
        BlockHermiteIntegrator(s, ReferenceBackend(), dt=0.2, eta=0.02).run(1)
        p1 = (s.mass[:, None] * s.vel).sum(axis=0)
        assert np.allclose(p0, p1, atol=1e-6)
        assert not np.allclose(p0, p1, atol=1e-12)  # genuinely block-paired

    def test_saves_force_evaluations_vs_shared(self):
        """The point of block steps: far fewer pairwise evaluations than a
        shared-step run resolving the same fastest particle."""
        s = plummer(256, seed=5)
        integ = BlockHermiteIntegrator(
            s, ReferenceBackend(), dt=0.2, eta=0.01, eta_start=0.005
        )
        integ.run(1)
        shared_equivalent = integ.stats.block_steps * s.n * s.n
        assert integ.stats.force_pair_evaluations < shared_equivalent / 4

    def test_levels_form_a_hierarchy(self):
        s = plummer(256, seed=6)
        integ = BlockHermiteIntegrator(s, ReferenceBackend(), dt=0.1, eta=0.01)
        integ.run(1)
        levels = sorted(integ.stats.level_histogram)
        assert len(levels) >= 3  # genuinely multi-rate
        assert all(level >= 0 for level in levels)

    def test_block_times_stay_on_hierarchy(self):
        s = plummer(64, seed=7)
        integ = BlockHermiteIntegrator(
            s, ReferenceBackend(), dt=0.25, dt_max=0.0625
        )
        cycles = integ.run(1).cycles
        assert len(cycles) >= 40
        for record in cycles:
            # time is an exact multiple of the finest active level
            ratio = record.time / (0.0625 / 2.0**40)
            assert abs(ratio - round(ratio)) < 1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: fp32 cancellation in the binary's position "
        "difference pushes it 4-5 block levels deeper than float64"
    ))
    @pytest.mark.parametrize("name", ["cpu", "tt"])
    def test_fp32_block_steps_track_float64(self, name):
        """The goal of ROADMAP item 1: block-step counts are a property of
        the physics, so an fp32 backend takes float64's count within 10%.
        Today cpu and tt take 125 steps where float64 takes 11."""
        from repro.backends import RunSpec

        def block_steps(backend):
            sim = RunSpec(
                n=2048, cycles=1, dt=1e-3, seed=1, backend=backend,
                scenario="cluster_with_binary",
                integrator={"name": "block-hermite",
                            "options": {"eta": 0.01, "dt_max": 0.0625}},
            ).make_simulation()
            sim.run(1)
            return sim.stats.block_steps

        want = block_steps("reference")
        got = block_steps(name)
        assert abs(got - want) <= 0.1 * want, (
            f"{name} (fp32) took {got} block steps, float64 {want}"
        )

    def test_binary_gets_finer_steps_than_field(self):
        """A hard binary in a cluster forces deep levels for its members
        while field stars stay shallow."""
        from repro.core.initial_conditions import cluster_with_binary

        s = cluster_with_binary(126, seed=8, semi_major_axis=0.002)
        integ = BlockHermiteIntegrator(
            s, ReferenceBackend(), dt=1e-3, eta=0.02, eta_start=0.01
        )
        integ.initialise()
        binary_levels = integ._level[:2]
        field_levels = integ._level[2:]
        assert binary_levels.min() > np.median(field_levels) + 2

    def test_block_members_corrected_over_their_own_intervals(self):
        """Particles due together at levels 30 and 29 were last updated
        2^-34 and 2^-33 ago; each must be corrected over its own interval,
        not merged into one because the two differ by less than 1e-8."""
        s = plummer(8, seed=0)
        integ = BlockHermiteIntegrator(s, ReferenceBackend(), dt=2.0**-34)
        integ.initialise()
        t_block = 1.0
        integ._level[:] = 0
        integ._t[:] = t_block - 0.03125  # due later, at t_block + 0.03125
        integ._level[:2] = [30, 29]
        integ._t[:2] = [t_block - 2.0**-34, t_block - 2.0**-33]
        s.time = t_block - 2.0**-34
        start = s.copy()

        # predict every particle to the block time; forces on the block
        interval = (t_block - integ._t)[:, None]
        pos_p = (start.pos + interval * start.vel
                 + interval**2 / 2.0 * start.acc
                 + interval**3 / 6.0 * start.jerk)
        vel_p = (start.vel + interval * start.acc
                 + interval**2 / 2.0 * start.jerk)
        forces = ReferenceBackend().compute_on_targets(
            pos_p, vel_p, s.mass, np.array([0, 1])
        )
        expected = [
            correct(start.pos[[i]], start.vel[[i]], start.acc[[i]],
                    start.jerk[[i]], forces.acc[[i]], forces.jerk[[i]],
                    float(interval[i, 0]))
            for i in (0, 1)
        ]

        cycles = integ.run(1).cycles
        assert [c.time for c in cycles] == [t_block]
        for i in (0, 1):
            assert np.array_equal(s.pos[i], expected[i].pos[0])
            assert np.array_equal(s.vel[i], expected[i].vel[0])

    def test_run_validation(self):
        s = plummer(32, seed=9)
        integ = BlockHermiteIntegrator(s, ReferenceBackend(), dt=1e-3)
        with pytest.raises(ConfigurationError):
            integ.run(0)

    def test_constructor_validation(self):
        s = plummer(32, seed=10)
        backend = ReferenceBackend()
        with pytest.raises(ConfigurationError):
            BlockHermiteIntegrator(s, backend, dt=1e-3, eta=-1.0)
        with pytest.raises(ConfigurationError):
            BlockHermiteIntegrator(s, backend, dt=1e-3, dt_max=0.0)
        with pytest.raises(ConfigurationError):
            BlockHermiteIntegrator(s, backend, dt=0.0)

    def test_matches_shared_step_trajectory(self):
        """On a short window the block scheme tracks the shared-step
        Hermite solution."""
        s_block = plummer(128, seed=11)
        s_shared = s_block.copy()
        BlockHermiteIntegrator(
            s_block, ReferenceBackend(), dt=0.05, eta=0.005, eta_start=0.0025
        ).run(1)
        t_end = s_block.time
        n_steps = 200
        Simulation(s_shared, ReferenceBackend(), dt=t_end / n_steps).run(n_steps)
        assert np.abs(s_block.pos - s_shared.pos).max() < 1e-6


class TestLeapfrog:
    def evaluate_acc_factory(self, mass):
        def evaluate(pos, vel):
            acc, _ = accel_jerk_reference(pos, vel, mass)
            return acc
        return evaluate

    def test_second_order_convergence(self):
        """KDK is symplectic: the energy error oscillates within a bounded
        envelope that shrinks as dt^2 (measured as the max over an orbit —
        at period end the error returns to round-off)."""
        b = binary(semi_major_axis=1.0, eccentricity=0.6)
        evaluate = self.evaluate_acc_factory(b.mass)
        period = 2.0 * np.pi

        def max_energy_error(n_steps):
            pos, vel = b.pos.copy(), b.vel.copy()
            acc = evaluate(pos, vel)
            dt = period / n_steps
            worst = 0.0
            for _ in range(n_steps):
                pos, vel, acc = leapfrog_step(pos, vel, acc, dt, evaluate)
                ke = 0.5 * (b.mass[:, None] * vel**2).sum()
                pe = -b.mass[0] * b.mass[1] / np.linalg.norm(pos[1] - pos[0])
                worst = max(worst, abs((ke + pe) - (-0.125)))
            return worst

        e1, e2 = max_energy_error(256), max_energy_error(512)
        assert 3.0 < e1 / e2 < 5.5

    def test_symplectic_energy_returns_at_period_end(self):
        """After a whole orbit the leapfrog's energy error nearly cancels —
        the signature of a symplectic scheme."""
        b = binary(semi_major_axis=1.0, eccentricity=0.6)
        evaluate = self.evaluate_acc_factory(b.mass)
        n_steps = 512
        dt = 2.0 * np.pi / n_steps
        pos, vel = b.pos.copy(), b.vel.copy()
        acc = evaluate(pos, vel)
        worst = 0.0
        for _ in range(n_steps):
            pos, vel, acc = leapfrog_step(pos, vel, acc, dt, evaluate)
            ke = 0.5 * (b.mass[:, None] * vel**2).sum()
            pe = -b.mass[0] * b.mass[1] / np.linalg.norm(pos[1] - pos[0])
            worst = max(worst, abs(ke + pe + 0.125))
        final = abs(ke + pe + 0.125)
        assert final < worst / 100

    def test_hermite_beats_leapfrog_at_equal_evals(self):
        """What the jerk buys: Hermite's error is orders of magnitude
        smaller at the same number of force evaluations."""
        s_lf = plummer(128, seed=12)
        s_h = s_lf.copy()
        e0 = energy_report(s_lf)
        n_steps = 50
        dt = 2e-3
        LeapfrogDriver(s_lf, ReferenceBackend(), dt=dt).run(n_steps)
        Simulation(s_h, ReferenceBackend(), dt=dt).run(n_steps)
        err_lf = energy_report(s_lf).drift_from(e0)
        err_h = energy_report(s_h).drift_from(e0)
        assert err_h < err_lf / 100

    def test_backend_reuse(self):
        """The same Wormhole backend drives the leapfrog (jerk ignored)."""
        from repro.metalium import CreateDevice
        from repro.nbody_tt import TTForceBackend

        s = plummer(1024, seed=13)
        e0 = energy_report(s)
        device = CreateDevice(0)
        trace = Trace()
        result = LeapfrogDriver(
            s, TTForceBackend(device, n_cores=2), dt=1e-3, trace=trace
        ).run(5)
        assert energy_report(s).drift_from(e0) < 1e-4
        assert len(trace.find("force")) == 6  # init + 5 steps
        assert any(seg.tag == "device" for seg in result.timeline)

    def test_validation(self):
        s = plummer(16, seed=14)
        with pytest.raises(ConfigurationError):
            LeapfrogDriver(s, ReferenceBackend(), dt=0.0)
        sim = LeapfrogDriver(s, ReferenceBackend(), dt=0.01)
        with pytest.raises(ConfigurationError):
            sim.run(0)
