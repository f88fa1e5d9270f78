"""Tests for the Aarseth timestep criteria."""

import numpy as np
import pytest

from repro.core.timestep import SharedTimestep, aarseth_timestep, initial_timestep
from repro.errors import IntegratorError


class TestInitial:
    def test_scales_linearly_with_eta(self):
        acc = np.array([[1.0, 0, 0]])
        jerk = np.array([[0.0, 2.0, 0]])
        dt1 = initial_timestep(acc, jerk, eta=0.01)
        dt2 = initial_timestep(acc, jerk, eta=0.02)
        assert dt2 == pytest.approx(2.0 * dt1)
        assert dt1[0] == pytest.approx(0.01 * 1.0 / 2.0)

    def test_zero_jerk_does_not_blow_up(self):
        dt = initial_timestep(np.ones((1, 3)), np.zeros((1, 3)))
        assert np.isfinite(dt[0]) and dt[0] > 0

    def test_eta_validation(self):
        with pytest.raises(IntegratorError):
            initial_timestep(np.ones((1, 3)), np.ones((1, 3)), eta=0.0)


class TestAarseth:
    def test_dimensional_consistency(self):
        """Scaling time by k scales each derivative by k^-(order+1) and the
        criterion's dt by k."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 3))
        j = rng.normal(size=(5, 3))
        s = rng.normal(size=(5, 3))
        c = rng.normal(size=(5, 3))
        dt = aarseth_timestep(a, j, s, c)
        k = 3.0
        dt_scaled = aarseth_timestep(a / k, j / k**2, s / k**3, c / k**4)
        assert np.allclose(dt_scaled, k * dt)

    def test_eta_sqrt_scaling(self):
        rng = np.random.default_rng(1)
        arrs = [rng.normal(size=(4, 3)) for _ in range(4)]
        dt1 = aarseth_timestep(*arrs, eta=0.01)
        dt4 = aarseth_timestep(*arrs, eta=0.04)
        assert np.allclose(dt4, 2.0 * dt1)

    def test_eta_validation(self):
        z = np.ones((1, 3))
        with pytest.raises(IntegratorError):
            aarseth_timestep(z, z, z, z, eta=-1.0)


class TestShared:
    def test_validation(self):
        with pytest.raises(IntegratorError):
            SharedTimestep(dt_min=0.1, dt_max=0.01)

    def test_first_uses_min_over_particles(self):
        acc = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        jerk = np.array([[0.0, 1.0, 0], [0.0, 10.0, 0]])
        ts = SharedTimestep(eta_start=0.01, dt_min=1e-10)
        assert ts.first(acc, jerk) == pytest.approx(0.001)

    def test_clipping(self):
        acc = np.ones((1, 3)) * 1e-20
        jerk = np.ones((1, 3))
        ts = SharedTimestep(dt_min=1e-4, dt_max=0.125)
        assert ts.first(acc, jerk) == ts.dt_min
        big_acc = np.ones((1, 3)) * 1e20
        small = np.ones((1, 3)) * 1e-20
        assert ts.next(big_acc, small, small, small) == ts.dt_max
