"""Tests for the cluster-structure diagnostics."""

import numpy as np
import pytest

from repro.core.analysis import density_center, lagrangian_radii
from repro.core.initial_conditions import plummer, uniform_sphere
from repro.core.particles import ParticleSystem
from repro.errors import NBodyError


@pytest.fixture(scope="module")
def cluster():
    return plummer(4096, seed=0)


class TestLagrangianRadii:
    def test_monotonic(self, cluster):
        r = lagrangian_radii(cluster, (0.1, 0.25, 0.5, 0.75, 0.9))
        assert np.all(np.diff(r) > 0)

    def test_plummer_half_mass_radius(self, cluster):
        """Virial-scaled Plummer: r_h ~ 1.30 a with a ~ 0.59 => ~0.77."""
        r_half = lagrangian_radii(cluster, (0.5,))[0]
        assert 0.65 < r_half < 0.9

    def test_uniform_sphere_median(self):
        s = uniform_sphere(20_000, seed=1, radius=2.0)
        r_half = lagrangian_radii(s, (0.5,))[0]
        assert r_half == pytest.approx(2.0 * 2.0 ** (-1 / 3), rel=0.05)

    def test_full_mass_radius_is_max(self, cluster):
        r_all = lagrangian_radii(cluster, (1.0,))[0]
        radii = np.linalg.norm(cluster.pos - density_center(cluster), axis=1)
        assert r_all == pytest.approx(radii.max())

    def test_validation(self, cluster):
        with pytest.raises(NBodyError):
            lagrangian_radii(cluster, ())
        with pytest.raises(NBodyError):
            lagrangian_radii(cluster, (0.0,))
        with pytest.raises(NBodyError):
            lagrangian_radii(cluster, (1.5,))


class TestDensityCenter:
    def test_near_origin_for_plummer(self, cluster):
        center = density_center(cluster)
        assert np.linalg.norm(center) < 0.1

    def test_robust_against_escaper(self):
        """One far-flung particle drags the barycentre but not the
        density centre."""
        s = plummer(2048, seed=2)
        s.pos[0] = [500.0, 0.0, 0.0]
        com_shift = np.linalg.norm(s.center_of_mass())
        dc_shift = np.linalg.norm(density_center(s))
        assert com_shift > 0.2
        assert dc_shift < 0.05

    def test_tiny_system_falls_back_to_com(self):
        s = ParticleSystem(
            np.ones(3) / 3,
            np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]),
            np.zeros((3, 3)),
        )
        assert np.allclose(density_center(s), s.center_of_mass())
