"""Tests for initial-condition generators."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.energy import energy_report
from repro.core.initial_conditions import (
    binary,
    cluster_with_binary,
    hernquist,
    plummer,
    uniform_sphere,
)
from repro.errors import ConfigurationError

_SRC = Path(__file__).resolve().parents[2] / "src"


class TestPlummer:
    def test_henon_units(self):
        s = plummer(512, seed=0)
        assert s.total_mass == pytest.approx(1.0)
        rep = energy_report(s)
        assert rep.total == pytest.approx(-0.25, rel=1e-10)
        assert rep.virial_ratio == pytest.approx(0.5, rel=1e-10)

    def test_barycentric(self):
        s = plummer(256, seed=1)
        assert np.allclose(s.center_of_mass(), 0.0, atol=1e-12)
        assert np.allclose(s.center_of_mass_velocity(), 0.0, atol=1e-12)

    def test_reproducible(self):
        a = plummer(128, seed=42)
        b = plummer(128, seed=42)
        assert np.array_equal(a.pos, b.pos) and np.array_equal(a.vel, b.vel)
        c = plummer(128, seed=43)
        assert not np.array_equal(a.pos, c.pos)

    def test_cutoff_respected(self):
        s = plummer(2048, seed=2, virial_scaled=False)
        radii = np.linalg.norm(s.pos - s.center_of_mass(), axis=1)
        assert radii.max() < 22.8 * 1.01

    def test_half_mass_radius_plummer_profile(self):
        """Plummer half-mass radius ~ 1.30 a; in virial units r_h ~ 0.77."""
        s = plummer(8192, seed=3)
        radii = np.sort(np.linalg.norm(s.pos, axis=1))
        r_half = radii[len(radii) // 2]
        assert 0.6 < r_half < 0.95

    def test_minimum_n(self):
        with pytest.raises(ConfigurationError):
            plummer(1)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0])
    def test_nonpositive_cutoff_rejected(self, cutoff):
        """No radius falls under such a cutoff, so resampling would never
        end.  Runs in a child with a timeout: a regression fails here
        instead of hanging the suite."""
        script = (
            "from repro.core.initial_conditions import plummer\n"
            "from repro.errors import ConfigurationError\n"
            "try:\n"
            f"    plummer(256, seed=1, cutoff_radius={cutoff!r})\n"
            "except ConfigurationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('plummer accepted the cutoff')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("cutoff", [1e-2, 1e-6])
    def test_small_cutoff_returns(self, cutoff):
        """A draw used to land inside a cutoff c with probability ~c^3, so
        a small cutoff never finished.  Every raw radius is below c, so the
        centre-of-mass shift is too and each particle lies within 2c."""
        script = (
            "import time\n"
            "import numpy as np\n"
            "from repro.core.initial_conditions import plummer\n"
            "start = time.perf_counter()\n"
            "s = plummer(256, seed=1, virial_scaled=False, "
            f"cutoff_radius={cutoff!r})\n"
            "elapsed = time.perf_counter() - start\n"
            "assert elapsed < 10.0, elapsed\n"
            "r = np.linalg.norm(s.pos - s.center_of_mass(), axis=1)\n"
            f"assert r.max() < 2 * {cutoff!r}, r.max()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_default_cutoff_keeps_its_stream(self):
        s = plummer(8192, seed=1)
        digest = hashlib.sha256(s.pos.tobytes() + s.vel.tobytes())
        assert digest.hexdigest().startswith("d697e62f23d9cd4c")


class TestUniformSphere:
    def test_cold_by_default(self):
        s = uniform_sphere(256, seed=0)
        assert np.all(s.vel == 0.0)
        assert s.total_mass == pytest.approx(1.0)

    def test_density_uniform(self):
        s = uniform_sphere(20000, seed=1, radius=1.0)
        radii = np.linalg.norm(s.pos - s.center_of_mass(), axis=1)
        # M(<r) ~ r^3: the median radius of a uniform sphere is 2^{-1/3}
        assert np.median(radii) == pytest.approx(2.0 ** (-1 / 3), rel=0.03)

    def test_virial_ratio_setting(self):
        s = uniform_sphere(512, seed=2, virial_ratio=0.5)
        rep = energy_report(s)
        assert rep.virial_ratio == pytest.approx(0.5, rel=1e-8)

    def test_invalid_virial_ratio(self):
        with pytest.raises(ConfigurationError):
            uniform_sphere(16, virial_ratio=1.5)


class TestHernquist:
    def test_mass_and_frame(self):
        s = hernquist(1024, seed=0)
        assert s.total_mass == pytest.approx(1.0)
        assert np.allclose(s.center_of_mass(), 0.0, atol=1e-12)

    def test_cuspier_than_plummer(self):
        """Hernquist has far more mass inside small radii than Plummer."""
        h = hernquist(8192, seed=1)
        p = plummer(8192, seed=1)
        rh = np.linalg.norm(h.pos, axis=1)
        rp = np.linalg.norm(p.pos, axis=1)
        frac_h = np.mean(rh < 0.1)
        frac_p = np.mean(rp < 0.1)
        assert frac_h > 2.0 * frac_p

    def test_roughly_bound(self):
        s = hernquist(2048, seed=2)
        rep = energy_report(s)
        assert rep.total < 0.0
        assert 0.2 < rep.virial_ratio < 0.9


class TestBinary:
    def test_circular_equal_mass(self):
        b = binary(semi_major_axis=1.0)
        assert b.total_mass == pytest.approx(1.0)
        assert np.linalg.norm(b.pos[1] - b.pos[0]) == pytest.approx(1.0)
        # Kepler: E = -m1 m2 / (2a) with m1 = m2 = 1/2, a = 1
        rep = energy_report(b)
        assert rep.total == pytest.approx(-0.125, rel=1e-12)

    def test_kepler_energy_any_eccentricity(self):
        for e in (0.0, 0.5, 0.9):
            b = binary(semi_major_axis=0.1, eccentricity=e, mass_ratio=3.0)
            rep = energy_report(b)
            m1, m2 = b.mass
            expected = -m1 * m2 / (2.0 * 0.1)
            assert rep.total == pytest.approx(expected, rel=1e-12), e

    def test_barycentric(self):
        b = binary(mass_ratio=4.0, eccentricity=0.3)
        assert np.allclose(b.center_of_mass(), 0.0, atol=1e-15)
        assert np.allclose(b.center_of_mass_velocity(), 0.0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            binary(eccentricity=1.0)
        with pytest.raises(ConfigurationError):
            binary(mass_ratio=-1.0)
        with pytest.raises(ConfigurationError):
            binary(semi_major_axis=0.0)


class TestClusterWithBinary:
    def test_composition(self):
        s = cluster_with_binary(100, seed=0, binary_mass_fraction=0.05)
        assert s.n == 102
        assert s.total_mass == pytest.approx(1.0)
        assert s.mass[0] + s.mass[1] == pytest.approx(0.05)
        assert np.allclose(s.center_of_mass(), 0.0, atol=1e-12)

    def test_binary_is_hard(self):
        """The embedded binary's internal orbital speed far exceeds the
        cluster velocity dispersion (it is a *hard* binary)."""
        s = cluster_with_binary(500, seed=1, semi_major_axis=0.001)
        v_rel = np.linalg.norm(s.vel[1] - s.vel[0])
        sigma = np.std(np.linalg.norm(s.vel[2:], axis=1))
        assert v_rel > 3.0 * sigma

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cluster_with_binary(100, binary_mass_fraction=0.0)
        with pytest.raises(ConfigurationError):
            cluster_with_binary(1)
