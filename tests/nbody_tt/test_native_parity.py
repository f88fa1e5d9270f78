"""Native-kernel parity: every C fast path is bit-identical to the
NumPy code it replaces, under both ``REPRO_NATIVE`` settings.

The bit-identity contract (same IEEE fp32 ops, same order, reductions
matching NumPy's pairwise tree) is what lets the native kernels be a pure
speed change: these tests pin it for the fused engine tile kernel, the
double-single ablation and the pairwise-sum reduction itself.

Every test starts with native kernels enabled, whatever the ambient
``REPRO_NATIVE``, and opts out explicitly where it needs the NumPy path.
"""

import numpy as np
import pytest

from repro import plummer
from repro.backends import make_backend
from repro.nbody_tt import _native
from repro.nbody_tt._native import (
    _pairwise_matches_numpy,
    native_available,
    native_ds_kernel,
    native_pairwise_sum,
    native_tile_kernel,
)
from repro.nbody_tt.ds_variant import ds_accel_jerk

pytestmark = pytest.mark.skipif(
    _native._load() is None, reason="no C toolchain for the native kernels"
)


@pytest.fixture(autouse=True)
def _native_on(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)


def _compute(backend_name, system, **options):
    backend = make_backend(backend_name, **options)
    return backend.compute(system.pos, system.vel, system.mass)


class TestPairwiseSum:
    """The C reduction reproduces NumPy's pairwise tree exactly."""

    def test_self_test_passes_for_loaded_kernel(self):
        kernels = _native._load()
        assert kernels is not None
        assert _pairwise_matches_numpy(kernels.pairwise)

    def test_matches_numpy_across_sizes(self):
        rng = np.random.default_rng(99)
        for n in (1, 7, 8, 127, 128, 129, 1024, 4096, 5000):
            values = rng.standard_normal(n).astype(np.float32) * 1e3
            got = native_pairwise_sum(values)
            assert got is not None
            assert np.float32(got) == values.sum(dtype=np.float32), n

    def test_fused_tile_kernel_gated_on_self_test(self):
        # the fused kernel only loads when the reduction self-test passed
        assert native_tile_kernel() is not None


@pytest.mark.parametrize("softening", [0.0, 0.01])
class TestDSParity:
    def test_native_matches_numpy_fallback(self, monkeypatch, softening):
        system = plummer(512, seed=21)
        state = (system.pos, system.vel, system.mass)
        assert native_ds_kernel() is not None
        fast = ds_accel_jerk(*state, softening=softening)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native_ds_kernel() is None
        slow = ds_accel_jerk(*state, softening=softening)
        for got, want in zip(fast, slow):
            assert np.array_equal(got, want, equal_nan=True)


class TestEngineFusedParity:
    def test_fused_tile_path_matches_disabled_native(self, monkeypatch):
        system = plummer(2048, seed=23)
        fast = _compute("tt", system, cores=4)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        slow = _compute("tt", system, cores=4)
        assert np.array_equal(fast.acc, slow.acc, equal_nan=True)
        assert np.array_equal(fast.jerk, slow.jerk, equal_nan=True)

    def test_sharded_uses_fused_path_identically(self, monkeypatch):
        system = plummer(4096, seed=24)
        fast = _compute("tt", system, cores=4, cards=2, workers="serial")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        slow = _compute("tt", system, cores=4, cards=2, workers="serial")
        assert np.array_equal(fast.acc, slow.acc, equal_nan=True)
        assert np.array_equal(fast.jerk, slow.jerk, equal_nan=True)


def test_loaders_honour_repro_native_zero(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert native_tile_kernel() is None
    assert native_ds_kernel() is None
    assert native_pairwise_sum(np.ones(4, dtype=np.float32)) is None
    assert not native_available()
