"""The native near field: bit-identical to the NumPy path, or not used.

The kernel of :mod:`repro.nbody_pm._native` must reproduce the NumPy
path of :func:`~repro.nbody_pm.shortrange.near_field_correction` bit for
bit — ``acc``, ``jerk`` and the pair count, with and without ``targets``,
softened and unsoftened — and ``REPRO_NATIVE=0``, a missing compiler or
a failed self-test must each leave the NumPy path in use.  Tests that
compare the two paths turn the kernel on themselves, so they also run in
CI's ``REPRO_NATIVE=0`` fallback step.
"""

import numpy as np
import pytest

from repro.core import plummer, uniform_sphere
from repro.nbody_pm import _native, shortrange
from repro.nbody_pm.mesh import MeshSpec


@pytest.fixture
def native_on(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)


@pytest.fixture
def fresh_load(monkeypatch):
    """Forget the loaded kernel, so the next call loads it again."""
    monkeypatch.setattr(_native, "_kernels", None)
    monkeypatch.setattr(_native, "_load_attempted", False)


@pytest.fixture
def numpy_calls(monkeypatch):
    calls = []
    numpy_path = shortrange._near_numpy

    def spy(*args, **kwargs):
        calls.append(1)
        return numpy_path(*args, **kwargs)

    monkeypatch.setattr(shortrange, "_near_numpy", spy)
    return calls


def _system(kind: str, n: int, seed: int):
    system = (uniform_sphere if kind == "sphere" else plummer)(n, seed=seed)
    vel = system.vel + np.random.default_rng(seed).standard_normal(
        system.vel.shape
    ) * 0.1
    spec = MeshSpec.fit(system.pos, 32)
    r_cut = 2.5 * spec.spacing
    return system.pos, vel, system.mass, r_cut, r_cut / 5.0


def _both_paths(monkeypatch, pos, vel, mass, **kw):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    want = shortrange.near_field_correction(pos, vel, mass, **kw)
    monkeypatch.delenv("REPRO_NATIVE")
    got = shortrange.near_field_correction(pos, vel, mass, **kw)
    return want, got


def test_kernel_loads_and_passes_its_self_test(native_on):
    kernels = _native._load()
    if kernels is None:
        pytest.skip("no C compiler on this host")
    assert _native._self_test(kernels)


@pytest.mark.parametrize("kind, n, seed", [
    ("sphere", 3000, 1), ("plummer", 2500, 2),
])
@pytest.mark.parametrize("softening", [0.0, 0.02])
@pytest.mark.parametrize("with_targets", [False, True])
def test_bitwise_equal_to_numpy(monkeypatch, numpy_calls, kind, n, seed,
                                softening, with_targets):
    if _native._load() is None:
        pytest.skip("no C compiler on this host")
    pos, vel, mass, r_cut, split = _system(kind, n, seed)
    targets = None
    if with_targets:
        targets = np.sort(np.random.default_rng(seed).choice(
            n, n // 5, replace=False))
    want, got = _both_paths(
        monkeypatch, pos, vel, mass, r_cut=r_cut, split_scale=split,
        softening=softening, targets=targets,
    )
    assert numpy_calls == [1]  # the second call ran the kernel
    assert want[2] == got[2] > 0
    assert np.array_equal(want[0], got[0])
    assert np.array_equal(want[1], got[1])


def test_small_chunks_resume_in_order(native_on):
    """Chunk boundaries fall mid-cell; the result must not move."""
    kernels = _native._load()
    if kernels is None:
        pytest.skip("no C compiler on this host")
    pos, vel, mass, r_cut, split = _system("plummer", 400, 5)
    cells = shortrange._bin_cells(pos, r_cut)
    kw = dict(r_cut=r_cut, split_scale=split, softening=0.0, G=1.0)
    results = []
    for chunk in (5, 13, _native._CHUNK):
        acc, jerk = np.zeros((400, 3)), np.zeros((400, 3))
        count = _native._call(kernels, pos, vel, mass, cells, None,
                              acc=acc, jerk=jerk, chunk=chunk, **kw)
        results.append((count, acc.tobytes(), jerk.tobytes()))
    assert results[0] == results[1] == results[2]


def test_repro_native_zero_uses_numpy(monkeypatch, numpy_calls):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    pos, vel, mass, r_cut, split = _system("sphere", 500, 3)
    shortrange.near_field_correction(pos, vel, mass, r_cut=r_cut,
                                     split_scale=split)
    assert numpy_calls == [1]


def test_missing_compiler_falls_back_to_numpy(monkeypatch, native_on,
                                              fresh_load, numpy_calls):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    pos, vel, mass, r_cut, split = _system("sphere", 500, 3)
    shortrange.near_field_correction(pos, vel, mass, r_cut=r_cut,
                                     split_scale=split)
    assert _native._kernels is None
    assert numpy_calls == [1]


def test_failed_self_test_falls_back_to_numpy(monkeypatch, native_on,
                                              fresh_load, numpy_calls):
    monkeypatch.setattr(_native, "_self_test", lambda kernels: False)
    pos, vel, mass, r_cut, split = _system("sphere", 500, 3)
    shortrange.near_field_correction(pos, vel, mass, r_cut=r_cut,
                                     split_scale=split)
    assert _native._kernels is None
    assert numpy_calls == [1]
