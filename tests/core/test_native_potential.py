"""The native potential kernel is bit-identical to the NumPy path.

:func:`repro.core.forces.potential_reference` runs on the C kernel of
:mod:`repro.core._native` when it loads.  The virial scaling multiplies
every initial position by ``W / -0.5``, so anything short of bitwise
equality would change the initial conditions — and with them every
bit-identity pin downstream.  These tests pin the equality over the shapes
that exercise the summation tree (leaves, row-straddling leaves, ragged
last slabs), the benchmark realisations, the fallback switches, and the
singular unsoftened case.

Every test starts with native kernels enabled, whatever the ambient
``REPRO_NATIVE``, and opts out explicitly where it needs the NumPy path.
"""

import numpy as np
import pytest

from repro.core import _native, forces
from repro.core.forces import DEFAULT_BLOCK, potential_reference
from repro.core.scenarios import make_scenario
from repro.errors import NBodyError
from repro.native import compile_library

pytestmark = pytest.mark.skipif(
    compile_library(_native._C_SOURCE, "potential") is None,
    reason="no C toolchain for the native kernels",
)


@pytest.fixture(autouse=True)
def _native_on(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)


def _system(n, seed):
    """Coordinates spread over 1e-3 to 1e3, unequal masses."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    pos = direction * 10.0 ** rng.uniform(-3.0, 3.0, n)[:, None]
    mass = rng.lognormal(0.0, 1.0, n) / n
    return pos, mass


def _native_sum(pos, mass, eps2, block):
    total = _native.native_pair_sum(pos, mass, eps2, block)
    assert total is not None, "native kernel did not load"
    return total


def test_kernel_loads_and_passes_its_self_test():
    fn = _native._load()
    assert fn is not None
    assert _native._self_test(fn)


@pytest.mark.parametrize("softening", [0.0, 0.01])
@pytest.mark.parametrize("block", [7, 64, 256])
@pytest.mark.parametrize(
    "n", [2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000]
)
def test_bitwise_equal_to_numpy(n, block, softening):
    pos, mass = _system(n, seed=1000 * n + block)
    eps2 = softening * softening
    assert _native_sum(pos, mass, eps2, block) == forces._pair_sum_numpy(
        pos, mass, eps2, block
    )


@pytest.mark.parametrize(
    "layout",
    ["float32", "fortran", "strided", "column-view"],
)
def test_public_entry_point_on_awkward_inputs(monkeypatch, layout):
    pos, mass = _system(300, seed=7)
    if layout == "float32":
        pos = pos.astype(np.float32)
    elif layout == "fortran":
        pos = np.asfortranarray(pos)
    elif layout == "strided":
        pos = np.repeat(pos, 2, axis=0)[::2]
    else:
        pos = np.hstack([pos, pos])[:, 3:]
    fast = potential_reference(pos, mass, softening=0.01, block=64)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    slow = potential_reference(pos, mass, softening=0.01, block=64)
    assert fast == slow


def test_coincident_pair_without_softening_is_minus_inf(monkeypatch):
    pos, mass = _system(40, seed=3)
    pos[17] = pos[5]
    fast = potential_reference(pos, mass, block=16)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    slow = potential_reference(pos, mass, block=16)
    assert fast == slow == -np.inf


def test_repro_native_zero_uses_numpy(monkeypatch):
    calls = []
    numpy_path = forces._pair_sum_numpy

    def spy(*args):
        calls.append(args)
        return numpy_path(*args)

    monkeypatch.setattr(forces, "_pair_sum_numpy", spy)
    pos, mass = _system(100, seed=4)
    fast = potential_reference(pos, mass)
    assert calls == []
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert _native.native_pair_sum(pos, mass, 0.0, DEFAULT_BLOCK) is None
    assert potential_reference(pos, mass) == fast
    assert len(calls) == 1


def test_failed_self_test_falls_back_to_numpy(monkeypatch):
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "_self_test", lambda fn: False)
    pos, mass = _system(100, seed=5)
    assert _native.native_pair_sum(pos, mass, 0.0, DEFAULT_BLOCK) is None
    assert potential_reference(pos, mass) == -0.5 * forces._pair_sum_numpy(
        pos, mass, 0.0, DEFAULT_BLOCK
    )


def test_block_must_be_positive():
    pos, mass = _system(10, seed=6)
    with pytest.raises(NBodyError, match="block"):
        potential_reference(pos, mass, block=0)


@pytest.mark.parametrize(
    "scenario, seed",
    [("plummer", 1), ("cluster_with_binary", 9)],
    ids=["direct-2card-seed1", "block-binary"],
)
def test_benchmark_realisations_at_n8192(monkeypatch, scenario, seed):
    """Every potential the set-up evaluates matches at full size.

    Records the positions the scenario hands to the potential — the
    pre-scaling positions its virial scaling multiplies by ``W / -0.5``
    — and compares both paths on each.
    """
    inputs = []
    original = forces.potential_reference

    def recording(pos, mass, **kwargs):
        inputs.append((np.array(pos), np.array(mass), kwargs))
        return original(pos, mass, **kwargs)

    monkeypatch.setattr(forces, "potential_reference", recording)
    make_scenario(scenario, 8192, seed)
    assert inputs
    for pos, mass, kwargs in inputs:
        assert kwargs == {}
        assert _native_sum(pos, mass, 0.0, DEFAULT_BLOCK) == (
            forces._pair_sum_numpy(pos, mass, 0.0, DEFAULT_BLOCK)
        )
