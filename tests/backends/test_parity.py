"""Every registered backend stays inside the paper's accuracy gates.

The gate is the paper's validation criterion: per-component relative
error within 0.05% for acceleration and 0.2% for jerk against the
float64 golden reference (``validate_forces`` encodes the thresholds).
"""

import pytest

from repro.backends import BACKENDS, make_backend
from repro.core import plummer, validate_forces

#: Per-backend problem size: small enough to stay fast, large enough to
#: exercise tiling/padding.  tt-ds runs O(N^2) pair matrices in NumPy and
#: tt-matmul pads to 1024-blocks, so they get tailored sizes.
PARITY_N = {
    "reference": 1024,
    "cpu": 1024,
    "tt": 1024,
    "tt-ds": 512,
    "tt-matmul": 1024,
}

#: The particle-mesh backends approximate the far field, so the paper's
#: direct-summation gates (0.05% / 0.2% per component) do not apply to
#: them; their own accuracy gate — RMS force error vs direct summation —
#: lives in tests/nbody_pm/test_accuracy.py.
PM_BACKENDS = {"tt-pm", "cpu-pm"}


@pytest.mark.parametrize("name", sorted(PARITY_N))
def test_backend_passes_paper_gates(name):
    system = plummer(PARITY_N[name], seed=2)
    backend = make_backend(name)
    ev = backend.compute(system.pos, system.vel, system.mass)
    report = validate_forces(
        system.pos, system.vel, system.mass, ev.acc, ev.jerk
    )
    assert report.passed, f"{name}: {report.summary()}"


def test_parity_table_covers_every_registered_backend():
    """New registry entries must join the parity matrix above (or the
    PM carve-out, which has its own accuracy gate)."""
    assert set(PARITY_N) | PM_BACKENDS == set(BACKENDS.names())
    assert not set(PARITY_N) & PM_BACKENDS


def test_sharded_passes_paper_gates():
    system = plummer(2048, seed=2)
    backend = make_backend("tt", cards=2, cores=2)
    ev = backend.compute(system.pos, system.vel, system.mass)
    report = validate_forces(
        system.pos, system.vel, system.mass, ev.acc, ev.jerk
    )
    assert report.passed, report.summary()
