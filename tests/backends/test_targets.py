"""Target-subset force evaluation: bit-identity on every backend.

The contract of ``compute_on_targets``: for any backend and any target
subset, row ``k`` of the result equals row ``targets[k]`` of the full
``compute`` — *bit-identical*, not merely close — because the block
integrator mixes subset evaluations with full ones across the block
hierarchy and any drift between the two paths would desynchronise it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core.protocol import (
    compute_on_targets,
    normalize_targets,
    supports_targets,
)
from repro.core import ReferenceBackend, plummer

N = 96
SUBSETS = [
    np.array([0]),
    np.array([5, 17, 63]),
    np.arange(0, N, 7),
    np.arange(N - 1, -1, -1),        # reversed order must be honoured
    np.arange(N),                    # all targets == full compute
]


def _system():
    return plummer(N, seed=11)


def _assert_subset_bit_identical(backend):
    s = _system()
    full = backend.compute(s.pos, s.vel, s.mass)
    for targets in SUBSETS:
        sub = compute_on_targets(backend, s.pos, s.vel, s.mass, targets)
        np.testing.assert_array_equal(sub.acc, full.acc[targets])
        np.testing.assert_array_equal(sub.jerk, full.jerk[targets])
        assert sub.acc.dtype == full.acc.dtype


BACKENDS = [
    ("reference", {}),
    ("cpu", {}),
    ("tt", {}),
    ("tt-ds", {}),
    ("tt-matmul", {}),
    ("cpu-pm", {"mesh": 32}),
    ("tt-pm", {"mesh": 32}),
]


@pytest.mark.parametrize(
    "name, options", BACKENDS, ids=[name for name, _ in BACKENDS]
)
def test_subset_bit_identical_to_masked_full_compute(name, options):
    backend = make_backend(name, **options)
    assert supports_targets(backend)
    _assert_subset_bit_identical(backend)


@pytest.mark.parametrize("cards", [2, 4])
@pytest.mark.parametrize("workers", ["serial", "thread"])
def test_sharded_subset_bit_identical_across_executors(cards, workers):
    backend = make_backend("tt", cards=cards, workers=workers)
    assert supports_targets(backend)
    _assert_subset_bit_identical(backend)


@pytest.mark.parametrize("cards", [2, 4])
def test_sharded_subset_matches_single_card(cards):
    """The sharded merge must reproduce the single-card subset bits."""
    s = _system()
    single = make_backend("tt")
    sharded = make_backend("tt", cards=cards)
    targets = np.array([3, 40, 41, 90])
    a = single.compute_on_targets(s.pos, s.vel, s.mass, targets)
    b = sharded.compute_on_targets(s.pos, s.vel, s.mass, targets)
    np.testing.assert_array_equal(a.acc, b.acc)
    np.testing.assert_array_equal(a.jerk, b.jerk)


def test_subset_costs_no_more_than_full_compute():
    """Scope pricing: an active block must not be charged a full sweep."""
    s = _system()
    for name, options in [("cpu", {}), ("tt", {}), ("tt-ds", {})]:
        backend = make_backend(name, **options)
        try:
            full = backend.compute(s.pos, s.vel, s.mass)
            sub = backend.compute_on_targets(
                s.pos, s.vel, s.mass, np.array([1, 2, 3])
            )
            full_s = sum(seg.seconds for seg in full.segments)
            sub_s = sum(seg.seconds for seg in sub.segments)
            assert sub_s <= full_s
        finally:
            close = getattr(backend, "close", None)
            if close is not None:
                close()


class TestDispatcherFallback:
    def test_fallback_slices_full_compute(self):
        class Plain:
            """A targets-unaware backend: only the base protocol."""

            name = "plain"

            def __init__(self):
                self.inner = ReferenceBackend()

            def compute(self, pos, vel, mass):
                return self.inner.compute(pos, vel, mass)

        s = _system()
        backend = Plain()
        assert not supports_targets(backend)
        targets = np.array([2, 44])
        sub = compute_on_targets(backend, s.pos, s.vel, s.mass, targets)
        full = backend.compute(s.pos, s.vel, s.mass)
        np.testing.assert_array_equal(sub.acc, full.acc[targets])
        np.testing.assert_array_equal(sub.jerk, full.jerk[targets])


class TestNormalizeTargets:
    def test_sorted_unique_intp(self):
        idx = normalize_targets([3, 1, 2], 10)
        assert idx.dtype == np.intp
        np.testing.assert_array_equal(idx, [3, 1, 2])

    @pytest.mark.parametrize("bad", [[], [10], [-11], [[1, 2]]])
    def test_invalid_targets_rejected(self, bad):
        with pytest.raises(Exception):
            normalize_targets(bad, 10)
