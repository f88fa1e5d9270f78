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
from repro.errors import NBodyError
from repro.nbody_tt import engine as engine_module
from repro.nbody_tt.engine import BatchedDispatchEngine
from repro.nbody_tt.tiling import OUT_QUANTITIES, ParticleTiles, covering_tiles
from repro.wormhole.dtypes import DataFormat

N = 96
SUBSETS = [
    np.array([0]),
    np.array([5, 17, 63]),
    np.arange(0, N, 7),
    np.arange(N - 1, -1, -1),        # reversed order must be honoured
    np.arange(N),                    # all targets == full compute
]

#: three i-tiles, the last one padded: the tt row path's lane edge cases
N_TILED = 2500
TILED_SUBSETS = {
    "lane-0": np.array([0]),
    "lane-1023": np.array([1023]),
    "lane-1024": np.array([1024]),
    "last-particle": np.array([N_TILED - 1]),
    "straddling-runs": np.r_[1000:1050, 2040:2060],
    "scattered": np.random.default_rng(5).choice(N_TILED, 60, replace=False),
    "unsorted-duplicates": np.array([2400, 3, 1500, 3, 1023, 2400, 7]),
    "every-particle": np.arange(N_TILED),
}


def _system():
    return plummer(N, seed=11)


def _tiled_system():
    return plummer(N_TILED, seed=12)


def _assert_subset_bit_identical(backend, s=None, subsets=SUBSETS):
    s = _system() if s is None else s
    full = backend.compute(s.pos, s.vel, s.mass)
    for targets in subsets:
        sub = compute_on_targets(backend, s.pos, s.vel, s.mass, targets)
        np.testing.assert_array_equal(sub.acc, full.acc[targets])
        np.testing.assert_array_equal(sub.jerk, full.jerk[targets])
        assert sub.acc.dtype == full.acc.dtype


BACKENDS = [
    ("reference", {}),
    ("cpu", {}),
    ("tt", {}),
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


#: the tt row path on the multi-tile system: fp32 computes only the
#: target lanes; bfloat16 (on two tiles) and the per-block oracle compute
#: whole tiles, and must still hand back the full compute's rows
TILED_CASES = [
    ("fp32", {}, N_TILED, list(TILED_SUBSETS)),
    ("fp32-softened", {"softening": 0.01}, N_TILED, list(TILED_SUBSETS)),
    ("bfloat16", {"fmt": "bfloat16"}, 1100,
     ["lane-1024", "straddling-runs", "unsorted-duplicates"]),
    ("per-block", {"engine": "per-block"}, N_TILED,
     ["straddling-runs", "unsorted-duplicates"]),
]


@pytest.mark.parametrize(
    "options, n, subsets", [case[1:] for case in TILED_CASES],
    ids=[case[0] for case in TILED_CASES],
)
def test_tt_row_subsets_across_tiles(options, n, subsets):
    s = plummer(n, seed=12)
    targets = [TILED_SUBSETS[name] for name in subsets]
    _assert_subset_bit_identical(
        make_backend("tt", **options), s,
        [t[t < n] for t in targets],
    )


@pytest.mark.parametrize("cards", [2, 4])
@pytest.mark.parametrize("workers", ["serial", "thread"])
def test_sharded_subset_bit_identical_across_executors(cards, workers):
    backend = make_backend("tt", cards=cards, workers=workers)
    assert supports_targets(backend)
    _assert_subset_bit_identical(backend)
    _assert_subset_bit_identical(
        backend, _tiled_system(), TILED_SUBSETS.values()
    )


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
    for name, options in [("cpu", {}), ("tt", {})]:
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


class TestEngineRows:
    """White-box checks of ``BatchedDispatchEngine.compute_tiles(rows=)``."""

    #: the engine's three fp32 paths, forced by dropping the faster kernels
    PATHS = ["fused", "chunk", "numpy"]

    @staticmethod
    def _engine(path=None, softening=0.0):
        s = _tiled_system()
        tiles = ParticleTiles.from_arrays(s.pos, s.vel, s.mass)
        engine = BatchedDispatchEngine(DataFormat.FLOAT32, softening)
        if path == "fused" and engine._fused is None:
            pytest.skip("fused kernel unavailable")
        if path == "chunk" and engine._native is None:
            pytest.skip("chunk kernel unavailable")
        if path in ("chunk", "numpy"):
            engine._fused = None
        if path == "numpy":
            engine._native = None
        engine.load_j_stream(tiles)
        return engine, tiles

    @staticmethod
    def _count_kernel_rows(engine, monkeypatch):
        """Wrap the fp32 kernel the engine calls; collect its ``rows``."""
        seen = []

        def counting(inner):
            def kernel(*args):
                seen.append(args[3])
                return inner(*args)
            return kernel

        if engine._fused is not None:
            engine._fused = counting(engine._fused)
        elif engine._native is not None:
            engine._native = counting(engine._native)
        else:
            monkeypatch.setattr(engine_module, "_numpy_chunk_f32",
                                counting(engine_module._numpy_chunk_f32))
        return seen

    @pytest.mark.parametrize("softening", [0.0, 0.01])
    @pytest.mark.parametrize("path", PATHS)
    def test_lanes_match_whole_tiles_on_every_path(self, path, softening):
        engine, tiles = self._engine(path, softening)
        full = engine.compute_tiles(list(range(tiles.n_tiles)))
        shapes = set(engine._scratch)
        for name, targets in TILED_SUBSETS.items():
            needed, rows = covering_tiles(targets)
            sub = engine.compute_tiles(needed, rows)
            for it in needed:
                for k, q in enumerate(OUT_QUANTITIES):
                    np.testing.assert_array_equal(
                        sub[it][k][rows[it]], full[it][k][rows[it]],
                        err_msg=f"{name}: tile {it} {q}",
                    )
        # short runs reuse the leading rows of the full-shape scratch
        assert set(engine._scratch) == shapes

    def test_kernel_sees_only_the_target_rows(self, monkeypatch):
        engine, _ = self._engine()
        seen = self._count_kernel_rows(engine, monkeypatch)
        needed, rows = covering_tiles(np.array([1500, 1030, 2047]))
        assert needed == [1]
        engine.compute_tiles(needed, rows)
        assert sum(seen) == 3

    def test_lanes_outside_rows_are_nan(self):
        backend = make_backend("tt")
        s = _tiled_system()
        tiles = ParticleTiles.from_arrays(s.pos, s.vel, s.mass)
        needed, rows = covering_tiles(np.array([5, 6, 2100]))
        results, _, _ = backend.compute_shard(tiles, needed, rows)
        for q in OUT_QUANTITIES:
            for it in needed:
                data = results[q][it].data
                outside = np.setdiff1d(np.arange(data.size), rows[it])
                assert np.isfinite(data[rows[it]]).all()
                assert np.isnan(data[outside]).all()

    @pytest.mark.parametrize("bad", [[], [3, 3], [7, 2], [-1], [1024]])
    def test_malformed_rows_rejected(self, bad):
        engine, _ = self._engine()
        with pytest.raises(NBodyError, match="strictly increasing"):
            engine.compute_tiles([0], {0: np.array(bad, dtype=np.intp)})


class TestCoveringTiles:
    def test_groups_sorted_unique_lanes_per_tile(self):
        needed, rows = covering_tiles(np.array([2400, 3, 1500, 3, 1023, 7]))
        assert needed == [0, 1, 2]
        np.testing.assert_array_equal(rows[0], [3, 7, 1023])
        np.testing.assert_array_equal(rows[1], [1500 - 1024])
        np.testing.assert_array_equal(rows[2], [2400 - 2048])


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
