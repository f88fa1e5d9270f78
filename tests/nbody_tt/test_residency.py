"""Cross-timestep device residency: the tilize/upload caches skip work
for unchanged columns, the counters prove it, and the generation counter
lets callers skip even the value comparison."""

import numpy as np
import pytest

from repro import plummer
from repro.backends import make_backend
from repro.nbody_tt.tiling import J_QUANTITIES, TilizeCache
from repro.observability import Trace
from repro.wormhole.dtypes import DataFormat
from repro.wormhole.tile import TILE_ELEMENTS, tilize_1d

N_COLUMNS = len(J_QUANTITIES)


class TestTilizeCache:
    def _build(self, values):
        return lambda: tilize_1d(values, DataFormat.FLOAT32)

    def test_value_hit_and_miss_counters(self):
        cache = TilizeCache()
        a = np.arange(100, dtype=np.float64)
        first = cache.get_or_build("x", a, DataFormat.FLOAT32, self._build(a))
        assert (cache.hits, cache.misses) == (0, 1)
        again = cache.get_or_build(
            "x", a.copy(), DataFormat.FLOAT32, self._build(a)
        )
        assert again is first  # identity: lets the upload cache skip too
        assert (cache.hits, cache.misses) == (1, 1)
        b = a + 1.0
        changed = cache.get_or_build(
            "x", b, DataFormat.FLOAT32, self._build(b)
        )
        assert changed is not first
        assert (cache.hits, cache.misses) == (1, 2)

    def test_generation_match_skips_comparison(self):
        cache = TilizeCache()
        a = np.arange(64, dtype=np.float64)
        first = cache.get_or_build(
            "x", a, DataFormat.FLOAT32, self._build(a), generation=5
        )
        # same generation: the caller vouches, no array compare happens —
        # even a different array object returns the cached tiles
        different = a + 100.0
        hit = cache.get_or_build(
            "x", different, DataFormat.FLOAT32,
            self._build(different), generation=5,
        )
        assert hit is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_generation_bump_falls_back_to_value_compare(self):
        cache = TilizeCache()
        a = np.arange(64, dtype=np.float64)
        first = cache.get_or_build(
            "m", a, DataFormat.FLOAT32, self._build(a), generation=1
        )
        # new generation, unchanged values: still a hit (constant masses
        # survive generation bumps), and the stored generation advances
        hit = cache.get_or_build(
            "m", a.copy(), DataFormat.FLOAT32, self._build(a), generation=2
        )
        assert hit is first
        assert (cache.hits, cache.misses) == (1, 1)
        # changed values under a *new* generation: the compare catches it
        again = cache.get_or_build(
            "m", a + 1.0, DataFormat.FLOAT32,
            self._build(a + 1.0), generation=3,
        )
        assert again is not first
        assert cache.misses == 2

    def test_invalidate_forces_rebuild(self):
        cache = TilizeCache()
        a = np.arange(64, dtype=np.float64)
        cache.get_or_build("x", a, DataFormat.FLOAT32, self._build(a))
        cache.invalidate("x")
        cache.get_or_build("x", a, DataFormat.FLOAT32, self._build(a))
        assert (cache.hits, cache.misses) == (0, 2)
        cache.invalidate()
        cache.get_or_build("x", a, DataFormat.FLOAT32, self._build(a))
        assert cache.misses == 3


class TestSingleCardResidency:
    def test_first_step_all_misses(self):
        system = plummer(512, seed=31)
        backend = make_backend("tt", cores=4)
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        assert counters["tilize_cache_hits"] == 0
        assert counters["tilize_cache_misses"] == N_COLUMNS
        assert counters["upload_skipped_bytes"] == 0

    def test_unchanged_mass_never_retilized_or_reuploaded(self):
        """The acceptance criterion: second-and-later steps with unchanged
        masses do zero mass re-tilize and zero mass re-upload."""
        system = plummer(512, seed=31)
        backend = make_backend("tt", cores=4)
        n_tiles = 1  # 512 particles fit one tile
        column_bytes = n_tiles * TILE_ELEMENTS * 4  # fp32 storage
        backend.compute(system.pos, system.vel, system.mass)
        for step in (1, 2, 3):
            moved = system.pos + 0.001 * step * system.vel
            kicked = system.vel * (1.0 + 0.001 * step)
            backend.compute(moved, kicked, system.mass)
            counters = backend.residency_counters()
            # per extra step: the 6 changed columns miss, mass hits
            assert counters["tilize_cache_hits"] == step
            assert counters["tilize_cache_misses"] == N_COLUMNS + 6 * step
            assert counters["upload_skipped_bytes"] == column_bytes * step

    def test_identical_step_hits_every_column(self):
        system = plummer(512, seed=31)
        backend = make_backend("tt", cores=4)
        backend.compute(system.pos, system.vel, system.mass)
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        assert counters["tilize_cache_hits"] == N_COLUMNS
        assert counters["tilize_cache_misses"] == N_COLUMNS
        assert counters["upload_skipped_bytes"] == N_COLUMNS * TILE_ELEMENTS * 4

    def test_invalidate_residency_forces_full_rebuild(self):
        system = plummer(512, seed=31)
        backend = make_backend("tt", cores=4)
        backend.compute(system.pos, system.vel, system.mass)
        backend.invalidate_residency()
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        assert counters["tilize_cache_hits"] == 0
        assert counters["tilize_cache_misses"] == 2 * N_COLUMNS
        assert counters["upload_skipped_bytes"] == 0

    def test_generation_counter_skips_value_compares(self):
        system = plummer(512, seed=31)
        backend = make_backend("tt", cores=4)
        backend.data_generation = 1
        backend.compute(system.pos, system.vel, system.mass)
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        assert counters["tilize_cache_hits"] == N_COLUMNS
        # results stay correct through the generation fast path
        ev = backend.compute(system.pos, system.vel, system.mass)
        fresh = make_backend("tt", cores=4).compute(
            system.pos, system.vel, system.mass
        )
        assert np.array_equal(ev.acc, fresh.acc, equal_nan=True)
        assert np.array_equal(ev.jerk, fresh.jerk, equal_nan=True)


@pytest.mark.parametrize("mode", ["serial", "thread"])
class TestShardedResidency:
    """Counters aggregate across cards, whichever thread ran each card."""

    def test_counters_aggregate_across_cards(self, mode):
        system = plummer(2048, seed=32)
        backend = make_backend("tt", cores=4, cards=2, workers=mode)
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        # each card tilizes the full replicated j-set: 7 columns each
        assert counters["tilize_cache_misses"] == 2 * N_COLUMNS
        assert counters["tilize_cache_hits"] == 0
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        assert counters["tilize_cache_hits"] == 2 * N_COLUMNS
        assert counters["tilize_cache_misses"] == 2 * N_COLUMNS
        assert counters["upload_skipped_bytes"] > 0

    def test_invalidate_reaches_workers(self, mode):
        system = plummer(2048, seed=32)
        backend = make_backend("tt", cores=4, cards=2, workers=mode)
        backend.compute(system.pos, system.vel, system.mass)
        backend.invalidate_residency()
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        assert counters["tilize_cache_hits"] == 0
        assert counters["tilize_cache_misses"] == 4 * N_COLUMNS


class TestResidencyMetrics:
    def test_single_card_counters_mirrored_into_trace(self):
        system = plummer(512, seed=33)
        trace = Trace()
        backend = make_backend("tt", cores=4)
        backend.trace = trace
        backend.compute(system.pos, system.vel, system.mass)
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        for name, total in counters.items():
            assert trace.metrics.counter(f"residency.{name}").value == total
        assert trace.metrics.counter("residency.tilize_cache_hits").value > 0

    def test_sharded_counters_mirrored_into_trace(self):
        system = plummer(2048, seed=33)
        trace = Trace()
        backend = make_backend("tt", cores=4, cards=2)
        backend.trace = trace  # forces the serial in-line path
        backend.compute(system.pos, system.vel, system.mass)
        backend.compute(system.pos, system.vel, system.mass)
        counters = backend.residency_counters()
        for name, total in counters.items():
            assert trace.metrics.counter(f"residency.{name}").value == total
