"""Bit-identity and accounting regression tests for the batched engine.

The batched block-dispatch engine must be indistinguishable from the
per-block path in everything but wall clock: identical result bits for
every data format (softened or not, with the diagonal self-mask, across
multi-card tile splits), identical cost-model charges, identical
timeline phases, and identical cooperative-scheduler round counts.
"""

import numpy as np
import pytest

from repro.backends import ShardedTTBackend
from repro.core.initial_conditions import plummer
from repro.errors import ConfigurationError
from repro.metalium import CreateDevice
from repro.nbody_tt.engine import BatchedDispatchEngine
from repro.nbody_tt.force_kernel import (
    BlockAccumulators,
    force_block,
    resident_i_arrays,
)
from repro.nbody_tt.offload import TTForceBackend
from repro.nbody_tt.tiling import (
    J_QUANTITIES,
    OUT_QUANTITIES,
    ParticleTiles,
    TilizeCache,
)
from repro.wormhole.dtypes import DataFormat

#: Formats DRAM buffers can round-trip (BFP8 is covered engine-directly).
DRAM_FMTS = [DataFormat.FLOAT32, DataFormat.BFLOAT16, DataFormat.FLOAT16]


def _backend_pair(*, fmt=DataFormat.FLOAT32, softening=0.0, n_cores=4):
    per_block = TTForceBackend(
        CreateDevice(0), n_cores=n_cores, fmt=fmt, softening=softening,
        engine="per-block",
    )
    batched = TTForceBackend(
        CreateDevice(0), n_cores=n_cores, fmt=fmt, softening=softening,
        engine="batched",
    )
    return per_block, batched


def _reference_tiles(tiles, fmt, softening):
    """Per-block accumulator tiles for every i-tile (the ground truth)."""
    out = {}
    for it in range(tiles.n_tiles):
        acc = BlockAccumulators(fmt)
        i_pages = tiles.i_pages(it)
        i_arrays = resident_i_arrays(i_pages, fmt)
        for jt in range(tiles.n_tiles):
            force_block(
                i_pages, tiles.j_pages(jt), acc,
                softening=softening, fmt=fmt, diagonal=jt == it,
                i_arrays=i_arrays,
            )
        out[it] = acc.to_tiles()
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("fmt", DRAM_FMTS, ids=lambda f: f.value)
    def test_backend_matches_per_block(self, fmt, softening):
        s = plummer(2048, seed=0)
        per_block, batched = _backend_pair(fmt=fmt, softening=softening)
        e_pb = per_block.compute(s.pos, s.vel, s.mass)
        e_ba = batched.compute(s.pos, s.vel, s.mass)
        assert np.array_equal(e_pb.acc, e_ba.acc, equal_nan=True)
        assert np.array_equal(e_pb.jerk, e_ba.jerk, equal_nan=True)

    def test_non_multiple_of_tile_size(self):
        s = plummer(1500, seed=1)
        per_block, batched = _backend_pair(n_cores=3)
        e_pb = per_block.compute(s.pos, s.vel, s.mass)
        e_ba = batched.compute(s.pos, s.vel, s.mass)
        assert np.array_equal(e_pb.acc, e_ba.acc, equal_nan=True)
        assert np.array_equal(e_pb.jerk, e_ba.jerk, equal_nan=True)

    @pytest.mark.parametrize("softening", [0.0, 0.01])
    @pytest.mark.parametrize("fmt", list(DataFormat), ids=lambda f: f.value)
    def test_engine_matches_force_block_directly(self, fmt, softening):
        """Every format — including BFP8, which DRAM cannot round-trip —
        against the raw per-block kernel, exercising the diagonal mask on
        every i-tile."""
        s = plummer(3000, seed=2)
        tiles = ParticleTiles.from_arrays(s.pos, s.vel, s.mass, fmt)
        engine = BatchedDispatchEngine(fmt, softening)
        engine.load_j_stream(tiles)
        values = engine.compute_tiles(list(range(tiles.n_tiles)))
        reference = _reference_tiles(tiles, fmt, softening)
        for it in range(tiles.n_tiles):
            for k, ref_tile in enumerate(reference[it]):
                got = np.asarray(values[it][k], dtype=np.float64)
                assert np.array_equal(got, ref_tile.data, equal_nan=True), (
                    fmt, it, OUT_QUANTITIES[k]
                )

    def test_numpy_fallback_matches_force_block(self, monkeypatch):
        """With the native kernel disabled the pure-NumPy chunk path must
        still be bit-identical."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        s = plummer(2048, seed=3)
        tiles = ParticleTiles.from_arrays(s.pos, s.vel, s.mass)
        engine = BatchedDispatchEngine(DataFormat.FLOAT32, 0.0)
        assert engine._native is None
        engine.load_j_stream(tiles)
        values = engine.compute_tiles([0, 1])
        reference = _reference_tiles(tiles, DataFormat.FLOAT32, 0.0)
        for it in (0, 1):
            for k, ref_tile in enumerate(reference[it]):
                got = np.asarray(values[it][k], dtype=np.float64)
                assert np.array_equal(got, ref_tile.data, equal_nan=True)

    def test_multi_device_tile_split(self):
        s = plummer(4096, seed=4)
        single = TTForceBackend(
            CreateDevice(0), n_cores=2, engine="batched"
        ).compute(s.pos, s.vel, s.mass)
        pb2 = ShardedTTBackend(
            2, n_cores=2, engine="per-block"
        ).compute(s.pos, s.vel, s.mass)
        ba2 = ShardedTTBackend(
            2, n_cores=2, engine="batched"
        ).compute(s.pos, s.vel, s.mass)
        assert np.array_equal(pb2.acc, ba2.acc, equal_nan=True)
        assert np.array_equal(pb2.jerk, ba2.jerk, equal_nan=True)
        assert np.array_equal(single.acc, ba2.acc, equal_nan=True)

    def test_engine_rejects_mismatched_format_and_range(self):
        s = plummer(1024, seed=5)
        tiles = ParticleTiles.from_arrays(s.pos, s.vel, s.mass)
        engine = BatchedDispatchEngine(DataFormat.BFLOAT16, 0.0)
        from repro.errors import NBodyError

        with pytest.raises(NBodyError, match="built for"):
            engine.load_j_stream(tiles)
        engine = BatchedDispatchEngine(DataFormat.FLOAT32, 0.0)
        with pytest.raises(NBodyError, match="load_j_stream"):
            engine.compute_tiles([0])
        engine.load_j_stream(tiles)
        with pytest.raises(NBodyError, match="out of range"):
            engine.compute_tiles([5])


class TestAccountingUnchanged:
    def test_charges_phases_and_rounds_identical(self):
        """Cycle charges, DRAM traffic, timeline phases, and scheduler
        rounds must not depend on the engine (the E11 ablation reads
        them)."""
        s = plummer(3000, seed=6)
        per_block, batched = _backend_pair(n_cores=4)
        e_pb = per_block.compute(s.pos, s.vel, s.mass)
        e_ba = batched.compute(s.pos, s.vel, s.mass)

        seg = lambda ev: [(g.tag, g.seconds, g.detail) for g in ev.segments]  # noqa: E731
        assert seg(e_pb) == seg(e_ba)
        q_pb, q_ba = per_block.queues[0], batched.queues[0]
        assert q_pb.last_scheduler_rounds == q_ba.last_scheduler_rounds
        assert [(p.tag, p.duration_s, p.detail) for p in q_pb.phases] == [
            (p.tag, p.duration_s, p.detail) for p in q_ba.phases
        ]
        d_pb, d_ba = per_block.devices[0], batched.devices[0]
        assert d_pb.dram.bytes_read == d_ba.dram.bytes_read
        assert d_pb.dram.bytes_written == d_ba.dram.bytes_written
        for c_pb, c_ba in zip(d_pb.cores, d_ba.cores):
            assert c_pb.counter.ops == c_ba.counter.ops
            assert c_pb.counter.compute_cycles == c_ba.counter.compute_cycles
            assert c_pb.counter.datamove_cycles == c_ba.counter.datamove_cycles

    @pytest.mark.parametrize("cb_buffering", [1, 2])
    def test_rounds_track_cb_buffering_in_both_engines(self, cb_buffering):
        """The double-buffering ablation's observable is unchanged."""
        s = plummer(2048, seed=7)
        rounds = {}
        for engine in ("per-block", "batched"):
            backend = TTForceBackend(
                CreateDevice(0), n_cores=1, cb_buffering=cb_buffering,
                engine=engine,
            )
            backend.compute(s.pos, s.vel, s.mass)
            rounds[engine] = backend.queues[0].last_scheduler_rounds[0]
        assert rounds["per-block"] == rounds["batched"]

    def test_repeat_evaluations_stay_identical(self):
        """The tilize/upload caches must not change accounting on the
        second evaluation (charged transfers replace real ones 1:1)."""
        s = plummer(2048, seed=8)
        per_block, batched = _backend_pair(n_cores=2)
        for backend in (per_block, batched):
            backend.compute(s.pos, s.vel, s.mass)
        e_pb = per_block.compute(s.pos, s.vel, s.mass)
        e_ba = batched.compute(s.pos, s.vel, s.mass)
        assert np.array_equal(e_pb.acc, e_ba.acc, equal_nan=True)
        q_pb, q_ba = per_block.queues[0], batched.queues[0]
        assert [(p.tag, p.duration_s, p.detail) for p in q_pb.phases] == [
            (p.tag, p.duration_s, p.detail) for p in q_ba.phases
        ]


class TestCaches:
    def test_tilize_cache_reuses_unchanged_columns(self):
        s = plummer(1024, seed=9)
        cache = TilizeCache()
        t1 = ParticleTiles.from_arrays(
            s.pos, s.vel, s.mass, DataFormat.FLOAT32, cache=cache
        )
        t2 = ParticleTiles.from_arrays(
            s.pos, s.vel, s.mass, DataFormat.FLOAT32, cache=cache
        )
        for q in J_QUANTITIES:
            assert t2.columns[q] is t1.columns[q], q
        # a position change rebuilds x/y/z but keeps mass and velocities
        pos2 = s.pos.copy()
        pos2[0, 0] += 1e-3
        t3 = ParticleTiles.from_arrays(
            pos2, s.vel, s.mass, DataFormat.FLOAT32, cache=cache
        )
        assert t3.columns["m"] is t1.columns["m"]
        assert t3.columns["vx"] is t1.columns["vx"]
        assert t3.columns["x"] is not t1.columns["x"]

    def test_tilize_cache_respects_format(self):
        s = plummer(1024, seed=10)
        cache = TilizeCache()
        t32 = ParticleTiles.from_arrays(
            s.pos, s.vel, s.mass, DataFormat.FLOAT32, cache=cache
        )
        t16 = ParticleTiles.from_arrays(
            s.pos, s.vel, s.mass, DataFormat.BFLOAT16, cache=cache
        )
        assert t16.columns["m"] is not t32.columns["m"]
        assert t16.columns["m"][0].fmt is DataFormat.BFLOAT16

    def test_cached_tiles_match_uncached(self):
        s = plummer(1500, seed=11)
        cache = TilizeCache()
        cached = ParticleTiles.from_arrays(
            s.pos, s.vel, s.mass, DataFormat.FLOAT32, cache=cache
        )
        plain = ParticleTiles.from_arrays(s.pos, s.vel, s.mass)
        for q in J_QUANTITIES:
            for a, b in zip(cached.columns[q], plain.columns[q]):
                assert np.array_equal(a.data, b.data)

    def test_upload_cache_skips_reupload_of_constant_columns(self):
        s = plummer(1024, seed=12)
        backend = TTForceBackend(CreateDevice(0), n_cores=1, engine="batched")
        backend.compute(s.pos, s.vel, s.mass)
        uploaded_mass = backend._uploaded["m"]
        pos2 = s.pos + 1e-4
        backend.compute(pos2, s.vel, s.mass)
        # mass column untouched -> same resident tile list; positions
        # changed -> re-uploaded
        assert backend._uploaded["m"] is uploaded_mass

    def test_integration_results_stable_across_steps(self):
        """A short Hermite run through both engines stays bit-identical
        even with the caches active across predictor/corrector steps."""
        from repro.core.simulation import Simulation

        runs = {}
        for engine in ("per-block", "batched"):
            backend = TTForceBackend(CreateDevice(0), n_cores=2, engine=engine)
            sim = Simulation(plummer(1024, seed=13), backend, dt=5e-4)
            result = sim.run(3)
            runs[engine] = result.system
        assert np.array_equal(runs["per-block"].pos, runs["batched"].pos)
        assert np.array_equal(runs["per-block"].vel, runs["batched"].vel)


class TestEngineSelection:
    def test_default_engine_is_batched(self):
        backend = TTForceBackend(CreateDevice(0), n_cores=1)
        assert backend.engine == "batched"

    def test_env_var_does_not_select_engine(self, monkeypatch):
        """The engine comes from the argument alone: the per-block oracle
        is not an environment switch."""
        monkeypatch.setenv("REPRO_TT_ENGINE", "per-block")
        backend = TTForceBackend(CreateDevice(0), n_cores=1)
        assert backend.engine == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            TTForceBackend(CreateDevice(0), n_cores=1, engine="warp-drive")
