"""ShardedTTBackend: bit identity, per-card accounting, trace fan-out,
the ``workers`` host fan-out and its option plumbing down from the CLI."""

import argparse

import numpy as np
import pytest

from repro.backends import RunSpec, ShardedTTBackend, make_backend, shard_tiles
from repro.core import plummer
from repro.errors import ConfigurationError
from repro.observability import Trace


class TestShardTiles:
    def test_contiguous_split_with_remainder(self):
        assert shard_tiles(5, 2) == [[0, 1, 2], [3, 4]]

    def test_more_cards_than_tiles(self):
        assert shard_tiles(2, 4) == [[0], [1], [], []]

    def test_sizes_within_one_tile(self):
        for n_tiles in range(1, 12):
            for n_cards in range(1, 6):
                sizes = [len(s) for s in shard_tiles(n_tiles, n_cards)]
                assert sum(sizes) == n_tiles
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            shard_tiles(0, 2)


class TestBitIdentity:
    """The headline guarantee: sharding never changes a single bit."""

    @pytest.fixture(scope="class")
    def single_card(self):
        system = plummer(4096, seed=5)
        backend = make_backend("tt", cores=4)
        ev = backend.compute(system.pos, system.vel, system.mass)
        return system, ev

    @pytest.mark.parametrize("cards", [2, 4])
    def test_bit_identical_to_single_card(self, single_card, cards):
        system, reference = single_card
        backend = make_backend("tt", cores=4, cards=cards)
        ev = backend.compute(system.pos, system.vel, system.mass)
        assert np.array_equal(ev.acc, reference.acc)
        assert np.array_equal(ev.jerk, reference.jerk)

    def test_single_tile_shard(self):
        """N below one tile-block: one card computes, the rest idle."""
        system = plummer(256, seed=5)
        reference = make_backend("tt", cores=4).compute(
            system.pos, system.vel, system.mass
        )
        ev = make_backend("tt", cores=4, cards=2).compute(
            system.pos, system.vel, system.mass
        )
        assert np.array_equal(ev.acc, reference.acc)
        assert np.array_equal(ev.jerk, reference.jerk)


class TestAccounting:
    def test_per_card_costs_and_segments(self):
        system = plummer(4096, seed=5)
        backend = make_backend("tt", cores=4, cards=2)
        ev = backend.compute(system.pos, system.vel, system.mass)

        costs = backend.last_card_costs
        assert [c.card for c in costs] == [0, 1]
        assert sum(c.n_tiles for c in costs) == 4
        assert all(c.device_seconds > 0 for c in costs)
        assert all(c.gather_bytes > 0 for c in costs)
        assert all("i-tiles" in c.format() for c in costs)

        details = [s.detail for s in ev.segments]
        assert "allgather" in details
        assert "force" in details
        assert any(d.startswith("card0:") for d in details)
        assert any(d.startswith("card1:") for d in details)

    def test_evaluation_priced_by_slowest_card_plus_gather(self):
        system = plummer(4096, seed=5)
        backend = make_backend("tt", cores=4, cards=2)
        ev = backend.compute(system.pos, system.vel, system.mass)
        force = next(s for s in ev.segments if s.detail == "force")
        gather = next(s for s in ev.segments if s.detail == "allgather")
        worst = max(c.device_seconds for c in backend.last_card_costs)
        assert force.seconds == worst
        assert gather.seconds > 0

    def test_requires_two_cards(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            ShardedTTBackend(1)


class TestTraceFanOut:
    def test_trace_setter_reaches_children_and_queues(self):
        backend = make_backend("tt", cores=2, cards=2)
        trace = Trace()
        backend.trace = trace
        assert backend.trace is trace
        for child in backend.children:
            assert child.trace is trace

    def test_traced_run_has_one_card_span_per_shard(self):
        system = plummer(2048, seed=5)
        backend = make_backend("tt", cores=2, cards=2)
        backend.trace = Trace()
        backend.compute(system.pos, system.vel, system.mass)

        cards = backend.trace.find("card")
        assert [s.attributes["card"] for s in cards] == [0, 1]
        assert sum(s.attributes["n_tiles"] for s in cards) == 2
        assert len(backend.trace.find("allgather")) == 1


class TestWorkerModes:
    """Serial and threaded fan-out are bit-for-bit the single card."""

    @pytest.fixture(scope="class")
    def system(self):
        return plummer(4096, seed=7)

    @pytest.fixture(scope="class")
    def single(self, system):
        backend = make_backend("tt", cores=4)
        return backend.compute(system.pos, system.vel, system.mass)

    @pytest.mark.parametrize("cards", [2, 4])
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_matches_single_card(self, system, single, mode, cards):
        backend = make_backend("tt", cores=4, cards=cards, workers=mode)
        ev = backend.compute(system.pos, system.vel, system.mass)
        assert backend.workers == mode
        assert np.array_equal(single.acc, ev.acc, equal_nan=True)
        assert np.array_equal(single.jerk, ev.jerk, equal_nan=True)

    def test_thread_matches_serial_across_steps(self, system):
        """Repeated evaluations stay identical."""
        evals = {}
        for mode in ("serial", "thread"):
            backend = make_backend("tt", cores=4, cards=2, workers=mode)
            backend.compute(system.pos, system.vel, system.mass)
            evals[mode] = backend.compute(system.pos, system.vel, system.mass)
        assert np.array_equal(
            evals["serial"].acc, evals["thread"].acc, equal_nan=True
        )
        assert np.array_equal(
            evals["serial"].jerk, evals["thread"].jerk, equal_nan=True
        )

    def test_card_costs_stable_order(self, system):
        """Costs come back sorted by card index whatever the scheduling."""
        backend = make_backend("tt", cores=4, cards=4, workers="thread")
        backend.compute(system.pos, system.vel, system.mass)
        assert [c.card for c in backend.last_card_costs] == [0, 1, 2, 3]
        assert all(c.n_tiles == 1 for c in backend.last_card_costs)


class TestOptionPlumbing:
    """workers flows CLI -> RunSpec -> registry -> backend."""

    def test_registry_accepts_workers(self):
        backend = make_backend("tt", cards=2, workers="serial")
        assert backend.workers == "serial"

    def test_default_is_thread(self):
        assert make_backend("tt", cards=2).workers == "thread"

    def test_registry_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            make_backend("tt", cards=2, workers="turbo")

    @pytest.mark.parametrize("workers", ["turbo", "process"])
    def test_single_card_rejects_bad_workers(self, workers):
        """Validated for every card count, not only when sharding."""
        with pytest.raises(ConfigurationError, match="workers"):
            make_backend("tt", workers=workers)

    def test_constructor_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers mode"):
            ShardedTTBackend(2, workers="process")

    def test_runspec_forwards_workers_for_tt(self):
        args = argparse.Namespace(
            backend="tt", cards=2, workers="serial", n=256
        )
        spec = RunSpec.from_cli(args)
        assert spec.backend.options["workers"] == "serial"
        backend = spec.make_backend()
        assert backend.workers == "serial"

    def test_runspec_filters_workers_for_cpu(self):
        args = argparse.Namespace(backend="cpu", workers="thread", n=256)
        spec = RunSpec.from_cli(args)
        assert "workers" not in spec.backend.options
