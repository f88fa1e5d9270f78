"""One tilize per force evaluation, shared by every card.

Every integrator step moves every particle, so the host re-tilizes the
replicated particle set on each evaluation — once, on the calling thread
— and hands that same ``ParticleTiles`` object to each card's
``compute_shard``.
"""

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core import plummer
from repro.nbody_tt.tiling import ParticleTiles


@pytest.fixture
def tilize_calls(monkeypatch):
    """Count ``ParticleTiles.from_arrays`` calls (any thread)."""
    calls = []
    original = ParticleTiles.from_arrays.__func__

    def counting(cls, *args, **kwargs):
        tiles = original(cls, *args, **kwargs)
        calls.append(tiles)
        return tiles

    monkeypatch.setattr(ParticleTiles, "from_arrays", classmethod(counting))
    return calls


def _record_card_tiles(backend):
    """Wrap each card's ``compute_shard``; returns the tiles it was handed."""
    seen = []
    for child in backend.children:
        def shard(*args, _inner=child.compute_shard, **kwargs):
            seen.append(args[0])
            return _inner(*args, **kwargs)

        child.compute_shard = shard
    return seen


@pytest.mark.parametrize("cards", [2, 4])
@pytest.mark.parametrize("mode", ["serial", "thread"])
class TestShardedTilizeOnce:
    @pytest.fixture(scope="class")
    def system(self):
        return plummer(4096, seed=17)

    def test_compute_tilizes_once_for_all_cards(self, system, tilize_calls,
                                                 mode, cards):
        backend = make_backend("tt", cores=2, cards=cards, workers=mode)
        seen = _record_card_tiles(backend)
        for _ in range(2):
            tilize_calls.clear()
            seen.clear()
            backend.compute(system.pos, system.vel, system.mass)
            assert len(tilize_calls) == 1
            assert len(seen) == cards  # 4 i-tiles: every card has a shard
            assert all(tiles is tilize_calls[0] for tiles in seen)

    def test_compute_on_targets_tilizes_once_for_all_cards(
            self, system, tilize_calls, mode, cards):
        backend = make_backend("tt", cores=2, cards=cards, workers=mode)
        seen = _record_card_tiles(backend)
        # one target in each of the first `cards` i-tiles
        targets = np.arange(cards) * 1024 + 5
        backend.compute_on_targets(system.pos, system.vel, system.mass,
                                   targets)
        assert len(tilize_calls) == 1
        assert len(seen) == cards
        assert all(tiles is tilize_calls[0] for tiles in seen)


def test_single_card_tilizes_once_per_evaluation(tilize_calls):
    system = plummer(2048, seed=17)
    backend = make_backend("tt", cores=2)
    backend.compute(system.pos, system.vel, system.mass)
    backend.compute_on_targets(system.pos, system.vel, system.mass,
                               np.array([3, 1500]))
    assert len(tilize_calls) == 2
