"""Tests for snapshot I/O round trips."""

import numpy as np
import pytest

from repro.core.initial_conditions import plummer
from repro.core.snapshots import load_npz, save_npz
from repro.errors import NBodyError


@pytest.fixture
def system():
    s = plummer(32, seed=0)
    s.time = 1.25
    s.acc = np.random.default_rng(1).normal(size=(32, 3))
    s.jerk = np.random.default_rng(2).normal(size=(32, 3))
    return s


class TestNpz:
    def test_roundtrip_exact(self, system, tmp_path):
        path = tmp_path / "snap.npz"
        save_npz(path, system)
        back = load_npz(path)
        assert np.array_equal(back.mass, system.mass)
        assert np.array_equal(back.pos, system.pos)
        assert np.array_equal(back.vel, system.vel)
        assert np.array_equal(back.acc, system.acc)
        assert np.array_equal(back.jerk, system.jerk)
        assert back.time == system.time

    def test_missing_file(self, tmp_path):
        with pytest.raises(NBodyError, match="not found"):
            load_npz(tmp_path / "nope.npz")
