"""Tests for the N-body unit constants."""

import numpy as np
import pytest

from repro.core.units import G_NBODY, HENON_CROSSING_TIME


class TestConstants:
    def test_g_is_one(self):
        assert G_NBODY == 1.0

    def test_crossing_time(self):
        assert HENON_CROSSING_TIME == pytest.approx(2.0 * np.sqrt(2.0))
