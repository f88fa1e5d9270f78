"""N-body (Hénon) units.

Direct N-body codes work in Hénon units: G = 1, total mass M = 1, total
energy E = -1/4, which puts the virial radius at 1 and the crossing time
at 2*sqrt(2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["G_NBODY", "HENON_CROSSING_TIME"]

#: Gravitational constant in N-body units.
G_NBODY = 1.0
#: Crossing time of a virialised system in Hénon units: 2 sqrt(2).
HENON_CROSSING_TIME = 2.0 * np.sqrt(2.0)
