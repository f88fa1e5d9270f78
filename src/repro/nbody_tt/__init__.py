"""The N-body port to the Tenstorrent Wormhole (the paper's contribution).

Implements Section 3 of the paper against the simulated hardware:
particle-data tiling and outer-loop distribution across Tensix cores
(:mod:`~repro.nbody_tt.tiling`), the read/compute/write kernel pipeline
with CB-staged intermediates (:mod:`~repro.nbody_tt.force_kernel`), and
the :class:`~repro.nbody_tt.offload.TTForceBackend` that plugs the device
into :class:`repro.core.Simulation`, plus the analytic
:class:`~repro.nbody_tt.offload.DeviceTimeModel` for paper-scale
projections.
"""

from .engine import BatchedDispatchEngine
from .force_kernel import (
    CB_I_IN,
    CB_J_IN,
    CB_OUT,
    BlockAccumulators,
    charge_block,
    force_block,
    ops_per_j_iteration,
    resident_i_arrays,
    weighted_ops_per_j,
)
from .offload import DeviceTimeModel, TTForceBackend
from .tiling import (
    I_QUANTITIES,
    J_QUANTITIES,
    OUT_QUANTITIES,
    PAD_OFFSET,
    ParticleTiles,
    assign_tiles_to_cores,
)

__all__ = [
    "CB_I_IN",
    "CB_J_IN",
    "CB_OUT",
    "BatchedDispatchEngine",
    "BlockAccumulators",
    "charge_block",
    "force_block",
    "ops_per_j_iteration",
    "resident_i_arrays",
    "weighted_ops_per_j",
    "DeviceTimeModel",
    "TTForceBackend",
    "I_QUANTITIES",
    "J_QUANTITIES",
    "OUT_QUANTITIES",
    "PAD_OFFSET",
    "ParticleTiles",
    "assign_tiles_to_cores",
]
