"""Wormhole n300 chip parameters and calibrated performance constants.

Two kinds of numbers live here and are kept deliberately separate:

* **Published architecture constants** (``ChipParams``) taken from the paper's
  Section 2 and Tenstorrent's public documentation: 64 Tensix cores, five baby
  RISC-V cores per Tensix, 1 GHz clock, 1.5 MB L1 SRAM, 4 KiB srcA/srcB
  registers (1024 FP32 values), a 32 KiB dst register organised as 16
  segments, 12 GB GDDR6 behind a 192-bit bus, two NoCs, two QSFP-DD 200 Gbps
  ports, PCIe 4.0 x16, and a board power budget of up to 160 W.

* **Calibrated effective cost constants** (``CostParams``) that make the
  simulator's end-to-end time model land on the paper's measured
  time-to-solution (301.40 s for N = 102 400 over 10 cycles on one card).
  These are *effective* rates: they fold issue overhead, unpack/pack
  serialisation, CB back-pressure stalls and everything else the real
  hardware pipeline pays, because the paper only reports end-to-end numbers.
  The model's structure (an O(N^2) device term that scales with core count,
  an O(N) single-threaded host term, per-launch and transfer overheads)
  is what carries the reproduced *shape*; the constants pin its scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["ChipParams", "CostParams", "WORMHOLE_N300", "DEFAULT_COSTS",
           "HOST_INIT_S"]


@dataclass(frozen=True)
class ChipParams:
    """Published Wormhole n300 architecture constants."""

    #: Programmable Tensix compute tiles per chip.
    n_tensix_cores: int = 64
    #: Compute-tile grid dimensions (Wormhole: 8x8).
    grid_w: int = 8
    grid_h: int = 8
    #: Baby RISC-V cores per Tensix: 2 data movement (NC, B) + 3 compute
    #: (T0 UNPACK, T1 MATH, T2 PACK).
    n_riscv_per_tensix: int = 5
    #: Baby RISC-V clock frequency [Hz]; the whole tile runs at 1 GHz.
    clock_hz: float = 1.0e9
    #: L1 SRAM per Tensix core [bytes] (1.5 MB).
    l1_bytes: int = 1_536 * 1024
    #: srcA/srcB source registers: 4 KiB each, 1024 FP32 values.
    src_register_bytes: int = 4 * 1024
    src_register_fp32_capacity: int = 1024
    #: dst register: 32 KiB organised into 16 segments; holds 16 tiles in
    #: BFP16 format, effectively halved (8 tiles) in FP32.
    dst_register_bytes: int = 32 * 1024
    dst_register_segments: int = 16
    dst_tiles_bfp16: int = 16
    dst_tiles_fp32: int = 8
    #: Tile geometry used by tilized tensors: 32 x 32 elements.
    tile_rows: int = 32
    tile_cols: int = 32
    #: Off-chip GDDR6: capacity and bus width.
    dram_bytes: int = 12 * 1024**3
    dram_bus_bits: int = 192
    #: Effective GDDR6 bandwidth [bytes/s].  12 GT/s GDDR6 on a 192-bit bus
    #: gives 288 GB/s theoretical; we model ~80% efficiency.
    dram_bandwidth_bytes_per_s: float = 288e9 * 0.80
    #: Number of independent NoC rings per chip.
    n_nocs: int = 2
    #: NoC link width [bytes/cycle/router] at core clock.
    noc_bytes_per_cycle: int = 32
    #: Ethernet cores (ERISC) and QSFP-DD port rate for chip-to-chip links.
    n_erisc: int = 16
    qsfp_gbps: float = 200.0
    #: PCIe 4.0 x16 effective host bandwidth [bytes/s] (~2 GB/s per lane
    #: raw, modelled at ~80% efficiency => ~25 GB/s).
    pcie_bandwidth_bytes_per_s: float = 25e9
    #: Board-level maximum power [W] ("operates at up to 160 W").
    board_power_max_w: float = 160.0

    @property
    def tile_elements(self) -> int:
        """Elements per 32x32 tile (1024, matching the srcA/srcB capacity)."""
        return self.tile_rows * self.tile_cols

    def __post_init__(self) -> None:
        if self.tile_rows * self.tile_cols != self.src_register_fp32_capacity:
            raise ConfigurationError(
                "tile geometry must match srcA/srcB FP32 capacity: "
                f"{self.tile_rows}x{self.tile_cols} != "
                f"{self.src_register_fp32_capacity}"
            )
        if self.grid_w * self.grid_h < self.n_tensix_cores:
            raise ConfigurationError(
                f"{self.n_tensix_cores} cores do not fit a "
                f"{self.grid_w}x{self.grid_h} grid"
            )


@dataclass(frozen=True)
class CostParams:
    """Calibrated effective cycle costs for the performance model.

    Calibration target (paper Section 4): one Wormhole n300, N = 102 400,
    10 Hermite cycles => 301.40 s end-to-end, of which the power trace in
    Fig. 4 shows alternating device-busy peaks (26-33 W) and host-phase dips,
    i.e. both device and host contribute materially to each cycle.
    """

    #: Effective cycles for one element-wise SFPU tile operation on a full
    #: 32x32 tile (unary or binary).  Folds unpack/math/pack serialisation
    #: and issue overhead; calibrated, not a hardware datapath latency.
    #: Calibration (paper scale, N = 102 400, 64 cores): the worst core owns
    #: 2 of the 100 i-tiles and issues 2 x 100 x 1024 x 34.75 ~ 7.12e6
    #: weighted tile ops per force evaluation; at 2248 cycles each that is
    #: ~16.0 s per evaluation, which with 11 evaluations plus the host
    #: phases reproduces the measured 301.4 s time-to-solution.
    sfpu_cycles_per_tile_op: float = 2248.0
    #: Relative cost multipliers per op family.  Transcendental/iterative
    #: ops (rsqrt) cost more than simple arithmetic, as on real SFPUs.
    sfpu_op_weights: dict = field(
        default_factory=lambda: {
            "add": 1.0,
            "sub": 1.0,
            "mul": 1.0,
            "mac": 1.0,
            "square": 1.0,
            "copy": 0.5,
            "scalar": 0.75,
            "rsqrt": 2.0,
            "sqrt": 2.0,
            "recip": 1.6,
            "exp": 2.2,
            "log": 2.2,
            "abs": 0.5,
            "neg": 0.5,
            "max": 1.0,
            "min": 1.0,
            "where": 1.2,
            "reduce": 1.5,
        }
    )
    #: Cycles for the tensor-FPU to multiply two 32x32 tiles (used by the
    #: matmul path exercised in tests/ablations, not by the N-body port).
    fpu_cycles_per_tile_matmul: float = 16.0e3
    #: Fixed cycles to move one tile between L1 and srcA/srcB or dst
    #: (unpacker / packer overhead outside the folded SFPU cost).
    unpack_cycles_per_tile: float = 1.0e3
    pack_cycles_per_tile: float = 1.0e3
    #: NoC per-transaction fixed cost [cycles] on top of the bandwidth term.
    noc_transaction_cycles: float = 100.0
    #: Circular-buffer synchronisation cost per wait/reserve call [cycles].
    cb_sync_cycles: float = 40.0
    #: Host-side per-launch overhead [s]: kernel dispatch through the
    #: command queue, per program enqueue.
    host_launch_overhead_s: float = 1.5e-3
    #: Host-side single-threaded per-particle per-cycle cost [s] covering the
    #: FP64 predictor/corrector plus FP64<->FP32 conversion and tilize.
    #: Calibrated so the host phases of a paper-scale step take ~12 s,
    #: matching the Fig. 4 dips ("calculations that are not offloaded are
    #: handled by the host CPU" with a single OpenMP thread).
    host_per_particle_s: float = 1.1807e-4
    #: Device reset duration [s] (virtual time).
    reset_duration_s: float = 8.0
    #: Program compile/load time, first enqueue only [s].
    program_build_s: float = 2.5

    def sfpu_weight(self, op: str) -> float:
        """Relative cycle weight for an SFPU op family; unknown ops cost 1."""
        return self.sfpu_op_weights.get(op, 1.0)


#: Module-level defaults shared by the simulator unless a test overrides them.
WORMHOLE_N300 = ChipParams()
DEFAULT_COSTS = CostParams()

#: One-time host initialisation of an accelerated job [s], before its
#: program build (Fig. 4: the cards still idle at job start).
HOST_INIT_S = 2.0

#: The previous-generation Grayskull e150 (the accelerator of Brown &
#: Barton's stencil work the paper cites): more Tensix cores but slower
#: LPDDR4 memory, no chip-to-chip Ethernet, and a lower board power
#: budget.  Used by the generation-comparison bench, not by the paper's
#: experiments.
GRAYSKULL_E150 = ChipParams(
    n_tensix_cores=120,
    grid_w=12,
    grid_h=10,
    clock_hz=1.2e9,
    dram_bytes=8 * 1024**3,
    dram_bus_bits=128,
    # 8 channels LPDDR4 @ ~118 GB/s theoretical; same 80% efficiency model
    dram_bandwidth_bytes_per_s=118.4e9 * 0.80,
    n_erisc=0,
    qsfp_gbps=0.0,
    board_power_max_w=200.0,
)
