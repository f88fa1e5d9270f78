"""The particle-mesh force backend (``tt-pm`` / ``cpu-pm``) and its twin.

One class serves both registrations: constructed with a Wormhole device
it prices the far-field FFT pipeline through the Metalium layer
(``tt-pm``); constructed without one it models the same pipeline on the
host (``cpu-pm``).  The *numerical* path — CIC deposit, isolated Poisson
solve, CIC gather, short-range correction — is identical in both modes
and runs in float64 on the host, so the two backends are bit-identical
by construction and differ only in modelled time.

Time accounting follows the repo convention: values host-side, cycles
device-side.  The FFT pass and k-space programs are charge-only replays
(:mod:`repro.nbody_pm.fft_kernel`), the near-field correction is priced
through the batched direct-summation engine's op mix restricted to the
neighbour pairs it would actually stream, and the CIC host work uses a
per-particle coefficient calibrated against the existing host pipeline
constant.  :class:`PMDeviceModel` is the analytic twin, pinned against
the charged programs by a unit test exactly like
:class:`~repro.nbody_tt.offload.DeviceTimeModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.protocol import (
    ForceEvaluation,
    HostCostModel,
    TimelineSegment,
    normalize_targets,
)
from ..errors import ConfigurationError, HostApiError
from ..metalium.buffer import DramBuffer
from ..metalium.command_queue import CommandQueue
from ..metalium.host_api import EnqueueProgram, GetCommandQueue
from ..nbody_tt.force_kernel import weighted_ops_per_j
from ..nbody_tt.tiling import assign_tiles_to_cores
from ..wormhole.dtypes import DataFormat
from ..wormhole.params import (
    ChipParams,
    CostParams,
    DEFAULT_COSTS,
    HOST_INIT_S,
    WORMHOLE_N300,
)
from ..wormhole.tile import TILE_ELEMENTS, Tile
from .fft_kernel import (
    BUTTERFLY_OPS,
    KSPACE_OPS,
    build_fft_pass_program,
    build_kspace_program,
    fft_batch_tile_ops,
    fft_batches_per_pass,
    tiles_per_batch,
)
from .mesh import MeshSpec, cic_deposit, cic_gather
from .poisson import PoissonSolver
from .shortrange import near_field_correction

__all__ = [
    "PMForceBackend",
    "PMDeviceModel",
    "PM_HOST_PER_PARTICLE_S",
]

#: Host seconds per particle for the CIC work of one evaluation (the
#: 8-corner mass deposit plus the three 8-corner force gathers): ~1/5 of
#: ``DEFAULT_COSTS.host_per_particle_s``, the calibrated cost of the full
#: per-particle host pipeline (predict/correct/convert), of which the 32
#: strided grid accesses are a comparable fraction of the memory traffic.
PM_HOST_PER_PARTICLE_S = 2.5e-5

#: Sustained host float64 FFT rate assumed for the ``cpu-pm`` reference
#: (a single-socket fraction of the reference host's AVX-512 peak).
_CPU_FFT_FLOPS_PER_S = 8.0e9

#: Screened direct pairs per second for the ``cpu-pm`` near field
#: (the AVX-512 direct kernel rate with the extra erfc/exp evaluations).
_CPU_NEAR_PAIRS_PER_S = 2.5e8

#: Extra SFPU ops per pair-tile the near-field screening adds on top of
#: the direct force kernel's mix: the Gaussian (exp), the polynomial
#: erfc approximation folded into multiplies, and the screen apply.
_NEAR_EXTRA_OPS = {"exp": 1, "mul": 4, "sub": 1}

#: Forward + three inverse 3D FFTs, three axis passes each.
_FFT_PASSES_PER_EVAL = 12

#: CB handshakes per batch across one core's three kernels: the reader's
#: reserve/push, the compute kernel's wait/pop/reserve/push, and the
#: writer's wait/pop — all on the shared core counter.
_CB_SYNCS_PER_BATCH = 8

#: The near/far split scale in units of the cutoff radius: ``a = r_cut /
#: _CUTOFF_PER_SPLIT`` puts the cutoff at ``2.5`` split scales, where the
#: screened tail erfc(2.5) ~ 4e-4 is far below the accuracy gate.
_CUTOFF_PER_SPLIT = 5.0


def _weight_sum(costs: CostParams, ops: dict[str, int]) -> float:
    return sum(n * costs.sfpu_weight(op) for op, n in ops.items())


@dataclass(frozen=True)
class PMDeviceModel:
    """Analytic projection of the PM pipeline's modelled time.

    Mirrors the charges of the FFT kernel set and the near-field pricing
    in closed form, for benchmark extrapolation and the cross-check test
    that pins the model against the charged programs.
    """

    mesh: int
    n_cores: int = 8
    softened: bool = False
    chip: ChipParams = WORMHOLE_N300
    costs: CostParams = DEFAULT_COSTS

    @property
    def m2(self) -> int:
        """Doubled (isolated-boundary) grid edge."""
        return 2 * self.mesh

    def worst_core_batches(self) -> int:
        """Batches on the most loaded core (round-robin assignment)."""
        return -(-fft_batches_per_pass(self.m2) // self.n_cores)

    def _cb_sync_cycles(self) -> float:
        return (
            self.worst_core_batches()
            * _CB_SYNCS_PER_BATCH * self.costs.cb_sync_cycles
        )

    def pass_compute_cycles(self) -> float:
        """Compute cycles the slowest core charges in one FFT pass."""
        return (
            self.worst_core_batches()
            * fft_batch_tile_ops(self.m2)
            * _weight_sum(self.costs, BUTTERFLY_OPS)
            * self.costs.sfpu_cycles_per_tile_op
            + self._cb_sync_cycles()
        )

    def kspace_compute_cycles(self) -> float:
        """Compute cycles of one k-space (Green's multiply + gradient) pass."""
        return (
            self.worst_core_batches()
            * tiles_per_batch(self.m2)
            * _weight_sum(self.costs, KSPACE_OPS)
            * self.costs.sfpu_cycles_per_tile_op
            + self._cb_sync_cycles()
        )

    def fft_device_seconds(self) -> float:
        """Compute time of the full far-field solve on the device."""
        cycles = (
            _FFT_PASSES_PER_EVAL * self.pass_compute_cycles()
            + 3 * self.kspace_compute_cycles()
        )
        return cycles / self.chip.clock_hz

    def near_field_seconds(self, n_pairs: int) -> float:
        """Device time for ``n_pairs`` screened direct interactions."""
        if n_pairs <= 0:
            return 0.0
        w = weighted_ops_per_j(
            self.costs, softened=self.softened, diagonal=False
        ) + _weight_sum(self.costs, _NEAR_EXTRA_OPS)
        tile_ops = -(-n_pairs // TILE_ELEMENTS)
        worst = -(-tile_ops // self.n_cores)
        return (
            worst * w * self.costs.sfpu_cycles_per_tile_op
            / self.chip.clock_hz
        )

    def host_cic_seconds(self, n: int) -> float:
        """Host CIC work (deposit + 3-component gather) per evaluation."""
        return n * PM_HOST_PER_PARTICLE_S

    def host_cic_subset_seconds(self, n: int, n_active: int) -> float:
        """Host CIC work when only ``n_active`` rows are gathered.

        The deposit still touches every particle (the mesh sources from
        the full mass distribution) but the three force gathers only
        visit the active rows.  Of the four 8-corner passes, one is the
        deposit and three are gathers, hence the 1/4 : 3/4 split of the
        per-particle coefficient.
        """
        return PM_HOST_PER_PARTICLE_S * (0.25 * n + 0.75 * n_active)

    def host_fft_seconds(self) -> float:
        """``cpu-pm``: the four host FFTs at the assumed sustained rate."""
        points = self.m2**3
        flops = 4 * 5.0 * points * np.log2(points)
        return flops / _CPU_FFT_FLOPS_PER_S

    def eval_seconds(self, n: int, n_pairs: int = 0) -> float:
        """Modelled force-evaluation seconds for the ``tt-pm`` pipeline."""
        return (
            self.host_cic_seconds(n)
            + self.fft_device_seconds()
            + self.near_field_seconds(n_pairs)
        )


class PMForceBackend:
    """Particle-mesh far field + screened near field, device- or host-priced."""

    def __init__(
        self,
        device=None,
        *,
        mesh: int = 32,
        cutoff: float = 5.0,
        softening: float = 0.0,
        cores: int = 8,
        trace=None,
    ) -> None:
        if mesh < 32 or mesh > 256 or mesh & (mesh - 1):
            raise ConfigurationError(
                f"mesh must be a power of two in [32, 256], got {mesh}"
            )
        if cutoff < 0:
            raise ConfigurationError(f"negative cutoff {cutoff}")
        if softening < 0:
            raise ConfigurationError(f"negative softening {softening}")
        self.mesh = mesh
        self.cutoff = float(cutoff)
        self.softening = softening
        self.fmt = DataFormat.FLOAT32
        self.devices = [] if device is None else [device]
        self.queues: list[CommandQueue] = []
        self.host_cost = HostCostModel()  # host-modelled cpu-pm: none
        if device is not None:
            device.require_open()
            self.host_cost = HostCostModel(
                device.costs.host_per_particle_s, init_seconds=HOST_INIT_S
            )
            chip = device.chip
            if not (1 <= cores <= chip.n_tensix_cores):
                raise ConfigurationError(
                    f"core count {cores} outside [1, {chip.n_tensix_cores}]"
                )
            try:
                self.queues = [GetCommandQueue(device)]
            except HostApiError:
                self.queues = [CommandQueue(device)]
        self.n_cores = cores
        self.engine = "pm-fft"
        self.solver = PoissonSolver()
        self.model = PMDeviceModel(
            mesh=mesh, n_cores=cores, softened=softening > 0.0
        )
        self._placeholder = Tile.zeros(self.fmt)
        self._buffers: dict[str, tuple[DramBuffer, DramBuffer]] = {}
        self._programs: dict[tuple[str, str], object] = {}
        self._grid_bytes_uploaded = 0
        self._lint = "off"
        self._sanitize: bool | None = None
        #: last evaluation's mesh + grids, kept for tests and diagnostics
        self.last_mesh_spec: MeshSpec | None = None
        self.last_grids: dict[str, np.ndarray] = {}
        kind = "tt-pm" if device is not None else "cpu-pm"
        self.name = (
            f"{kind}-mesh{mesh}-cores{cores}" if device is not None
            else f"{kind}-mesh{mesh}"
        )
        self._trace = None
        if trace is not None:
            self.trace = trace

    # -- observability ------------------------------------------------------

    @property
    def trace(self):
        """The Scope trace this backend narrates into (``None`` = off)."""
        return self._trace

    @trace.setter
    def trace(self, trace) -> None:
        self._trace = trace
        for queue in self.queues:
            queue.trace = trace

    def set_checks(self, *, lint: str = "off",
                   sanitize: bool | None = None) -> None:
        """Lint and/or sanitize every FFT program (see
        :meth:`~repro.nbody_tt.offload.TTForceBackend.set_checks`)."""
        self._lint = lint
        self._sanitize = sanitize

    def residency_counters(self) -> dict[str, int]:
        """Monotonic counters for the grid-side caches and uploads."""
        return {
            "green_cache_hits": self.solver.green_cache_hits,
            "green_cache_misses": self.solver.green_cache_misses,
            "grid_bytes_uploaded": self._grid_bytes_uploaded,
        }

    def _sync_residency_metrics(self) -> None:
        trace = self._trace
        metrics = getattr(trace, "metrics", None) if trace is not None else None
        if metrics is None:
            return
        for name, total in self.residency_counters().items():
            counter = metrics.counter(f"residency.{name}")
            if total > counter.value:
                counter.add(total - counter.value)

    # -- device plumbing ----------------------------------------------------

    def _ensure_buffers(self) -> None:
        if self._buffers:
            return
        device = self.devices[0]
        n_tiles = self.model.m2**3 // TILE_ELEMENTS
        for key in ("R0", "R1", "W0", "W1"):
            self._buffers[key] = (
                DramBuffer(device, n_tiles, self.fmt),
                DramBuffer(device, n_tiles, self.fmt),
            )

    def _program(self, src: str, dst: str, *, kspace: bool = False):
        """Build (once) one cached pass or k-space program."""
        key = (src, dst)
        cached = self._programs.get(key)
        if cached is not None:
            return cached
        build = build_kspace_program if kspace else build_fft_pass_program
        program = build(
            self._buffers[src], self._buffers[dst],
            m2=self.model.m2, n_cores=self.n_cores, fmt=self.fmt,
            placeholder=self._placeholder,
        )
        assignment = assign_tiles_to_cores(
            fft_batches_per_pass(self.model.m2), self.n_cores
        )
        for core_index in range(self.n_cores):
            program.set_runtime_args(
                core_index, {"batches": assignment[core_index]}
            )
        # every program here is charge-only: its charges depend on the
        # runtime args, the CBs, the buffers and these
        program.replay_key = (
            "pm-kspace" if kspace else "pm-fft", self.model.m2, self.fmt,
        )
        program.replay_buffers = (*self._buffers[src], *self._buffers[dst])
        self._programs[key] = program
        return program

    def _enqueue(self, src: str, dst: str, *, kspace: bool = False) -> float:
        return EnqueueProgram(
            self.queues[0], self._program(src, dst, kspace=kspace),
            lint=self._lint, sanitize=self._sanitize,
        )

    # -- evaluation ---------------------------------------------------------

    def _solve(self, pos, vel, mass, targets=None):
        """The shared numerical path: far-field grids + near correction.

        With ``targets`` the mesh side still deposits the full mass
        distribution and runs the full Poisson solve (the far field
        sources from everyone), but the force gathers and the near-field
        correction touch only the target rows; the returned arrays hold
        just those rows, bit-identical to the same rows of a full solve.
        """
        spec = MeshSpec.fit(pos, self.mesh)
        r_cut = self.cutoff * spec.spacing
        split_scale = (
            r_cut / _CUTOFF_PER_SPLIT if r_cut > 0.0 else spec.spacing
        )
        grid = cic_deposit(pos, mass, spec)
        acc_grids = self.solver.accelerations(grid, spec, split_scale)
        gather_pos = pos if targets is None else pos[targets]
        acc = np.stack(
            [cic_gather(acc_grids[c], gather_pos, spec) for c in range(3)],
            axis=1,
        )
        # The mesh resolves the smooth far field only: its jerk share is
        # below the force error floor, so the far-field jerk is zero and
        # the near-field term below carries the exact screened jerk.
        jerk = np.zeros_like(acc)
        n_pairs = 0
        if r_cut > 0.0:
            acc_near, jerk_near, n_pairs = near_field_correction(
                pos, vel, mass, r_cut=r_cut, split_scale=split_scale,
                softening=self.softening, targets=targets,
            )
            if targets is not None:
                acc_near = acc_near[targets]
                jerk_near = jerk_near[targets]
            acc += acc_near
            jerk += jerk_near
        self.last_mesh_spec = spec
        self.last_grids = {
            "mass": grid,
            "ax": acc_grids[0], "ay": acc_grids[1], "az": acc_grids[2],
        }
        return acc, jerk, n_pairs

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        n = len(pos)
        acc, jerk, n_pairs = self._solve(pos, vel, mass)
        cic_s = self.model.host_cic_seconds(n)
        near_s_device = self.model.near_field_seconds(n_pairs)
        if self.devices:
            segments = self._charge_device(cic_s, near_s_device, n_pairs)
        else:
            segments = self._charge_host(cic_s, n_pairs)
        self._sync_residency_metrics()
        return ForceEvaluation(acc, jerk, segments=tuple(segments))

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Subset evaluation: full-mesh far field, target-only near field.

        The deposit and FFT pipeline run (and are charged) in full — the
        far field sources from the whole mass distribution regardless of
        who is being advanced — while the CIC gathers visit only the
        target rows and the near-field correction evaluates only the
        pairs those rows see, with both priced accordingly.
        """
        n = len(pos)
        idx = normalize_targets(targets, n)
        acc, jerk, n_pairs = self._solve(pos, vel, mass, targets=idx)
        cic_s = self.model.host_cic_subset_seconds(n, idx.size)
        near_s_device = self.model.near_field_seconds(n_pairs)
        if self.devices:
            segments = self._charge_device(cic_s, near_s_device, n_pairs)
        else:
            segments = self._charge_host(cic_s, n_pairs)
        self._sync_residency_metrics()
        return ForceEvaluation(acc, jerk, segments=tuple(segments))

    def _charge_device(self, cic_s: float, near_s: float,
                       n_pairs: int) -> list[TimelineSegment]:
        """tt-pm: replay the FFT kernel set charge-only, price the rest."""
        queue = self.queues[0]
        device = self.devices[0]
        phase_mark = len(queue.phases)
        self._ensure_buffers()

        queue.record_host(cic_s, "pm.cic")
        for buf in self._buffers["R0"]:
            queue.charge_write_buffer(buf)
            self._grid_bytes_uploaded += buf.size_bytes

        device.clear_counters()
        device_s = 0.0
        # Forward 3D FFT of the deposited mass grid: R0 -> R1 -> R0 -> R1.
        for src, dst in (("R0", "R1"), ("R1", "R0"), ("R0", "R1")):
            device_s += self._enqueue(src, dst)
        # Per acceleration component: Green's multiply + gradient into the
        # work pair, inverse 3D FFT, then fetch the real plane.
        for _component in range(3):
            device_s += self._enqueue("R1", "W0", kspace=True)
            for src, dst in (("W0", "W1"), ("W1", "W0"), ("W0", "W1")):
                device_s += self._enqueue(src, dst)
            queue.charge_read_buffer(self._buffers["W1"][0])

        segments = [
            TimelineSegment(p.tag, p.duration_s, p.detail)
            for p in queue.phases[phase_mark:]
            if p.tag != "device"  # merged into the single segment below
        ]
        segments.append(
            TimelineSegment("device", device_s, "pm far field (fft)")
        )
        if n_pairs:
            segments.append(
                TimelineSegment("device", near_s, "pm near field")
            )
            if self._trace is not None:
                self._trace.add_span(
                    "pm.near-field", near_s, category="device",
                    pairs=n_pairs,
                )
        return segments

    def _charge_host(self, cic_s: float,
                     n_pairs: int) -> list[TimelineSegment]:
        """cpu-pm: the same pipeline priced on the reference host."""
        segments = [
            TimelineSegment("host", cic_s, "pm.cic"),
            TimelineSegment(
                "host", self.model.host_fft_seconds(), "pm.fft"
            ),
        ]
        if n_pairs:
            segments.append(TimelineSegment(
                "host", n_pairs / _CPU_NEAR_PAIRS_PER_S, "pm.near-field"
            ))
        if self._trace is not None:
            for seg in segments:
                self._trace.add_span(
                    seg.detail, seg.seconds, category="host"
                )
        return segments
