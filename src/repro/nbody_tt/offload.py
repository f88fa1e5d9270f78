"""The Wormhole force backend and the analytic device time model.

:class:`TTForceBackend` is the functional port: it tilizes particle data,
uploads it through the metalium host API, runs the read/compute/write
kernel pipeline across the selected Tensix cores of one device, and
untilizes acceleration and jerk — all in genuine device precision, with
every phase (PCIe, launch, device compute) accounted on the timeline.

:class:`DeviceTimeModel` is the analytic twin used where functional
simulation would be prohibitive (the N = 102 400 campaign): it projects the
same cost model the kernels charge, without doing the math.  A unit test
pins the two against each other at small N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.protocol import (
    ForceEvaluation,
    TimelineSegment,
    normalize_targets,
)
from ..errors import ConfigurationError, HostApiError, NBodyError
from ..metalium.buffer import DramBuffer
from ..metalium.command_queue import CommandQueue
from ..metalium.kernel import CBConfig, CoreRange, KernelSpec, Program
from ..wormhole.device import WormholeDevice
from ..wormhole.dtypes import DataFormat, storage_bytes_per_element
from ..wormhole.ethernet import EthernetFabric
from ..wormhole.params import ChipParams, CostParams, DEFAULT_COSTS, WORMHOLE_N300
from ..wormhole.riscv import RiscvRole
from ..wormhole.tile import TILE_ELEMENTS, Tile, tiles_needed
from .engine import BatchedDispatchEngine
from .force_kernel import (
    CB_I_IN,
    CB_J_IN,
    CB_OUT,
    BlockAccumulators,
    charge_block,
    force_block,
    resident_i_arrays,
    weighted_ops_per_j,
)
from .tiling import (
    I_QUANTITIES,
    J_QUANTITIES,
    OUT_QUANTITIES,
    ParticleTiles,
    TilizeCache,
    assign_tiles_to_cores,
    subset_rows_from_tiles,
)

__all__ = ["TTForceBackend", "DeviceTimeModel"]

#: Execution engines for the functional backend.  "batched" computes tile
#: values through :class:`BatchedDispatchEngine` and replays the kernel
#: program in charge-only mode (bit-identical values, identical charges,
#: much faster wall clock); "per-block" is the original fully in-band path.
_ENGINES = ("batched", "per-block")

#: Compiled-program cache ceiling.  A block-timestep integrator dispatches
#: a different i-tile subset nearly every block, and each subset compiles
#: (and caches) its own program; past this many entries the cache is
#: cleared wholesale — recompiling is cheap in the simulator and the real
#: SDK bounds its kernel cache the same way.
_PROGRAM_CACHE_MAX = 256


def _make_read_kernel(in_bufs, my_tiles, n_tiles, *, charge_only=False,
                      placeholder=None):
    """Factory for the read kernel (data movement, NC slot).

    The paper's double for-loop: the outer loop streams this core's i-tile
    pages, the inner loop streams the full replicated j-tile sequence for
    each of them.  In ``charge_only`` mode every DRAM/NoC transfer charges
    the same cycles and byte counters but moves no data: ``placeholder``
    pages flow through the CBs so the dataflow (back-pressure, scheduler
    rounds) is exactly that of the real program.
    """

    def read_kernel(core, args):
        cb_i = core.get_cb(CB_I_IN)
        cb_j = core.get_cb(CB_J_IN)
        for it in my_tiles:
            yield from cb_i.reserve_back(len(I_QUANTITIES))
            if charge_only:
                for q in I_QUANTITIES:
                    in_bufs[q].noc_read_tile_cost(core.core_id, it)
                cb_i.write_pages([placeholder] * len(I_QUANTITIES))
            else:
                cb_i.write_pages(
                    in_bufs[q].noc_read_tile(core.core_id, it)
                    for q in I_QUANTITIES
                )
            cb_i.push_back(len(I_QUANTITIES))
            for jt in range(n_tiles):
                yield from cb_j.reserve_back(len(J_QUANTITIES))
                if charge_only:
                    for q in J_QUANTITIES:
                        in_bufs[q].noc_read_tile_cost(core.core_id, jt)
                    cb_j.write_pages([placeholder] * len(J_QUANTITIES))
                else:
                    cb_j.write_pages(
                        in_bufs[q].noc_read_tile(core.core_id, jt)
                        for q in J_QUANTITIES
                    )
                cb_j.push_back(len(J_QUANTITIES))

    return read_kernel


def _make_compute_kernel(my_tiles, n_tiles, softening, fmt, *,
                         charge_only=False, placeholder=None):
    """Factory for the compute kernel (T1/MATH slot)."""

    def compute_kernel(core, args):
        cb_i = core.get_cb(CB_I_IN)
        cb_j = core.get_cb(CB_J_IN)
        cb_out = core.get_cb(CB_OUT)
        for it in my_tiles:
            yield from cb_i.wait_front(len(I_QUANTITIES))
            i_pages = cb_i.pop_front(len(I_QUANTITIES))
            if not charge_only:
                acc = BlockAccumulators(fmt)
                # the resident pages convert to working precision once per
                # i-tile, not once per (i, j) block
                i_arrays = resident_i_arrays(i_pages, fmt)
            for jt in range(n_tiles):
                yield from cb_j.wait_front(len(J_QUANTITIES))
                j_pages = cb_j.pop_front(len(J_QUANTITIES))
                diagonal = jt == it
                if not charge_only:
                    force_block(
                        i_pages, j_pages, acc,
                        softening=softening, fmt=fmt, diagonal=diagonal,
                        i_arrays=i_arrays,
                    )
                charge_block(
                    core, TILE_ELEMENTS,
                    softened=softening > 0.0, diagonal=diagonal,
                )
            yield from cb_out.reserve_back(len(OUT_QUANTITIES))
            if charge_only:
                cb_out.write_pages([placeholder] * len(OUT_QUANTITIES))
            else:
                cb_out.write_pages(acc.to_tiles())
            cb_out.push_back(len(OUT_QUANTITIES))

    return compute_kernel


def _make_write_kernel(out_bufs, my_tiles, *, charge_only=False):
    """Factory for the write kernel (data movement, B slot)."""

    def write_kernel(core, args):
        cb_out = core.get_cb(CB_OUT)
        for it in my_tiles:
            yield from cb_out.wait_front(len(OUT_QUANTITIES))
            pages = cb_out.pop_front(len(OUT_QUANTITIES))
            for q, page in zip(OUT_QUANTITIES, pages):
                if charge_only:
                    out_bufs[q].noc_write_tile_cost(core.core_id, it)
                else:
                    out_bufs[q].noc_write_tile(core.core_id, it, page)

    return write_kernel


class TTForceBackend:
    """Force evaluation offloaded to one (simulated) Wormhole device.

    Several cards are driven by :class:`~repro.backends.ShardedTTBackend`,
    which holds one of these per card.
    """

    def __init__(
        self,
        device: WormholeDevice,
        *,
        n_cores: int | None = None,
        softening: float = 0.0,
        fmt: DataFormat = DataFormat.FLOAT32,
        cb_buffering: int = 2,
        engine: str | None = None,
        trace=None,
    ) -> None:
        if not isinstance(device, WormholeDevice):
            raise ConfigurationError(
                f"expected one WormholeDevice, got {device!r}; "
                "ShardedTTBackend drives several cards"
            )
        device.require_open()
        #: one-element lists, the shape every offload backend exposes to
        #: the ``--profile`` report and to ``ShardedTTBackend``
        self.devices = [device]
        chip = device.chip
        self.n_cores = n_cores if n_cores is not None else chip.n_tensix_cores
        if not (1 <= self.n_cores <= chip.n_tensix_cores):
            raise ConfigurationError(
                f"core count {self.n_cores} outside [1, {chip.n_tensix_cores}]"
            )
        if softening < 0:
            raise ConfigurationError(f"negative softening {softening}")
        if cb_buffering < 1:
            raise ConfigurationError(
                f"cb_buffering must be >= 1, got {cb_buffering}"
            )
        engine = engine or "batched"
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {_ENGINES}"
            )
        self.engine = engine
        self.softening = softening
        self.fmt = fmt
        #: j-stream CB depth in page groups: 1 = single-buffered (the
        #: reader stalls while the compute kernel consumes), 2 = the
        #: paper's overlap of computation and communication
        self.cb_buffering = cb_buffering
        # reuse the device's registered command queue when it was opened
        # through the host API, so callers can inspect the phases and
        # scheduler statistics afterwards
        from ..metalium.host_api import GetCommandQueue

        try:
            self.queues = [GetCommandQueue(device)]
        except HostApiError:
            self.queues = [CommandQueue(device)]
        self._buffers: dict[str, DramBuffer] = {}
        self._out_buffers: dict[str, DramBuffer] = {}
        self._n_tiles_allocated: int | None = None
        #: compiled programs are cached per (charge_only, tile assignment),
        #: as the real host code compiles its kernels once and re-enqueues
        #: them every evaluation; the assignment is part of the key because
        #: a sharded composite may hand this backend different i-tile
        #: subsets of the same geometry
        self._programs: dict[tuple[bool, tuple[int, ...]], Program] = {}
        #: tilize cache: unchanged particle columns skip re-quantisation
        self._tilize_cache = TilizeCache()
        #: upload cache: column tile-lists (by identity) currently resident
        #: in the device's DRAM input buffers
        self._uploaded: dict[str, list[Tile]] = {}
        #: cross-timestep residency: callers bump this (or call
        #: invalidate_residency) when particle state changes; identical
        #: generations let the tilize cache skip even the value comparison
        self.data_generation: int | None = None
        self._upload_skipped_bytes = 0
        self._engine_obj: BatchedDispatchEngine | None = None
        self._placeholder = Tile.zeros(fmt)
        self.name = (
            f"tt-wormhole-dev{len(self.devices)}-cores{self.n_cores}-{fmt.value}"
        )
        self._trace = None
        if trace is not None:
            self.trace = trace

    # -- observability ---------------------------------------------------------

    @property
    def trace(self):
        """The Scope trace this backend narrates into (``None`` = untraced).

        Setting it (directly, via the constructor, or by
        ``Simulation(trace=...)``, which assigns any backend exposing a
        ``trace`` attribute) propagates to every command queue, so
        Metalium-level spans — ``EnqueueProgram``, per-core execution, PCIe
        transfers — land on the same trace as the driver's phases.
        """
        return self._trace

    @trace.setter
    def trace(self, trace) -> None:
        self._trace = trace
        for queue in self.queues:
            queue.trace = trace

    # -- cross-timestep residency ---------------------------------------------

    def residency_counters(self) -> dict[str, int]:
        """Monotonic counters for the tilize and upload caches."""
        return {
            "tilize_cache_hits": self._tilize_cache.hits,
            "tilize_cache_misses": self._tilize_cache.misses,
            "upload_skipped_bytes": self._upload_skipped_bytes,
        }

    def invalidate_residency(self) -> None:
        """Force the next evaluation to re-tilize and re-upload everything."""
        self._tilize_cache.invalidate()
        self._uploaded.clear()

    def _sync_residency_metrics(self) -> None:
        """Mirror the residency counters into the trace's MetricsRegistry."""
        trace = self._trace
        metrics = getattr(trace, "metrics", None) if trace is not None else None
        if metrics is None:
            return
        for name, total in self.residency_counters().items():
            counter = metrics.counter(f"residency.{name}")
            if total > counter.value:
                counter.add(total - counter.value)

    # -- buffer management ----------------------------------------------------

    def _ensure_buffers(self, n_tiles: int) -> None:
        if self._n_tiles_allocated == n_tiles:
            return
        self._programs.clear()  # geometry changed: recompile
        self._uploaded.clear()  # fresh buffers hold nothing yet
        for store in (self._buffers, self._out_buffers):
            for buf in store.values():
                if buf.is_live:
                    buf.deallocate()
        dev = self.devices[0]
        self._buffers = {
            q: DramBuffer(dev, n_tiles, self.fmt) for q in J_QUANTITIES
        }
        self._out_buffers = {
            q: DramBuffer(dev, n_tiles, self.fmt) for q in OUT_QUANTITIES
        }
        self._n_tiles_allocated = n_tiles

    def _program_for(self, my_device_tiles: list[int], n_tiles: int, *,
                     charge_only: bool = False) -> Program:
        """Build (once) the read/compute/write program for ``my_device_tiles``.

        One kernel source is shared by all cores; per-core work arrives
        through runtime args, matching TT-Metalium's model.  The program is
        cached so the one-time compile cost is charged once per job, as on
        the real SDK.  ``charge_only`` programs (the batched engine's cost
        replay) run the same kernels with the data movement and force math
        elided — identical charges, CB dynamics and scheduler rounds.
        """
        cache_key = (charge_only, tuple(my_device_tiles))
        cached = self._programs.get(cache_key)
        if cached is not None:
            return cached
        if len(self._programs) >= _PROGRAM_CACHE_MAX:
            self._programs.clear()
        program = Program(core_range=CoreRange(0, self.n_cores))
        program.add_cb(
            CBConfig(CB_J_IN, self.cb_buffering * len(J_QUANTITIES), self.fmt)
        )
        program.add_cb(CBConfig(CB_I_IN, len(I_QUANTITIES), self.fmt))
        program.add_cb(CBConfig(CB_OUT, 2 * len(OUT_QUANTITIES), self.fmt))
        placeholder = self._placeholder
        program.add_kernel(KernelSpec(
            "read", RiscvRole.NC, "data_movement",
            lambda core, args: _make_read_kernel(
                self._buffers, args["my_tiles"], args["n_tiles"],
                charge_only=charge_only, placeholder=placeholder,
            )(core, args),
        ))
        program.add_kernel(KernelSpec(
            "compute", RiscvRole.T1, "compute",
            lambda core, args: _make_compute_kernel(
                args["my_tiles"], args["n_tiles"],
                self.softening, self.fmt,
                charge_only=charge_only, placeholder=placeholder,
            )(core, args),
        ))
        program.add_kernel(KernelSpec(
            "write", RiscvRole.B, "data_movement",
            lambda core, args: _make_write_kernel(
                self._out_buffers, args["my_tiles"],
                charge_only=charge_only,
            )(core, args),
        ))
        core_tiles = assign_tiles_to_cores(len(my_device_tiles), self.n_cores)
        for core_index in range(self.n_cores):
            mine = [my_device_tiles[k] for k in core_tiles[core_index]]
            program.set_runtime_args(
                core_index, {"my_tiles": mine, "n_tiles": n_tiles}
            )
        self._programs[cache_key] = program
        return program

    # -- main entry ---------------------------------------------------------

    def _upload_j_stream(self, tiles: ParticleTiles) -> None:
        """Upload the replicated j-stream, skipping columns already resident.

        The tilize cache returns the *same* tile-list object for unchanged
        columns, so an identity check suffices: a hit charges the modelled
        transfer (the device-side accounting is unchanged) but skips the
        host-side re-encode and store.
        """
        queue = self.queues[0]
        column_bytes = (
            tiles.n_tiles * TILE_ELEMENTS * storage_bytes_per_element(self.fmt)
        )
        for q in J_QUANTITIES:
            col = tiles.columns[q]
            if self._uploaded.get(q) is col:
                queue.charge_write_buffer(self._buffers[q])
                self._upload_skipped_bytes += column_bytes
            else:
                queue.enqueue_write_buffer(self._buffers[q], col)
                self._uploaded[q] = col

    def compute_partial(
        self, tiles: ParticleTiles, tile_indices: list[int]
    ) -> tuple[dict[str, list[Tile | None]], list[TimelineSegment], float]:
        """Evaluate forces for a subset of i-tiles against the full j-set.

        The seam a multi-card composite (``repro.backends.sharded``)
        shards over: ``tile_indices`` are global i-tile indices, the whole
        replicated ``tiles`` set streams as the j-side, and each requested
        tile's accumulation order over the j-stream is fixed regardless of
        which subset it arrives in — so per-card partials merge
        bit-identically to a single-card evaluation.

        Returns the per-quantity result tiles (indexed globally, ``None``
        outside the subset), the queue phase segments (device time
        excluded), and the device's compute seconds.
        """
        self._ensure_buffers(tiles.n_tiles)
        results: dict[str, list[Tile | None]] = {
            q: [None] * tiles.n_tiles for q in OUT_QUANTITIES
        }
        queue = self.queues[0]
        phase_mark = len(queue.phases)
        run = (
            self._run_batched if self.engine == "batched"
            else self._run_per_block
        )
        device_s = run(tiles, tile_indices, results)
        segments = [
            TimelineSegment(p.tag, p.duration_s, p.detail)
            for p in queue.phases[phase_mark:]
            if p.tag != "device"  # device time merged by the caller
        ]

        missing = [
            q for q in OUT_QUANTITIES
            if any(results[q][it] is None for it in tile_indices)
        ]
        if missing:
            raise NBodyError(f"device returned incomplete results for {missing}")
        return results, segments, device_s

    def compute_shard(
        self, pos: np.ndarray, vel: np.ndarray, mass: np.ndarray,
        tile_indices: list[int], *, generation: int | None = None,
    ) -> tuple[dict[str, list[Tile | None]], list[TimelineSegment], float]:
        """Tilize through this backend's caches and evaluate a shard.

        What :class:`~repro.backends.ShardedTTBackend` calls for each
        card: raw particle arrays in, partial tiles out (see
        :meth:`compute_partial`).  The tilize/upload caches live with the
        backend, so each card keeps its residency across timesteps.
        """
        tiles = ParticleTiles.from_arrays(
            pos, vel, mass, self.fmt, cache=self._tilize_cache,
            generation=generation,
        )
        return self.compute_partial(tiles, tile_indices)

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        tiles = ParticleTiles.from_arrays(
            pos, vel, mass, self.fmt, cache=self._tilize_cache,
            generation=self.data_generation,
        )
        results, segments, device_s = self.compute_partial(
            tiles, list(range(tiles.n_tiles))
        )
        segments.append(TimelineSegment("device", device_s, "force"))
        acc, jerk = ParticleTiles.results_to_arrays(
            {q: results[q] for q in OUT_QUANTITIES}, tiles.n
        )
        self._sync_residency_metrics()
        return ForceEvaluation(acc, jerk, segments=tuple(segments))

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Subset evaluation: dispatch only the i-tiles covering ``targets``.

        The device-side unit of work is the 1024-element i-tile, so the
        active block maps to its covering tile set, which goes through
        :meth:`compute_partial` exactly as a sharded composite's shard
        would — the full replicated j-stream (tilize and upload caches
        hit for unchanged source columns), a per-tile accumulation order
        that never depends on which subset a tile arrives in, and cost
        accounting for the tiles actually dispatched.  Rows are then
        extracted per target, bit-identical to a full :meth:`compute`.
        """
        n = mass.shape[0]
        idx = normalize_targets(targets, n)
        tiles = ParticleTiles.from_arrays(
            pos, vel, mass, self.fmt, cache=self._tilize_cache,
            generation=self.data_generation,
        )
        needed = sorted({int(t) // TILE_ELEMENTS for t in idx})
        results, segments, device_s = self.compute_partial(tiles, needed)
        segments.append(TimelineSegment(
            "device", device_s, f"force-subset[{len(needed)}t]"
        ))
        acc, jerk = subset_rows_from_tiles(results, idx)
        self._sync_residency_metrics()
        return ForceEvaluation(acc, jerk, segments=tuple(segments))

    def _run_per_block(self, tiles, tile_indices, results) -> float:
        """The original in-band path: values flow through the simulator."""
        queue = self.queues[0]
        # upload: the device holds the full replicated particle set
        self._upload_j_stream(tiles)

        self.devices[0].clear_counters()
        device_s = queue.enqueue_program(
            self._program_for(tile_indices, tiles.n_tiles)
        )

        # download the result tiles
        for q in OUT_QUANTITIES:
            out_tiles = queue.enqueue_read_buffer(self._out_buffers[q])
            for it in tile_indices:
                results[q][it] = out_tiles[it]
        return device_s

    def _run_batched(self, tiles, tile_indices, results) -> float:
        """The batched path: engine values + charge-only program replay."""
        engine = self._engine_obj
        if engine is None:
            engine = self._engine_obj = BatchedDispatchEngine(
                self.fmt, self.softening
            )
        engine.load_j_stream(tiles)
        queue = self.queues[0]
        self._upload_j_stream(tiles)
        self.devices[0].clear_counters()
        device_s = queue.enqueue_program(
            self._program_for(tile_indices, tiles.n_tiles, charge_only=True)
        )
        values = engine.compute_tiles(tile_indices)
        for q in OUT_QUANTITIES:
            queue.charge_read_buffer(self._out_buffers[q])
        for it, vecs in values.items():
            for q, vec in zip(OUT_QUANTITIES, vecs):
                results[q][it] = Tile.from_quantized(
                    np.asarray(vec, dtype=np.float64), self.fmt
                )
        return device_s


@dataclass(frozen=True)
class DeviceTimeModel:
    """Analytic projection of the offloaded job's timing.

    Mirrors the cost accounting the functional kernels perform, evaluated in
    closed form — used for paper-scale campaign runs and projections where
    executing 10^10 pairwise interactions functionally is pointless.
    """

    n_cores: int = 64
    n_devices: int = 1
    softened: bool = False
    chip: ChipParams = WORMHOLE_N300
    costs: CostParams = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if not (1 <= self.n_cores <= self.chip.n_tensix_cores):
            raise ConfigurationError(
                f"core count {self.n_cores} outside "
                f"[1, {self.chip.n_tensix_cores}]"
            )
        if self.n_devices < 1:
            raise ConfigurationError("need at least one device")

    # -- per-evaluation ----------------------------------------------------

    def worst_core_tiles(self, n: int) -> int:
        n_tiles = tiles_needed(n)
        per_device = -(-n_tiles // self.n_devices)
        return -(-per_device // self.n_cores)

    def compute_seconds(self, n: int) -> float:
        """SFPU time of the slowest core for one force evaluation.

        Each i-tile's inner loop covers all j-tiles, exactly one of which
        is the diagonal block carrying the extra self-mask op.
        """
        n_tiles = tiles_needed(n)
        w = weighted_ops_per_j(
            self.costs, softened=self.softened, diagonal=False
        )
        w_diag_extra = weighted_ops_per_j(
            self.costs, softened=self.softened, diagonal=True
        ) - w
        worst = self.worst_core_tiles(n)
        ops = worst * TILE_ELEMENTS * (n_tiles * w + w_diag_extra)
        return ops * self.costs.sfpu_cycles_per_tile_op / self.chip.clock_hz

    def datamove_seconds(self, n: int) -> float:
        """DRAM+NoC time of the slowest core for one force evaluation."""
        from ..wormhole.dram import Dram

        n_tiles = tiles_needed(n)
        page_bytes = TILE_ELEMENTS * 4
        pages = self.worst_core_tiles(n) * (n_tiles * 7 + 12)
        # a single-page read touches one interleave unit: one GDDR6 channel
        per_page = (
            page_bytes * Dram.N_BANKS / self.chip.dram_bandwidth_bytes_per_s
            + (self.costs.noc_transaction_cycles
               + page_bytes / self.chip.noc_bytes_per_cycle)
            / self.chip.clock_hz
        )
        return pages * per_page

    def dram_contention_seconds(self, n: int) -> float:
        """Aggregate GDDR6 bandwidth floor across all cores of one device.

        The per-core datamove term assumes a private path; when all cores
        stream the replicated j-tiles simultaneously they share the six
        GDDR6 channels, so the evaluation can never finish faster than the
        *total* traffic divided by the card's bandwidth.  For the N-body
        kernel (compute-bound by ~3 orders of magnitude) this floor is
        irrelevant, but the model keeps it honest for streaming workloads.
        """
        n_tiles = tiles_needed(n)
        per_device_i_tiles = -(-n_tiles // self.n_devices)
        page_bytes = TILE_ELEMENTS * 4
        total_bytes = per_device_i_tiles * (n_tiles * 7 + 12) * page_bytes
        return total_bytes / self.chip.dram_bandwidth_bytes_per_s

    def eval_seconds(self, n: int) -> float:
        """One force evaluation: pipeline bound by the slowest resource."""
        base = max(
            self.compute_seconds(n),
            self.datamove_seconds(n),
            self.dram_contention_seconds(n),
        )
        if self.n_devices > 1:
            result_bytes = tiles_needed(n) * TILE_ELEMENTS * 4 * 6
            base += EthernetFabric(self.n_devices, self.chip).allgather_seconds(
                result_bytes // self.n_devices
            )
        return base

    def pcie_seconds(self, n: int) -> float:
        """Host<->device traffic per evaluation (positions in, forces out)."""
        n_bytes = tiles_needed(n) * TILE_ELEMENTS * 4 * (7 + 6)
        return n_bytes / self.chip.pcie_bandwidth_bytes_per_s

    def host_cycle_seconds(self, n: int) -> float:
        """Single-threaded host work per cycle (predict/correct/convert)."""
        return n * self.costs.host_per_particle_s

    def init_seconds(self) -> float:
        """One-time host initialisation + program build."""
        return self.costs.program_build_s + 2.0

    def job_seconds(self, n: int, n_cycles: int) -> float:
        """Analytic time-to-solution for the accelerated job."""
        if n <= 0 or n_cycles <= 0:
            raise ConfigurationError("n and n_cycles must be positive")
        evals = n_cycles + 1  # initial evaluation + one per cycle
        return (
            self.init_seconds()
            + evals * (
                self.eval_seconds(n)
                + self.pcie_seconds(n)
                + self.costs.host_launch_overhead_s
            )
            + n_cycles * self.host_cycle_seconds(n)
        )
