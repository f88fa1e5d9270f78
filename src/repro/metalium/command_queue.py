"""The command queue: dispatch, synchronisation, and time accounting.

"Kernels are enqueued for execution via a command queue, which manages
dispatch, synchronization, and sequencing of tasks on the hardware"
(paper Section 2).  Besides executing programs, the queue is the place
where the simulation's *timeline* is assembled: every enqueue appends a
phase record (host transfer, device compute, launch overhead) that the
telemetry layer later replays to generate the power trace of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis import hooks
from ..errors import CommandQueueError
from ..wormhole.device import WormholeDevice
from ..wormhole.dtypes import storage_bytes_per_element
from ..wormhole.tensix import TensixCore
from ..wormhole.tile import TILE_ELEMENTS
from .buffer import DramBuffer
from .kernel import Program

__all__ = ["Phase", "CommandQueue", "PHASE_TAGS"]

#: The closed set of timeline segment kinds the telemetry layer understands.
PHASE_TAGS = ("host", "pcie", "device", "launch")


@dataclass(frozen=True)
class Phase:
    """One timeline segment of a job: what ran and for how long (modelled)."""

    tag: str          # one of PHASE_TAGS
    duration_s: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.tag not in PHASE_TAGS:
            raise CommandQueueError(
                f"phase tag must be one of {PHASE_TAGS}, got {self.tag!r}"
            )


@dataclass
class CommandQueue:
    """In-order command queue for one device."""

    device: WormholeDevice
    phases: list[Phase] = field(default_factory=list)
    #: cooperative-scheduler rounds per core for the last enqueued program —
    #: a pipeline-stall proxy the double-buffering ablation reads
    last_scheduler_rounds: dict = field(default_factory=dict)
    #: SanitizerReport of the last sanitized enqueue (None when unsanitized)
    last_sanitizer_report: Any = None
    #: optional Scope :class:`~repro.observability.Trace`; when set, every
    #: enqueue narrates itself as spans and feeds the trace's metrics
    trace: Any = None
    _pending: int = 0

    # -- time accounting ------------------------------------------------------

    def record_host(self, duration_s: float, detail: str = "") -> None:
        """Record host-side (non-offloaded) work on the timeline."""
        if duration_s < 0:
            raise CommandQueueError(f"negative phase duration {duration_s}")
        self.phases.append(Phase("host", duration_s, detail))
        if self.trace is not None:
            self.trace.add_span(detail or "host", duration_s, category="host")

    @property
    def elapsed_s(self) -> float:
        """Total modelled job time across all recorded phases."""
        return sum(p.duration_s for p in self.phases)

    def device_seconds(self) -> float:
        return sum(p.duration_s for p in self.phases if p.tag == "device")

    def host_seconds(self) -> float:
        return sum(
            p.duration_s for p in self.phases if p.tag in ("host", "pcie", "launch")
        )

    # -- buffer traffic ---------------------------------------------------------

    def _trace_pcie(self, name: str, seconds: float,
                    buffer: DramBuffer) -> None:
        """Leaf span for one PCIe transfer (traced queues only)."""
        if self.trace is not None:
            self.trace.add_span(
                name, seconds, category="pcie",
                device=self.device.device_id, bytes=buffer.size_bytes,
            )

    def enqueue_write_buffer(self, buffer: DramBuffer, tiles) -> None:
        """Host -> device transfer (blocking; PCIe cost on the timeline)."""
        seconds = buffer.host_write_tiles(tiles)
        self.phases.append(Phase("pcie", seconds, "write_buffer"))
        self._trace_pcie("write_buffer", seconds, buffer)

    def enqueue_read_buffer(self, buffer: DramBuffer):
        """Device -> host transfer; returns the tiles."""
        tiles, seconds = buffer.host_read_tiles()
        self.phases.append(Phase("pcie", seconds, "read_buffer"))
        self._trace_pcie("read_buffer", seconds, buffer)
        return tiles

    def charge_write_buffer(self, buffer: DramBuffer) -> None:
        """Account an upload the cache proved redundant (no bytes moved).

        The timeline phase, DRAM byte counters, and PCIe seconds are
        identical to :meth:`enqueue_write_buffer` — the modelled device
        still pays for the transfer; only the host-side encode is skipped.
        """
        seconds = buffer.host_write_cost()
        self.phases.append(Phase("pcie", seconds, "write_buffer"))
        self._trace_pcie("write_buffer", seconds, buffer)

    def charge_read_buffer(self, buffer: DramBuffer) -> None:
        """Account a download whose values were produced out-of-band.

        Used by the batched-dispatch engine, which computes result tiles on
        the host; the modelled PCIe/DRAM cost of fetching them from the
        device is charged exactly as :meth:`enqueue_read_buffer` would.
        """
        seconds = buffer.host_read_cost()
        self.phases.append(Phase("pcie", seconds, "read_buffer"))
        self._trace_pcie("read_buffer", seconds, buffer)

    # -- program execution -----------------------------------------------------

    def enqueue_program(self, program: Program, *,
                        sanitize: bool | None = None) -> float:
        """Execute a program across its core range; returns device seconds.

        Device time is the *maximum* busy time across participating cores
        (they run concurrently on hardware); the one-time program build cost
        and the per-launch dispatch overhead land on the host timeline.

        ``sanitize`` selects checked execution: ``None`` (default) follows
        the installed sanitizer context (``REPRO_SANITIZE=1`` or an open
        ``with SanitizerContext():`` scope), ``True`` forces a sanitized run
        (creating a one-shot context when none is installed), ``False``
        forces a plain run.  The sanitized run's report lands on
        :attr:`last_sanitizer_report`.
        """
        self.device.require_open()
        if not program.kernels:
            raise CommandQueueError("cannot enqueue a program with no kernels")
        ctx = self._resolve_sanitizer(sanitize)
        trace = self.trace
        if trace is None:
            return self._execute_program(program, ctx, None)
        with trace.span(
            "EnqueueProgram", category="launch",
            device=self.device.device_id,
            n_cores=len(program.core_range),
            kernels=",".join(spec.name for spec in program.kernels),
        ):
            return self._execute_program(program, ctx, trace)

    def _execute_program(self, program: Program, ctx, trace) -> float:
        """Run ``program`` on its core range (inside the EnqueueProgram span)."""
        if not program.built:
            build_s = self.device.costs.program_build_s
            self.phases.append(Phase("launch", build_s, "program_build"))
            program.built = True
            if trace is not None:
                trace.add_span("program_build", build_s, category="launch")
        dispatch_s = self.device.costs.host_launch_overhead_s
        self.phases.append(Phase("launch", dispatch_s, "dispatch"))
        if trace is not None:
            trace.add_span("dispatch", dispatch_s, category="launch")
            counters_before = self._counters_snapshot()

        worst = 0.0
        core_seconds: dict[int, float] = {}
        self.last_scheduler_rounds = {}
        self.last_sanitizer_report = ctx.report if ctx is not None else None
        if ctx is not None:
            ctx.begin_program(program)
        try:
            for core_index in program.core_range:
                core = self.device.cores[core_index]
                seconds = self._run_on_core(core, core_index, program, ctx)
                if trace is not None:
                    core_seconds[core_index] = seconds
                worst = max(worst, seconds)
        finally:
            if ctx is not None:
                ctx.end_program(program)
        self.phases.append(Phase("device", worst, "program"))
        if trace is not None:
            self._trace_device_spans(program, trace, worst, core_seconds)
            self._collect_metrics(program, trace, counters_before, worst)
        return worst

    # -- Scope integration ------------------------------------------------------

    def _trace_device_spans(self, program: Program, trace, worst: float,
                            core_seconds: dict[int, float]) -> None:
        """The ``device`` span with one concurrent child span per core.

        Per-core spans land on per-core tracks (``dev<id>/core<idx>``): the
        cores genuinely run in parallel, so stacking them on one track would
        fake-nest them in a trace viewer.
        """
        kernels = ",".join(spec.name for spec in program.kernels)
        with trace.span(
            "device", category="device", device=self.device.device_id,
        ) as dev_span:
            start = trace.now
            for core_index, seconds in core_seconds.items():
                core = self.device.cores[core_index]
                trace.add_concurrent_span(
                    kernels or "kernels", start, seconds,
                    category="core",
                    track=f"dev{self.device.device_id}/core{core_index}",
                    parent=dev_span,
                    compute_cycles=core.counter.compute_cycles,
                    datamove_cycles=core.counter.datamove_cycles,
                    scheduler_rounds=self.last_scheduler_rounds.get(core_index),
                )
            trace.advance(worst)

    def _counters_snapshot(self) -> tuple[float, ...]:
        """Cumulative DRAM/NoC counters (delta'd around each program)."""
        dram = self.device.dram
        nocs = self.device.nocs
        return (
            dram.bytes_read,
            dram.bytes_written,
            sum(noc.stats.transactions for noc in nocs),
            sum(noc.stats.total_bytes for noc in nocs),
            sum(noc.stats.total_hops for noc in nocs),
        )

    def _collect_metrics(self, program: Program, trace,
                         before: tuple[float, ...], worst: float) -> None:
        """Feed this program's counter deltas into the trace's metrics."""
        metrics = trace.metrics
        prefix = f"device{self.device.device_id}"
        after = self._counters_snapshot()
        dram_read, dram_written, noc_tx, noc_bytes, noc_hops = (
            a - b for a, b in zip(after, before)
        )
        metrics.counter(f"{prefix}.programs").inc()
        metrics.counter(f"{prefix}.dram.bytes_read").add(dram_read)
        metrics.counter(f"{prefix}.dram.bytes_written").add(dram_written)
        metrics.counter(f"{prefix}.noc.transactions").add(noc_tx)
        metrics.counter(f"{prefix}.noc.bytes").add(noc_bytes)
        metrics.counter(f"{prefix}.noc.hops").add(noc_hops)
        metrics.counter(f"{prefix}.cb.scheduler_rounds").add(
            sum(self.last_scheduler_rounds.values())
        )
        cb_bytes = sum(
            config.capacity_pages
            * storage_bytes_per_element(config.fmt) * TILE_ELEMENTS
            for config in program.cbs
        )
        metrics.gauge(f"{prefix}.l1.cb_high_water_bytes").set_max(cb_bytes)
        if worst > 0 and noc_bytes > 0:
            tile_bytes = (
                storage_bytes_per_element(self.device.fmt) * TILE_ELEMENTS
            )
            metrics.histogram(f"{prefix}.tiles_per_s").observe(
                noc_bytes / tile_bytes / worst
            )

    def _resolve_sanitizer(self, sanitize: bool | None):
        """Pick the sanitizer context for one enqueue (None = unsanitized)."""
        if sanitize is False:
            return None
        ctx = hooks.ambient()
        if ctx is None and sanitize:
            from ..analysis.sanitizer import SanitizerContext

            ctx = SanitizerContext()
        return ctx

    def _run_on_core(self, core: TensixCore, core_index: int,
                     program: Program, ctx=None) -> float:
        busy_before = core.counter.busy_cycles()
        if ctx is None:
            for cb_config in program.cbs:
                core.create_cb(
                    cb_config.cb_id, cb_config.capacity_pages, cb_config.fmt
                )
        else:
            # Checked mode: the core's L1 goes behind a guard (double-free /
            # leak detection) and CBs are built sanitized, both for the
            # whole life of this program on this core.
            l1_guard = ctx.l1_guard(core)
            real_l1 = core.l1
            core.l1 = l1_guard
            for cb_config in program.cbs:
                ctx.create_cb(core, cb_config)
        args = program.args_for(core_index)
        try:
            for spec in program.kernels:
                factory = lambda c, _spec=spec: _spec.body(c, args)
                if ctx is not None:
                    factory = ctx.wrap_kernel(spec.name, core_index, factory)
                core.bind_kernel(spec.name, spec.role, factory, kind=spec.kind)
            self.last_scheduler_rounds[core_index] = core.run_kernels()
            # CBs are program-scoped: tear them down so the next program can
            # reconfigure the same ids (the L1 planner frees wholesale).
            for cb_config in program.cbs:
                cb = core.cbs.pop(cb_config.cb_id)
                if cb._l1_alloc is not None:
                    core.l1.free(cb._l1_alloc)
            if ctx is not None:
                l1_guard.check_leaks()
        finally:
            if ctx is not None:
                core.l1 = real_l1
        busy_after = core.counter.busy_cycles()
        return (busy_after - busy_before) / core.chip.clock_hz

    def finish(self) -> float:
        """Block until all enqueued work completes; returns elapsed seconds.

        All operations in this in-order simulator are executed eagerly, so
        finish only reports the accumulated timeline.
        """
        if self.trace is not None:
            self.trace.add_span(
                "Finish", 0.0, category="host",
                device=self.device.device_id, elapsed_s=self.elapsed_s,
            )
        return self.elapsed_s
