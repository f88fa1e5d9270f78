"""The command queue: dispatch, synchronisation, and time accounting.

"Kernels are enqueued for execution via a command queue, which manages
dispatch, synchronization, and sequencing of tasks on the hardware"
(paper Section 2).  Besides executing programs, the queue is the place
where the simulation's *timeline* is assembled: every enqueue appends a
phase record (host transfer, device compute, launch overhead) that the
telemetry layer later replays to generate the power trace of Fig. 4.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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

#: Most outcomes the replay memo keeps; the least recently used goes
#: first.  An outcome is a few numbers per core, so a full memo of
#: 64-core programs stays within a few tens of MB.
_MEMO_MAX = 512

#: The replay memo: replay key -> :class:`_Outcome` of a charge-only
#: program.  One per process, shared by every queue — the card threads of
#: a sharded backend included — so every access holds ``_memo_lock``.
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()
#: False executes every program (the seam the memo's on/off equivalence
#: tests switch).
_memo_enabled = True


@dataclass(frozen=True)
class _Outcome:
    """What one run of a charge-only program did to its device.

    ``cores`` holds, per core of the range in order, the end
    ``compute_cycles`` and ``datamove_cycles``, the op-count deltas, the
    CB-event delta and the scheduler rounds; ``dram`` the bytes read and
    written; ``nocs`` each NoC's (transactions, bytes read, bytes written,
    hops) deltas.
    """

    cores: tuple
    dram: tuple[int, int]
    nocs: tuple


def _memo_get(key) -> _Outcome | None:
    with _memo_lock:
        outcome = _memo.get(key)
        if outcome is not None:
            _memo.move_to_end(key)
        return outcome


def _memo_put(key, outcome: _Outcome) -> None:
    with _memo_lock:
        # repro-lint: disable=RH010 - process-wide by design, so later
        # jobs and every card thread reuse outcomes; guarded by _memo_lock
        _memo[key] = outcome
        if len(_memo) > _MEMO_MAX:
            # repro-lint: disable=RH010 - guarded by _memo_lock (above)
            _memo.popitem(last=False)


def _freeze(value):
    """A hashable stand-in for runtime args and device parameters."""
    if isinstance(value, dict):
        return tuple((k, _freeze(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(_freeze, value))
    return value


def _traffic(stats) -> tuple[int, int, int, int]:
    return (stats.transactions, stats.bytes_read, stats.bytes_written,
            stats.total_hops)


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
        """Account an upload whose bytes nothing on the device reads.

        Used ahead of charge-only programs (the batched-dispatch engine's
        replay, the PM FFT passes), which stream placeholder pages instead
        of reading the buffer: the timeline phase, DRAM byte counters,
        PCIe seconds and sanitizer write are identical to
        :meth:`enqueue_write_buffer`; only the host-side encode and store
        are skipped.
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
                        sanitize: bool | None = None,
                        linted: bool = False) -> float:
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

        A charge-only program (one whose builder set
        :attr:`~repro.metalium.kernel.Program.replay_key`) runs once per
        distinct key in the process: later enqueues re-apply the recorded
        charges — per-core cycle counters, op counts, CB events, DRAM and
        NoC traffic, scheduler rounds — bit for bit, and pay build,
        dispatch, checks, spans and metrics exactly as a run would.
        Checked dispatches (sanitized, or ``linted`` by
        :func:`~repro.metalium.host_api.EnqueueProgram`) always execute.
        """
        self.device.require_open()
        if not program.kernels:
            raise CommandQueueError("cannot enqueue a program with no kernels")
        ctx = self._resolve_sanitizer(sanitize)
        trace = self.trace
        if trace is None:
            return self._execute_program(program, ctx, None, linted)
        with trace.span(
            "EnqueueProgram", category="launch",
            device=self.device.device_id,
            n_cores=len(program.core_range),
            kernels=",".join(spec.name for spec in program.kernels),
        ):
            return self._execute_program(program, ctx, trace, linted)

    def _execute_program(self, program: Program, ctx, trace,
                         linted: bool) -> float:
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

        self.last_scheduler_rounds = {}
        self.last_sanitizer_report = ctx.report if ctx is not None else None
        checked = ctx is not None or linted
        key = None if checked else self._replay_key(program)
        outcome = _memo_get(key) if key is not None else None
        if outcome is not None:
            core_seconds = self._replay(program, outcome)
        else:
            before = self._device_counts(program) if key is not None else None
            core_seconds = self._run_cores(program, ctx)
            if key is not None:
                _memo_put(key, self._outcome_since(program, before))
        worst = max(0.0, *core_seconds.values())
        self.phases.append(Phase("device", worst, "program"))
        if trace is not None:
            self._trace_device_spans(program, trace, worst, core_seconds)
            self._collect_metrics(program, trace, counters_before, worst)
        return worst

    def _run_cores(self, program: Program, ctx) -> dict[int, float]:
        """Execute ``program`` core by core; busy seconds per core."""
        core_seconds: dict[int, float] = {}
        if ctx is not None:
            ctx.begin_program(program)
        try:
            for core_index in program.core_range:
                core = self.device.cores[core_index]
                core_seconds[core_index] = self._run_on_core(
                    core, core_index, program, ctx
                )
        finally:
            if ctx is not None:
                ctx.end_program(program)
        return core_seconds

    # -- replay memo ------------------------------------------------------------

    def _replay_key(self, program: Program):
        """Everything ``program``'s charges depend on (None: not memoised).

        The starting cycle counters are part of it because the counters
        are float sums: a recorded delta added to a different start would
        not round the same.  Checking the buffers' extents raises where a
        run's first access would.
        """
        if (program.replay_key is None or not _memo_enabled
                or hooks.active() is not None):
            return None
        device = self.device
        cores = device.cores
        core_range = program.core_range
        return (
            program.replay_key,
            core_range,
            tuple(program.cbs),
            tuple(_freeze(program.args_for(i)) for i in core_range),
            tuple(buf.extent() for buf in program.replay_buffers),
            _freeze(vars(device.chip)),
            _freeze(vars(device.costs)),
            tuple((cores[i].counter.compute_cycles,
                   cores[i].counter.datamove_cycles) for i in core_range),
        )

    def _device_counts(self, program: Program):
        """The integer counters a run advances, before it runs."""
        cores = self.device.cores
        dram = self.device.dram
        return (
            [(dict(cores[i].counter.ops.counts), cores[i].events.events)
             for i in program.core_range],
            (dram.bytes_read, dram.bytes_written),
            [_traffic(noc.stats) for noc in self.device.nocs],
        )

    def _outcome_since(self, program: Program, before) -> _Outcome:
        """Record what the run since ``before`` did (see :class:`_Outcome`)."""
        cores_before, (read, written), nocs_before = before
        cores = self.device.cores
        dram = self.device.dram
        per_core = []
        for i, (ops_before, events_before) in zip(program.core_range,
                                                  cores_before):
            core = cores[i]
            counter = core.counter
            ops = tuple(
                (op, n - ops_before.get(op, 0))
                for op, n in counter.ops.counts.items()
                if n != ops_before.get(op)
            )
            per_core.append((
                counter.compute_cycles, counter.datamove_cycles, ops,
                core.events.events - events_before,
                self.last_scheduler_rounds[i],
            ))
        nocs = tuple(
            tuple(a - b for a, b in zip(_traffic(noc.stats), old))
            for noc, old in zip(self.device.nocs, nocs_before)
        )
        return _Outcome(
            tuple(per_core),
            (dram.bytes_read - read, dram.bytes_written - written),
            nocs,
        )

    def _replay(self, program: Program, outcome: _Outcome) -> dict[int, float]:
        """Re-apply a recorded outcome; busy seconds per core, as a run."""
        cores = self.device.cores
        core_seconds: dict[int, float] = {}
        for i, (compute, datamove, ops, events, rounds) in zip(
            program.core_range, outcome.cores
        ):
            core = cores[i]
            counter = core.counter
            busy_before = counter.busy_cycles()
            counter.compute_cycles = compute
            counter.datamove_cycles = datamove
            counts = counter.ops.counts
            for op, n in ops:
                counts[op] += n
            core.events.events += events
            self.last_scheduler_rounds[i] = rounds
            core_seconds[i] = (
                (counter.busy_cycles() - busy_before) / core.chip.clock_hz
            )
        dram = self.device.dram
        dram.bytes_read += outcome.dram[0]
        dram.bytes_written += outcome.dram[1]
        for noc, (tx, read, written, hops) in zip(self.device.nocs,
                                                  outcome.nocs):
            stats = noc.stats
            stats.transactions += tx
            stats.bytes_read += read
            stats.bytes_written += written
            stats.total_hops += hops
        return core_seconds

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
