"""In-memory span recorder for the benchmark's traced run.

The traced run times the calls into each layer's public functions from
the benchmark's own files; the program itself is not edited.
:meth:`Recorder.instrument` replaces every function in :func:`layer_points`
at the name its caller looks up (a class attribute, or a module global
imported by name, e.g. ``cic_deposit`` as ``repro.nbody_pm.backend`` sees
it) with a wrapper that records a span, and restores the originals on
exit.

A span carries its name, start, end, parent and thread.  Every thread
keeps its own span stack, so the card threads of a sharded backend nest
their spans independently of the main thread.  A span's self time is its
duration minus the part its children cover; a sharded force call's
children run on card threads, so its self time also excludes the slowest
card (the part of the call the main thread spends waiting).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: i-tile rows (the device's unit of work; ``repro.wormhole.tile``)
TILE_ROWS = 1024


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "child", "parent", "thread")

    def __init__(self, name: str, parent: "Span | None", thread: str) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _ThreadState:
    """One thread's open-span stack, finished spans and counts."""

    __slots__ = ("name", "stack", "spans", "counts")

    def __init__(self) -> None:
        self.name = threading.current_thread().name
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}


class Recorder:
    """Collects spans and counts from every thread of one traced job."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._originals: list[tuple[object, str, object]] = []
        #: j elements streamed per engine, keyed by engine id
        self.j_elements: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def open(self, name: str) -> Span:
        state = self._state()
        stack = state.stack
        span = Span(name, stack[-1] if stack else None, state.name)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        state = self._local.state
        stack = state.stack
        # an async span may close after a sibling opened on the same loop
        # thread; remove it by identity rather than trusting the top
        if stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        state.spans.append(span)
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, name, after):
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = recorder.open(name)
                try:
                    out = await fn(*args, **kwargs)
                finally:
                    recorder.close(span)
                if after is not None:
                    after(recorder, args, kwargs, out)
                return out
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(recorder, args, kwargs, out)
            return out
        return wrapper

    @contextmanager
    def instrument(self):
        """Wrap every layer point for the duration of the block."""
        try:
            for owner, attr, name, after in layer_points():
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, name, after))
                else:
                    wrapped = self._wrap(raw, name, after)
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            while self._originals:
                owner, attr, raw = self._originals.pop()
                setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for state in self._threads for s in state.spans]

    def counts(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        with self._lock:
            for state in self._threads:
                for key, value in state.counts.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def attribute_card_waits(self) -> list[float]:
        """Charge each sharded call's slowest card as its child.

        Returns the per-call imbalance (slowest card / mean card).
        """
        spans = self.spans()
        cards = [s for s in spans if s.name == "backends.card"]
        imbalance = []
        for call in (s for s in spans if s.name == "backends.shard"):
            mine = [c.duration for c in cards
                    if call.start <= c.start and c.end <= call.end]
            if mine:
                call.child += max(mine)
                imbalance.append(max(mine) / statistics.fmean(mine))
        return imbalance

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent, thread]``.

        Times are seconds from the first span; ``parent`` is the index of
        the parent span in the list (``null`` for a thread's root spans).
        """
        spans = sorted(self.spans(), key=lambda s: s.start)
        index = {id(s): k for k, s in enumerate(spans)}
        t0 = spans[0].start if spans else 0.0
        rows = [
            [s.name, round(s.start - t0, 7), round(s.end - t0, 7),
             index[id(s.parent)] if s.parent is not None else None,
             s.thread]
            for s in spans
        ]
        path.write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "thread"],
             "spans": rows}, separators=(",", ":")
        ))


# --------------------------------------------------------------------------
# The layer boundaries the traced run times
# --------------------------------------------------------------------------


# count hooks: (recorder, call args, call kwargs, return value); the
# direct backends' rows requested are the numerator of useful_row_frac


def _rows_full(rec, args, kwargs, out):
    rec.count("rows_requested", args[3].shape[0])


def _rows_subset(rec, args, kwargs, out):
    rec.count("rows_requested", len(args[4]))


def _j_stream(rec, args, kwargs, out):
    engine, tiles = args[0], args[1]
    rec.j_elements[id(engine)] = tiles.n_tiles * TILE_ROWS


def _engine_tiles(rec, args, kwargs, out):
    engine, tile_indices = args[0], args[1]
    rec.count("tiles", len(tile_indices))
    rec.count(
        "pairs", len(tile_indices) * TILE_ROWS * rec.j_elements[id(engine)]
    )


def _near_pairs(rec, args, kwargs, out):
    rec.count("near_pairs", int(out[2]))


def layer_points():
    """(owner, attribute, span name, count hook) for every timed call."""
    from repro.backends.runspec import RunSpec
    from repro.backends.sharded import ShardedTTBackend
    from repro.core import forces, scenarios
    from repro.core.integrators import BlockHermiteDriver, LeapfrogDriver
    from repro.core.simulation import HermiteIntegrator
    from repro.metalium.command_queue import CommandQueue
    from repro.metalium.kernel import Program
    from repro.nbody_pm import backend as pm_backend
    from repro.nbody_pm.poisson import PoissonSolver
    from repro.nbody_tt import offload, tiling
    from repro.nbody_tt.engine import BatchedDispatchEngine
    from repro.service.client import ServiceClient
    from repro.service.scheduler import CardFarm
    from repro.service.server import JobServer
    from repro.telemetry.campaign import Campaign
    from repro.wormhole.dram import Dram
    from repro.wormhole.tensix import TensixCore

    points = [
        (scenarios, "make_scenario", "core.scenario", None),
        (forces, "potential_reference", "core.potential", None),
    ]
    for cls in (HermiteIntegrator, BlockHermiteDriver, LeapfrogDriver):
        points += [(cls, "initialise", "core.integrator", None),
                   (cls, "run", "core.integrator", None)]
    for cls, name in ((offload.TTForceBackend, "backends.force"),
                      (ShardedTTBackend, "backends.shard")):
        points += [(cls, "compute", name, _rows_full),
                   (cls, "compute_on_targets", name, _rows_subset)]
    points += [
        (pm_backend.PMForceBackend, "compute", "backends.force", None),
        (pm_backend.PMForceBackend, "compute_on_targets", "backends.force",
         None),
        (offload.TTForceBackend, "compute_shard", "backends.card", None),
        (tiling.ParticleTiles, "from_arrays", "nbody_tt.tilize", None),
        (tiling.ParticleTiles, "results_to_arrays", "nbody_tt.untilize",
         None),
        (offload, "subset_rows_from_tiles", "nbody_tt.untilize", None),
        (tiling, "subset_rows_from_tiles", "nbody_tt.untilize", None),
        (BatchedDispatchEngine, "load_j_stream", "nbody_tt.stack", _j_stream),
        (BatchedDispatchEngine, "compute_tiles", "nbody_tt.engine",
         _engine_tiles),
        (CommandQueue, "enqueue_program", "metalium.replay", None),
        (Program, "__init__", "metalium.build", None),
        (CommandQueue, "enqueue_write_buffer", "metalium.upload", None),
        (CommandQueue, "charge_write_buffer", "metalium.upload", None),
        (TensixCore, "run_kernels", "wormhole.kernel_run", None),
        (Dram, "read", "wormhole.dram", None),
        (Dram, "write", "wormhole.dram", None),
        (Dram, "touch_read", "wormhole.dram", None),
        (Dram, "touch_write", "wormhole.dram", None),
        (pm_backend, "near_field_correction", "nbody_pm.near", _near_pairs),
        (PoissonSolver, "accelerations", "nbody_pm.poisson", None),
        (pm_backend, "cic_deposit", "nbody_pm.deposit", None),
        (pm_backend, "cic_gather", "nbody_pm.gather", None),
        (JobServer, "submit", "service.submit", None),
        (RunSpec, "canonical_hash", "service.hash", None),
        (CardFarm, "execute", "service.execute", None),
        (Campaign, "run_job", "telemetry.run_job", None),
        (ServiceClient, "submit_and_wait", "service.request", None),
    ]
    return points


def layer_metrics(recorder: Recorder, *, main_thread: str,
                  wall_s: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced job.

    ``wall_s`` is the traced job's wall time on ``main_thread``; the share
    of it no layer span covers is ``bench.unattributed_frac``.
    """
    imbalance = recorder.attribute_card_waits()
    spans = recorder.spans()
    counts = recorder.counts()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.thread == main_thread and s.parent is None:
            covered += s.duration

    def sec(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    engine_s = sec("nbody_tt.engine")
    tiles = counts.get("tiles", 0)
    return {
        "core.scenario_s": sec("core.scenario"),
        "core.potential_s": sec("core.potential"),
        "core.integrator_self_s": sec("core.integrator"),
        "backends.force_s": (sec("backends.force") + sec("backends.shard")
                             + sec("backends.card")),
        "backends.force_calls": n("backends.force") + n("backends.shard"),
        "backends.shard_self_s": sec("backends.shard"),
        "backends.shard_imbalance": (
            statistics.fmean(imbalance) if imbalance else 0.0
        ),
        "nbody_tt.tilize_s": sec("nbody_tt.tilize"),
        "nbody_tt.stack_s": sec("nbody_tt.stack"),
        "nbody_tt.untilize_s": sec("nbody_tt.untilize"),
        "nbody_tt.engine_s": engine_s,
        "nbody_tt.tiles": tiles,
        "nbody_tt.pairs": counts.get("pairs", 0),
        "nbody_tt.pairs_per_s": (
            counts.get("pairs", 0) / engine_s if engine_s > 0 else 0.0
        ),
        "nbody_tt.useful_row_frac": (
            counts.get("rows_requested", 0) / (tiles * TILE_ROWS)
            if tiles else 0.0
        ),
        "metalium.replay_s": sec("metalium.replay"),
        "metalium.programs_enqueued": n("metalium.replay"),
        "metalium.programs_built": n("metalium.build"),
        "metalium.upload_s": sec("metalium.upload"),
        "wormhole.kernel_run_s": sec("wormhole.kernel_run"),
        "wormhole.dram_s": sec("wormhole.dram"),
        "wormhole.dram_accesses": n("wormhole.dram"),
        "nbody_pm.near_s": sec("nbody_pm.near"),
        "nbody_pm.near_pairs": counts.get("near_pairs", 0),
        "nbody_pm.poisson_s": sec("nbody_pm.poisson"),
        "nbody_pm.deposit_s": sec("nbody_pm.deposit"),
        "nbody_pm.gather_s": sec("nbody_pm.gather"),
        "service.submit_s": sec("service.submit"),
        "service.hash_s": sec("service.hash"),
        "service.execute_s": sec("service.execute"),
        "telemetry.run_job_s": sec("telemetry.run_job"),
        "service.request_s": sec("service.request"),
        "bench.unattributed_frac": max(0.0, 1.0 - covered / wall_s),
    }
