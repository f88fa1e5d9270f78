"""The card farm: execute RunSpec jobs on simulated n300 capacity.

Two execution modes, both driven purely by a job's declarative
:class:`~repro.backends.RunSpec`:

* ``modelled`` (default) — the job replays the paper's campaign timeline
  through :class:`~repro.telemetry.campaign.Campaign` on a virtual clock:
  reset, sleeps, the analytic device/CPU cost model, power sampling.  A
  paper-scale job costs milliseconds of wall time, which is what lets the
  service drain thousands of queued jobs.  The campaign is seeded from
  the spec's canonical hash, so the same spec always produces the same
  result — the property the result cache relies on.
* ``functional`` — the job actually integrates the system on the spec's
  backend (:meth:`RunSpec.make_simulation`), exercising the real
  tilize/dispatch/gather machinery, including multi-card sharding.

Per-job progress events are derived from Scope traces: every job runs
traced, and the resulting spans (reset attempts, sleeps, per-phase
simulate segments) become the event stream the server's streaming
endpoint replays.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from ..backends.runspec import RunSpec
from ..errors import ConfigurationError
from ..errors import failure_kind as classify_failure
from ..observability import Trace
from .queue import Job, JobQueue
from .quota import QuotaLedger

__all__ = ["CardFarm", "Scheduler", "EXECUTION_MODES"]

EXECUTION_MODES = ("modelled", "functional")

#: Cap on trace-derived events persisted per job: a 100-cycle modelled job
#: narrates hundreds of spans, and the event log is for progress, not a
#: full trace replacement (``repro trace`` exists for that).
MAX_EVENTS_PER_JOB = 200


def _spans_to_events(trace: Trace) -> list[dict[str, Any]]:
    """Flatten a job's Scope spans into JSON-safe progress events."""
    events = []
    for span in trace.spans[:MAX_EVENTS_PER_JOB]:
        events.append({
            "name": span.name,
            "category": span.category,
            "start_s": round(span.start_s, 6),
            "duration_s": round(span.duration_s, 6),
        })
    if len(trace.spans) > MAX_EVENTS_PER_JOB:
        events.append({
            "name": "…",
            "category": "job",
            "truncated_spans": len(trace.spans) - MAX_EVENTS_PER_JOB,
        })
    return events


class CardFarm:
    """Executes one RunSpec at a time per card slot, deterministically."""

    def __init__(self, n_cards: int = 4, *, mode: str = "modelled",
                 sleep_s: float = 0.0) -> None:
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if n_cards < 1:
            raise ConfigurationError(f"need >= 1 card, got {n_cards}")
        self.n_cards = n_cards
        self.mode = mode
        #: campaign sleep either side of the modelled run window; the
        #: paper uses 120 s, the service defaults to 0 so queue latency is
        #: not dominated by modelled idle time
        self.sleep_s = sleep_s

    # -- execution (runs on an executor thread) ----------------------------

    def execute(self, spec: RunSpec, card: int) -> dict[str, Any]:
        """Run one spec on one card slot; returns the job payload.

        The payload always carries ``events`` (trace-derived progress),
        ``virtual_s`` (modelled seconds consumed on the card), and
        ``completed``.
        """
        if self.mode == "modelled":
            return self._execute_modelled(spec, card)
        return self._execute_functional(spec, card)

    def _execute_modelled(self, spec: RunSpec, card: int) -> dict[str, Any]:
        from ..telemetry.campaign import Campaign, JobSpec

        # seed from the canonical hash: identical specs take identical
        # noise draws, making the result a pure function of the spec (the
        # cache contract), while distinct specs stay decorrelated
        seed = int(spec.canonical_hash()[:8], 16)
        trace = Trace()
        campaign = Campaign(seed=seed, n_cards=1, sleep_s=self.sleep_s,
                            trace=trace)
        job_spec = JobSpec.from_runspec(spec)
        result = campaign.run_job(job_spec)
        payload: dict[str, Any] = {
            "mode": "modelled",
            "completed": result.completed,
            "attempts": result.attempts,
            "failure": result.failure,
            "failure_kind": result.failure_kind,
            "time_to_solution_s": result.time_to_solution,
            "energy_kj": (
                round(result.energy.total_kj, 6)
                if result.energy is not None else None
            ),
            "peak_total_w": (
                round(result.peak_total_w, 3)
                if result.peak_total_w is not None else None
            ),
            "virtual_s": campaign.clock.now(),
            "events": _spans_to_events(trace),
        }
        return payload

    def _execute_functional(self, spec: RunSpec, card: int) -> dict[str, Any]:
        from ..core import energy_report

        trace = Trace()
        backend = spec.make_backend()
        system = spec.make_system()
        initial = energy_report(system, softening=spec.softening)
        sim = spec.make_simulation(system, backend, trace=trace)
        result = sim.run(spec.cycles)
        final = energy_report(system, softening=spec.softening)
        return {
            "mode": "functional",
            "completed": True,
            "backend": backend.name,
            "energy_drift": final.drift_from(initial),
            "model_seconds": result.model_seconds,
            "seconds_by_tag": {
                tag: round(s, 6)
                for tag, s in sorted(result.seconds_by_tag().items())
            },
            "virtual_s": result.model_seconds,
            "events": _spans_to_events(trace),
        }


class Scheduler:
    """Drains the job queue through the card farm, one task per card.

    The scheduler owns the asyncio worker tasks and the bookkeeping the
    admission controller needs (the running average of modelled seconds
    per job, which prices the 429 retry-after hints).  Job execution is
    pushed onto the default thread-pool executor so the event loop stays
    responsive while a card computes.
    """

    def __init__(self, farm: CardFarm, queue: JobQueue,
                 ledger: QuotaLedger, *,
                 on_finished: Callable[[Job], None] | None = None) -> None:
        self.farm = farm
        self.queue = queue
        self.ledger = ledger
        self.on_finished = on_finished
        self.jobs_done = 0
        self.jobs_failed = 0
        self.per_card_jobs = {card: 0 for card in range(farm.n_cards)}
        self.virtual_s_total = 0.0
        self._tasks: list[asyncio.Task] = []

    # -- admission pricing -------------------------------------------------

    @property
    def drain_rate_s(self) -> float:
        """Modelled seconds one queue slot costs: avg job time / cards.

        Before any job has finished there is nothing to average, so the
        estimate starts at one virtual second per slot.
        """
        done = self.jobs_done + self.jobs_failed
        if done == 0:
            return 1.0
        return (self.virtual_s_total / done) / self.farm.n_cards

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker task per card on the running event loop."""
        if self._tasks:
            raise ConfigurationError("scheduler already started")
        self._tasks = [
            asyncio.create_task(
                self._worker(card), name=f"card-worker-{card}"
            )
            for card in range(self.farm.n_cards)
        ]

    async def stop(self) -> list[Job]:
        """Close the queue, wait for in-flight jobs, return undispatched."""
        leftover = await self.queue.close()
        if self._tasks:
            await asyncio.gather(*self._tasks)
            self._tasks = []
        return leftover

    async def _worker(self, card: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get(self.ledger.can_start)
            if job is None:
                return
            self.ledger.mark_active(job.tenant)
            job.state = "running"
            job.card = card
            job.started_wall = time.monotonic()
            job.add_event("started", card=card)
            try:
                payload = await loop.run_in_executor(
                    None, self.farm.execute, job.spec, card
                )
            except Exception as exc:  # noqa: BLE001 - surfaced on the job
                job.state = "failed"
                job.error = str(exc)
                job.error_kind = classify_failure(exc)
                job.result = None
            else:
                events = payload.pop("events", [])
                for event in events:
                    job.add_event("span", **event)
                job.result = payload
                self.virtual_s_total += float(payload.get("virtual_s", 0.0))
                if payload.get("completed", True):
                    job.state = "done"
                else:
                    job.state = "failed"
                    job.error = payload.get("failure")
                    job.error_kind = payload.get("failure_kind")
            finally:
                job.finished_wall = time.monotonic()
                self.per_card_jobs[card] += 1
                if job.state == "done":
                    self.jobs_done += 1
                else:
                    self.jobs_failed += 1
                job.add_event(job.state, card=card,
                              latency_s=round(job.latency_s or 0.0, 6))
                self.ledger.release(job.tenant)
                await self.queue.kick()
                if self.on_finished is not None:
                    self.on_finished(job)
