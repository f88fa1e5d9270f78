"""Experimental-campaign orchestration (paper Section 4).

Reproduces the measurement workflow end to end on a virtual clock:

    device reset -> sleep 120 s -> simulation (MPI_Wtime window)
                 -> sleep 120 s

with ~1 Hz sampling of all power channels throughout, csv persistence,
time-to-solution from the stopwatch around the simulation, and
energy-to-solution as the discrete power integral over the simulation
window only.  Device resets go through the fault injector, reproducing the
paper's 26-of-50 completion statistic when configured with its failure
rate.

Unlike the paper's scripts, the campaign can also *survive* that fault
model:

* a :class:`~repro.telemetry.retry.RetryPolicy` retries failed resets with
  exponential backoff on the virtual clock, recording honest per-job
  attempt counts;
* on exhausted retries a job can fail over to another card (``"card"``) or
  degrade to the CPU reference code (``"cpu"``), noted in the result;
* a JSON-lines checkpoint written after every job makes an interrupted
  campaign resumable via :meth:`Campaign.resume` with bit-identical
  remaining results;
* jobs that never start are still power-sampled over their reset-attempt
  window, as the paper does ("data acquisition occurs ... throughout the
  entire duration of a job").

Job timing comes from the *analytic* cost models (the same ones the
functional kernels charge), so a full paper-scale campaign runs in
milliseconds of real time while every timestamp relationship is preserved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.protocol import TimelineSegment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.runspec import RunSpec
from ..cpuref.openmp import OpenMPModel
from ..cpuref.params import CpuCostParams, DEFAULT_CPU_COSTS
from ..errors import CampaignError, DeviceResetError
from ..errors import failure_kind as classify_failure
from ..nbody_tt.offload import DeviceTimeModel
from ..simclock import Stopwatch, VirtualClock
from ..wormhole.device import ResetFaultModel
from ..wormhole.params import CostParams, DEFAULT_COSTS, HOST_INIT_S
from .checkpoint import CampaignCheckpoint
from .energy import EnergyToSolution, SampleRow, energy_to_solution, write_power_csv
from .ipmi import Ipmi
from .power_models import HostPowerModel, JobKind
from .rapl import Rapl
from .retry import NO_RETRY, RetryPolicy
from .sampler import PowerSampler
from .stats import RunStats, breakdown
from .timeline import JobTimeline
from .tt_smi import TTSMI

__all__ = [
    "JobSpec",
    "JobResult",
    "CampaignSummary",
    "Campaign",
    "FAILOVER_MODES",
]

#: Run-to-run duration noise for accelerated jobs (paper: 0.24/301.40).
DEVICE_RUN_NOISE_SIGMA = 0.0008

#: Graceful-degradation modes on exhausted reset retries.
FAILOVER_MODES = ("none", "card", "cpu")

#: Thread count of the degraded CPU job (the paper's reference setup).
CPU_FAILOVER_THREADS = 32


@dataclass(frozen=True)
class JobSpec:
    """One job of the campaign.

    The paper's accelerated jobs use one OpenMP thread, one MPI task, and
    one of the four devices; the reference jobs use 32 threads on the CPU.
    """

    accelerated: bool
    n_particles: int = 102_400
    n_cycles: int = 10
    n_threads: int = 1
    active_device: int = 3   # the device of the paper's Fig. 4 run
    n_cores: int = 64
    n_devices: int = 1
    #: registered integration scheme (the paper's campaign ran "hermite")
    integrator: str = "hermite"
    #: registered initial conditions (the paper's campaign ran "plummer")
    scenario: str = "plummer"

    @classmethod
    def paper_accelerated(cls, **overrides) -> "JobSpec":
        overrides.setdefault("n_threads", 1)
        return cls(accelerated=True, **overrides)

    @classmethod
    def paper_reference(cls, **overrides) -> "JobSpec":
        overrides.setdefault("n_threads", 32)
        return cls(accelerated=False, **overrides)

    # -- RunSpec bridge ----------------------------------------------------

    def to_runspec(self, **overrides) -> "RunSpec":
        """This job as a declarative :class:`repro.backends.RunSpec`.

        Accelerated jobs map to the registry's ``tt`` backend (``cards``
        carrying the multi-card count), reference jobs to ``cpu`` — so a
        campaign schedule can be persisted, inspected, or re-run through
        exactly the machinery ``repro simulate`` uses.
        """
        from ..backends import BackendSpec, RunSpec

        if self.accelerated:
            backend = BackendSpec("tt", {
                "cores": self.n_cores, "cards": self.n_devices,
            })
        else:
            backend = BackendSpec("cpu", {"threads": self.n_threads})
        overrides.setdefault("integrator", self.integrator)
        overrides.setdefault("scenario", self.scenario)
        return RunSpec(
            n=self.n_particles, cycles=self.n_cycles, backend=backend,
            **overrides,
        )

    @classmethod
    def from_runspec(cls, spec: "RunSpec", **overrides) -> "JobSpec":
        """Build a campaign job from a :class:`repro.backends.RunSpec`.

        The inverse of :meth:`to_runspec`: any ``tt``-family backend maps
        to an accelerated job, everything else to a reference job.  Cores,
        cards and threads the spec leaves out take the backend registry's
        defaults, as the functional run of the same spec does.
        """
        from ..backends import BACKENDS

        entry, options = BACKENDS.resolve(spec.backend)
        if entry.name.startswith("tt"):
            fields = dict(
                accelerated=True,
                n_cores=options["cores"],
                n_devices=options.get("cards", 1),
                n_threads=1,
            )
        else:
            fields = dict(
                accelerated=False,
                n_threads=options.get("threads", 32),
            )
        fields.update(
            n_particles=spec.n, n_cycles=spec.cycles,
            integrator=spec.integrator.name, scenario=spec.scenario.name,
            **overrides,
        )
        return cls(**fields)

    def kind(self, n_cards: int | None = None) -> JobKind:
        """Power-model description of this job.

        Multi-card jobs occupy ``n_devices`` consecutive slots *starting
        from the requested* ``active_device`` (not from slot 0), wrapping
        modulo ``n_cards`` when the host's card count is given.
        """
        if not self.accelerated:
            return JobKind(accelerated=False, n_threads=self.n_threads)
        if n_cards is not None:
            active = tuple(
                (self.active_device + i) % n_cards
                for i in range(self.n_devices)
            )
        else:
            active = tuple(
                self.active_device + i for i in range(self.n_devices)
            )
        return JobKind(
            accelerated=True,
            n_threads=self.n_threads,
            active_device=active[0],
            active_devices=active,
        )


@dataclass
class JobResult:
    """Outcome of one campaign job.

    ``spec`` is the job *as requested*; when graceful degradation kicked in,
    ``failover`` records what actually ran (``"card:<id>"`` after a card
    rotation, ``"cpu"`` after a downgrade to the reference code).
    ``attempts`` counts device-reset attempts (0 for reference jobs), and
    ``failure_kind`` carries the taxonomy label of the last failure even
    when a failover ultimately completed the job.
    """

    spec: JobSpec
    completed: bool
    failure: str | None = None
    failure_kind: str | None = None
    attempts: int = 0
    failover: str | None = None
    time_to_solution: float | None = None
    energy: EnergyToSolution | None = None
    peak_total_w: float | None = None
    rows: list[SampleRow] = field(default_factory=list)
    sim_start: float | None = None
    sim_end: float | None = None
    csv_path: Path | None = None


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate statistics over a set of job results."""

    submitted: int
    completed: int
    time_stats: RunStats | None
    energy_stats: RunStats | None
    peak_power_stats: RunStats | None
    #: total device-reset attempts across all jobs (the fault model's view)
    total_attempts: int = 0
    #: jobs that needed more than one reset attempt
    retried: int = 0
    #: sorted (failure kind, count) pairs over jobs that recorded a failure
    failure_kinds: tuple[tuple[str, int], ...] = ()
    #: sorted (failover note, count) pairs over degraded jobs
    failovers: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_results(cls, results: list[JobResult]) -> "CampaignSummary":
        done = [r for r in results if r.completed]
        peaks = [r.peak_total_w for r in done if r.peak_total_w is not None]
        return cls(
            submitted=len(results),
            completed=len(done),
            time_stats=(
                RunStats.from_values([r.time_to_solution for r in done])
                if done else None
            ),
            energy_stats=(
                RunStats.from_values([r.energy.total_kj for r in done])
                if done else None
            ),
            peak_power_stats=(
                RunStats.from_values(peaks) if peaks else None
            ),
            total_attempts=sum(r.attempts for r in results),
            retried=sum(1 for r in results if r.attempts > 1),
            failure_kinds=breakdown(r.failure_kind for r in results),
            failovers=breakdown(r.failover for r in results),
        )


class Campaign:
    """Runs jobs against the virtual clock with full telemetry.

    ``retry`` bounds the device-reset attempts per job (default: one, the
    paper's behaviour); ``failover`` picks the graceful-degradation mode on
    exhausted retries (``"none"``, ``"card"`` — rotate to the other cards,
    ``"cpu"`` — run the reference code instead); ``checkpoint`` names a
    JSON-lines file written after every job for :meth:`resume`.

    ``trace`` attaches a Scope :class:`~repro.observability.Trace`: every
    job becomes a ``job`` span (reset attempts, backoffs, sleeps, and the
    simulate window with its per-segment children) anchored to the virtual
    clock, and campaign metrics (jobs, retries, failovers, time- and
    energy-to-solution) accumulate in ``trace.metrics``.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        n_cards: int = 4,
        sleep_s: float = 120.0,
        reset_failure_rate: float = 0.0,
        csv_dir: str | Path | None = None,
        device_costs: CostParams = DEFAULT_COSTS,
        cpu_costs: CpuCostParams = DEFAULT_CPU_COSTS,
        retry: RetryPolicy | None = None,
        failover: str = "none",
        checkpoint: str | Path | None = None,
        sample_interval_s: float = 1.0,
        trace=None,
    ) -> None:
        if sleep_s < 0:
            raise CampaignError(f"negative sleep {sleep_s}")
        if failover not in FAILOVER_MODES:
            raise CampaignError(
                f"failover must be one of {FAILOVER_MODES}, got {failover!r}"
            )
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.clock = VirtualClock()
        self.sleep_s = sleep_s
        self.n_cards = n_cards
        self.device_costs = device_costs
        self.cpu_costs = cpu_costs
        self.retry = retry if retry is not None else NO_RETRY
        self.failover = failover
        self.fault_model = ResetFaultModel(reset_failure_rate, self.rng)
        self.tt_smi = TTSMI(n_cards, self.rng)
        self.host_model = HostPowerModel(self.rng)
        self.rapl = Rapl()
        self.ipmi = Ipmi(self.rng)
        self.sampler = PowerSampler(
            self.tt_smi, self.host_model, self.rapl, self.ipmi,
            interval_s=sample_interval_s,
        )
        self.csv_dir = Path(csv_dir) if csv_dir is not None else None
        if self.csv_dir is not None:
            self.csv_dir.mkdir(parents=True, exist_ok=True)
        self._job_counter = 0
        #: optional Scope trace; job phases are narrated as spans anchored
        #: to the virtual clock.  Not serialised into checkpoints — a
        #: resumed campaign starts a fresh trace if it wants one.
        self.trace = trace
        self.checkpoint = (
            CampaignCheckpoint(checkpoint) if checkpoint is not None else None
        )
        self._checkpoint_started = False
        self._jobs_recorded = 0
        #: results restored by :meth:`resume` (empty for a fresh campaign)
        self.resumed_results: list[JobResult] = []
        #: torn checkpoint line dropped by :meth:`resume` (None: clean file)
        self.repaired_tail: str | None = None
        #: schedule still pending after :meth:`resume` / a partial run
        self.remaining_schedule: list[JobSpec] = []

    # -- timeline construction ---------------------------------------------

    def _accelerated_segments(self, spec: JobSpec,
                              noise: float) -> list[TimelineSegment]:
        model = DeviceTimeModel(
            n_cores=spec.n_cores,
            n_devices=spec.n_devices,
            costs=self.device_costs,
        )
        n = spec.n_particles
        eval_s = model.eval_seconds(n) * noise
        pcie_s = model.pcie_seconds(n)
        host_cycle_s = model.host_cycle_seconds(n) * noise
        evaluation = [
            TimelineSegment("launch", model.costs.host_launch_overhead_s, "dispatch"),
            TimelineSegment("pcie", pcie_s / 2, "write"),
            TimelineSegment("device", eval_s, "force"),
            TimelineSegment("pcie", pcie_s / 2, "read"),
        ]
        predict = TimelineSegment("host", host_cycle_s / 2, "predict")
        correct = TimelineSegment("host", host_cycle_s / 2, "correct")
        # the functional path's tags: host init, then the first program build
        segments = [
            TimelineSegment("host", HOST_INIT_S, "init"),
            TimelineSegment("launch", model.costs.program_build_s, "program_build"),
            *evaluation,
        ]
        for _ in range(spec.n_cycles):
            segments += [predict, *evaluation, correct]
        return segments

    def _reference_segments(self, spec: JobSpec,
                            noise: float) -> list[TimelineSegment]:
        model = OpenMPModel(spec.n_threads, costs=self.cpu_costs)
        n = spec.n_particles
        eval_s = model.force_eval_seconds(n) * noise
        serial_s = model.serial_seconds(n) * noise
        force = TimelineSegment("host", eval_s, "force-omp")
        predict = TimelineSegment("host", serial_s / 2, "predict")
        correct = TimelineSegment("host", serial_s / 2, "correct")
        segments = [TimelineSegment("host", self.cpu_costs.init_seconds, "init"), force]
        for _ in range(spec.n_cycles):
            segments += [predict, force, correct]
        return segments

    # -- job execution -----------------------------------------------------

    def _reset_phase(
        self,
    ) -> tuple[bool, int, DeviceResetError | None]:
        """Attempt the device reset under the retry policy.

        Each attempt (failed or not) costs ``reset_duration_s`` of virtual
        time; failed attempts that will be retried add the policy's backoff
        sleep.  Returns ``(succeeded, attempts, last_failure)``.
        """
        trace = self.trace
        reset_s = self.device_costs.reset_duration_s
        last: DeviceResetError | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                self.fault_model.check()
            except DeviceResetError as exc:
                last = exc
                self.clock.advance(reset_s)
                if trace is not None:
                    trace.add_span(
                        "reset", reset_s, category="job",
                        attempt=attempt, ok=False,
                    )
                if (attempt < self.retry.max_attempts
                        and self.retry.retryable(exc)):
                    backoff_s = self.retry.backoff_s(attempt, self.rng)
                    self.clock.sleep(backoff_s)
                    if trace is not None:
                        trace.add_span(
                            "backoff", backoff_s, category="job",
                            attempt=attempt,
                        )
                    continue
                return False, attempt, last
            self.clock.advance(reset_s)
            if trace is not None:
                trace.add_span(
                    "reset", reset_s, category="job", attempt=attempt, ok=True
                )
            return True, attempt, None
        raise AssertionError("unreachable: retry loop always returns")

    def _failed_result(self, spec: JobSpec, job_start: float, attempts: int,
                       exc: DeviceResetError) -> JobResult:
        """Record a job that never started — power-sampled regardless.

        The paper samples "throughout the entire duration of a job",
        including the 24 jobs that died in the reset phase; their traces
        show the cards at idle draw over the reset-attempt window.
        """
        job_end = self.clock.now()
        # an empty timeline anchored at the failure point: every sample in
        # [job_start, job_end) predates any kernel, so all cards read idle
        rows = self.sampler.sample_job(
            job_start, job_end, spec.kind(self.n_cards),
            JobTimeline(job_end, []),
        )
        csv_path = None
        if self.csv_dir is not None:
            tag = "accel" if spec.accelerated else "ref"
            csv_path = self.csv_dir / f"job_{self._job_counter:03d}_{tag}.csv"
            write_power_csv(csv_path, rows)
        return JobResult(
            spec=spec,
            completed=False,
            failure=str(exc),
            failure_kind=classify_failure(exc),
            attempts=attempts,
            rows=rows,
            csv_path=csv_path,
        )

    def _trace_sync(self) -> None:
        """Catch the trace cursor up with the virtual clock (traced runs)."""
        if self.trace is not None and self.clock.now() > self.trace.now:
            self.trace.jump_to(self.clock.now())

    def run_job(self, spec: JobSpec) -> JobResult:
        """Run one job: reset, sleep, simulate, sleep — with sampling.

        The reset phase honours the campaign's retry policy and failover
        mode; the returned result carries the attempt count and, when
        degradation kicked in, a ``failover`` note.
        """
        trace = self.trace
        if trace is None:
            return self._run_job_inner(spec)
        self._trace_sync()
        with trace.span(
            "job", category="job", index=self._job_counter + 1,
            accelerated=spec.accelerated, n=spec.n_particles,
            n_cycles=spec.n_cycles,
        ) as span:
            result = self._run_job_inner(spec)
            self._trace_sync()
            span.attributes.update(
                completed=result.completed,
                attempts=result.attempts,
                failover=result.failover,
            )
        self._record_job_metrics(result)
        return result

    def _record_job_metrics(self, result: JobResult) -> None:
        """Campaign-level metrics for one finished job (traced runs)."""
        metrics = self.trace.metrics
        metrics.counter("campaign.jobs").inc()
        metrics.counter("campaign.reset_attempts").add(result.attempts)
        if result.attempts > 1:
            metrics.counter("campaign.jobs_retried").inc()
        if result.failover is not None:
            metrics.counter("campaign.failovers").inc()
        if not result.completed:
            metrics.counter("campaign.jobs_failed").inc()
            return
        metrics.counter("campaign.jobs_completed").inc()
        if result.time_to_solution is not None:
            metrics.histogram("campaign.time_to_solution_s").observe(
                result.time_to_solution
            )
        if result.energy is not None and result.spec.n_cycles > 0:
            metrics.histogram("campaign.joules_per_cycle").observe(
                result.energy.total_kj * 1e3 / result.spec.n_cycles
            )

    def _run_job_inner(self, spec: JobSpec) -> JobResult:
        """The job body (inside the ``job`` span when traced)."""
        trace = self.trace
        self._job_counter += 1
        job_start = self.clock.now()

        attempts = 0
        failure: DeviceResetError | None = None
        failover_note: str | None = None
        run_spec = spec

        if spec.accelerated:
            ok, n, failure = self._reset_phase()
            attempts += n
            if not ok and self.failover == "card" and self.n_cards > 1:
                # rotate through the remaining cards, same retry budget each
                for step in range(1, self.n_cards):
                    candidate = replace(
                        spec,
                        active_device=(spec.active_device + step)
                        % self.n_cards,
                    )
                    ok, n, failure = self._reset_phase()
                    attempts += n
                    if ok:
                        run_spec = candidate
                        failover_note = f"card:{candidate.active_device}"
                        break
            if not ok and self.failover == "cpu":
                # degrade to the reference code: no device, no reset needed
                run_spec = replace(
                    spec,
                    accelerated=False,
                    n_threads=CPU_FAILOVER_THREADS,
                    n_devices=1,
                )
                failover_note = "cpu"
                ok = True
            if not ok:
                assert failure is not None
                return self._failed_result(spec, job_start, attempts, failure)

        self.clock.sleep(self.sleep_s)
        if trace is not None:
            trace.add_span("sleep", self.sleep_s, category="job")

        noise_sigma = (
            DEVICE_RUN_NOISE_SIGMA if run_spec.accelerated
            else self.cpu_costs.run_noise_sigma
        )
        noise = float(np.clip(self.rng.normal(1.0, noise_sigma), 0.5, 1.5))
        segments = (
            self._accelerated_segments(run_spec, noise)
            if run_spec.accelerated
            else self._reference_segments(run_spec, noise)
        )

        watch = Stopwatch(self.clock)
        watch.start()
        sim_start = self.clock.now()
        timeline = JobTimeline(sim_start, segments)
        self.clock.advance(timeline.duration)
        time_to_solution = watch.stop()
        if trace is not None:
            with trace.span(
                "simulate", category="job", n=run_spec.n_particles,
                n_cycles=run_spec.n_cycles, accelerated=run_spec.accelerated,
            ):
                for seg in segments:
                    trace.add_span(
                        seg.detail or seg.tag, seg.seconds, category=seg.tag
                    )
            self._trace_sync()

        self.clock.sleep(self.sleep_s)
        if trace is not None:
            trace.add_span("sleep", self.sleep_s, category="job")
        job_end = self.clock.now()

        rows = self.sampler.sample_job(
            job_start, job_end, run_spec.kind(self.n_cards), timeline
        )
        in_sim = [
            r for r in rows if sim_start <= r.timestamp < timeline.end_time
        ]
        if in_sim:
            energy = energy_to_solution(rows, sim_start, timeline.end_time)
            peak = max(r.host_w + sum(r.card_w) for r in in_sim)
        elif rows:
            # simulation window shorter than the sampling interval (tiny N):
            # fall back to the sample nearest the window so the result still
            # carries an honest, if coarse, power/energy estimate
            nearest = min(rows, key=lambda r: abs(r.timestamp - sim_start))
            window_s = timeline.end_time - sim_start
            energy = EnergyToSolution(
                cards_kj=tuple(w * window_s / 1e3 for w in nearest.card_w),
                host_kj=nearest.host_w * window_s / 1e3,
            )
            peak = nearest.host_w + sum(nearest.card_w)
        else:  # pragma: no cover - sample_job guarantees >= 1 row
            energy = None
            peak = None

        csv_path = None
        if self.csv_dir is not None:
            tag = "accel" if run_spec.accelerated else "ref"
            csv_path = self.csv_dir / f"job_{self._job_counter:03d}_{tag}.csv"
            write_power_csv(csv_path, rows)

        return JobResult(
            spec=spec,
            completed=True,
            failure=str(failure) if failure is not None else None,
            failure_kind=(
                classify_failure(failure) if failure is not None else None
            ),
            attempts=attempts,
            failover=failover_note,
            time_to_solution=time_to_solution,
            energy=energy,
            peak_total_w=peak,
            rows=rows,
            sim_start=sim_start,
            sim_end=timeline.end_time,
            csv_path=csv_path,
        )

    # -- schedules and checkpointing ---------------------------------------

    def _config_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_cards": self.n_cards,
            "sleep_s": self.sleep_s,
            "reset_failure_rate": self.fault_model.failure_rate,
            "csv_dir": str(self.csv_dir) if self.csv_dir else None,
            "retry": asdict(self.retry),
            "failover": self.failover,
            "sample_interval_s": self.sampler.interval_s,
        }

    def _state_dict(self) -> dict:
        return {
            "clock": self.clock.now(),
            "rng": self.rng.bit_generator.state,
            "fault": self.fault_model.state(),
            "job_counter": self._job_counter,
        }

    def run_schedule(
        self,
        specs: Sequence[JobSpec],
        *,
        stop_after: int | None = None,
        _record_schedule: bool = True,
    ) -> list[JobResult]:
        """Run a planned sequence of jobs, checkpointing after each.

        ``stop_after`` runs only the first N jobs while still recording the
        full schedule in the checkpoint — staged execution: the rest stays
        pending for :meth:`resume` (and lands in ``remaining_schedule``).
        """
        specs = list(specs)
        if not specs:
            raise CampaignError("empty job schedule")
        if stop_after is not None and stop_after < 0:
            raise CampaignError(f"stop_after must be >= 0, got {stop_after}")
        if self.checkpoint is not None:
            if not self._checkpoint_started:
                self.checkpoint.write_header(self._config_dict())
                self._checkpoint_started = True
            if _record_schedule:
                self.checkpoint.append_schedule(specs)
        results: list[JobResult] = []
        for i, spec in enumerate(specs):
            if stop_after is not None and i >= stop_after:
                self.remaining_schedule = specs[i:]
                break
            result = self.run_job(spec)
            results.append(result)
            if self.checkpoint is not None:
                self.checkpoint.append_job(
                    self._jobs_recorded, result, self._state_dict()
                )
                self._jobs_recorded += 1
        else:
            self.remaining_schedule = []
        return results

    def run_many(self, spec: JobSpec, n_jobs: int) -> list[JobResult]:
        if n_jobs <= 0:
            raise CampaignError(f"job count must be positive, got {n_jobs}")
        return self.run_schedule([spec] * n_jobs)

    @classmethod
    def resume(
        cls,
        checkpoint_path: str | Path,
        *,
        device_costs: CostParams = DEFAULT_COSTS,
        cpu_costs: CpuCostParams = DEFAULT_CPU_COSTS,
    ) -> "Campaign":
        """Rebuild an interrupted campaign from its checkpoint.

        Reconstructs the campaign from the recorded configuration, restores
        the post-last-job state (virtual clock, RNG, fault-model counters),
        and exposes the finished jobs as ``resumed_results`` and the pending
        specs as ``remaining_schedule``.  :meth:`run_remaining` finishes the
        schedule; because every random stream is restored exactly, the
        combined results are bit-identical to an uninterrupted run.

        Cost tables are not serialised; pass the same ``device_costs`` /
        ``cpu_costs`` the original campaign used (defaults match the
        default campaign).  RAPL counters restart from zero — they are an
        instrument view, not an input to any result.
        """
        loaded = CampaignCheckpoint.load(checkpoint_path)
        if loaded.torn_tail is not None:
            # a crash tore the final record; truncate it away *before* any
            # new append, or the next job record would be glued onto the
            # partial line and corrupt the file beyond recovery
            CampaignCheckpoint(checkpoint_path).repair()
        cfg = loaded.config
        campaign = cls(
            seed=cfg["seed"],
            n_cards=cfg["n_cards"],
            sleep_s=cfg["sleep_s"],
            reset_failure_rate=cfg["reset_failure_rate"],
            csv_dir=cfg["csv_dir"],
            device_costs=device_costs,
            cpu_costs=cpu_costs,
            retry=RetryPolicy(**cfg["retry"]),
            failover=cfg["failover"],
            checkpoint=checkpoint_path,
            sample_interval_s=cfg.get("sample_interval_s", 1.0),
        )
        campaign._checkpoint_started = True
        campaign.repaired_tail = loaded.torn_tail
        if loaded.states:
            last = loaded.states[-1]
            campaign.clock.jump_to(last["clock"])
            campaign.rng.bit_generator.state = last["rng"]
            campaign.fault_model.restore(last["fault"])
            campaign._job_counter = int(last["job_counter"])
        campaign._jobs_recorded = len(loaded.results)
        campaign.resumed_results = list(loaded.results)
        campaign.remaining_schedule = list(loaded.remaining)
        return campaign

    def run_remaining(self, *,
                      stop_after: int | None = None) -> list[JobResult]:
        """Finish a resumed campaign; returns restored + new results."""
        results = list(self.resumed_results)
        if self.remaining_schedule:
            pending = self.remaining_schedule
            new = self.run_schedule(
                pending, stop_after=stop_after, _record_schedule=False
            )
            results += new
            self.resumed_results = results
            self.remaining_schedule = pending[len(new):]
        return results
