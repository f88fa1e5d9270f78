"""The benchmark's four workloads, driven through the public entry points.

Three simulation workloads run *jobs* the way ``repro simulate`` does: a
:class:`~repro.backends.RunSpec` is realised with ``make_system`` /
``make_backend`` / ``make_simulation``, initialised (the set-up), then
advanced by ``spec.cycles`` calls of ``run(1)`` (the timed window).  A job
is a fixed amount of work, so its exact counts — modelled seconds,
particle updates, the final state — repeat from job to job.  A run makes
one check job (the output checks, and a warm-up), then measures as many
jobs as fit ``--seconds`` on the reference host, at least
:data:`MIN_JOBS`.  ``service-closed`` drives the job server over HTTP from
two closed-loop clients, which submit ``--seconds`` worth of jobs.

Every workload's inputs come from ``--seed`` alone: the seed picks the
initial-condition realisation (or, for ``block-binary``, the validation
sample — see :data:`BLOCK_REALISATION_SEED`) and the service's job mix.

Every workload reports every end-to-end metric:

* ``setup_s`` — median set-up time: ``make_system`` through the first
  force evaluation of each measured job; for ``service-closed``, server
  start until ``/healthz`` answers.
* ``particle_steps_per_s`` — particle updates per wall second, the median
  over the measured ``run(1)`` calls; for ``service-closed``, the
  ``n * cycles`` of the completed jobs' specs (the simulated work served).
* ``jobs_per_s``, ``job_p50_s``, ``job_p99_s`` — jobs per wall second and
  job latency.  A simulation job is one RunSpec run end to end (set-up
  and window; with three jobs the p99 is near the slowest); a service job
  is one submission, timed at the client from submit to result.
* ``peak_rss_mb`` — peak resident memory of the run's process.

Failed operations (an integrator step that raises or leaves non-finite
state; a job that fails, is refused with 429 or times out) are the
result's ``failed`` count out of ``attempted``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backends import BackendSpec, RunSpec
from repro.core import energy_report
from repro.core.forces import accel_jerk_on_targets
from repro.core.validation import compare_to_reference
from repro.errors import QuotaExceededError, ServiceError
from repro.service import ServerConfig, ServiceClient, ServiceThread

from spans import Recorder, layer_metrics

#: fewest jobs a simulation run measures, however short ``--seconds``
MIN_JOBS = 3
#: targets whose first-evaluation rows are checked against float64
SAMPLE_TARGETS = 512
#: a traced job's wall not covered by any layer span may be at most this
#: share of it; beyond that the per-layer breakdown does not add up
UNATTRIBUTED_BOUND = 0.05
#: server starts whose start-to-/healthz times give ``setup_s`` (one
#: more start, unmeasured, warms the event-loop machinery up first)
SERVICE_SETUPS = 25
#: the main thread's name, where every traced job runs
MAIN = threading.main_thread().name


# --------------------------------------------------------------------------
# Workload definitions
# --------------------------------------------------------------------------


def direct_2card_spec(seed: int) -> RunSpec:
    """The paper's shared-step Hermite on 64 cores of two cards."""
    return RunSpec(
        n=8192, cycles=32, dt=1.0e-3, seed=seed,
        backend=BackendSpec("tt", {"cores": 64, "cards": 2,
                                   "workers": "thread"}),
        integrator="hermite", scenario="plummer",
    )


#: ``block-binary`` integrates one fixed realisation, the one the
#: BENCH_integrators comparison uses; its seed only picks the targets the
#: first evaluation is checked on.  On fp32 device forces the deepest
#: block level, and with it the number of dispatches per unit time, is
#: set by round-off in the timestep criterion: over seeds 1-6 a window of
#: 0.001 time units took 31 to 513 block steps (20 to 34 on float64
#: forces).  A seed-drawn realisation would make the workload's size, not
#: the program's speed, the run-to-run spread.
BLOCK_REALISATION_SEED = 9


def block_binary_spec(seed: int) -> RunSpec:
    """Block-Hermite subset dispatch on one card (seed: check sample)."""
    return RunSpec(
        n=8192, cycles=1, dt=2.5e-4, seed=BLOCK_REALISATION_SEED,
        backend=BackendSpec("tt", {"cores": 8}),
        integrator={"name": "block-hermite",
                    "options": {"eta": 0.01, "dt_max": 0.0625}},
        scenario="cluster_with_binary",
    )


def pm_collapse_spec(seed: int) -> RunSpec:
    """Leapfrog cold collapse on the particle-mesh far field."""
    return RunSpec(
        n=16384, cycles=2, dt=1.0e-3, seed=seed,
        backend=BackendSpec("tt-pm", {"cores": 64, "mesh": 64,
                                      "cutoff": 2.5}),
        integrator="leapfrog", scenario="uniform_sphere",
    )


@dataclass(frozen=True)
class SimWorkload:
    """A simulation workload and the checks its outputs must pass."""

    name: str
    spec: Callable[[int], RunSpec]
    #: "gates": the paper's 0.05% / 0.2% acc/jerk gates; "rms": RMS
    #: acceleration error within :attr:`rms_bound`
    accuracy: str
    #: wall seconds of one job on the reference host (2-core x86): a run
    #: measures ``--seconds`` worth of jobs, and at least MIN_JOBS
    job_s: float
    rms_bound: float = 0.0
    #: largest |dE/E| over one job's timed window (None: not checked)
    drift_bound: float | None = None


#: An unsoftened Plummer sphere at a fixed dt = 1e-3 loses up to ~1e-3 of
#: its energy when a close pair passes inside the window (3e-7 to 1.0e-3
#: over ten seeds); a broken force path or corrector loses far more.
DIRECT_DRIFT_BOUND = 1.0e-2


SIM_WORKLOADS = {
    w.name: w for w in (
        SimWorkload("direct-2card", direct_2card_spec, "gates", 4.5,
                    drift_bound=DIRECT_DRIFT_BOUND),
        SimWorkload("block-binary", block_binary_spec, "gates", 5.0,
                    drift_bound=1.0e-6),
        SimWorkload("pm-collapse", pm_collapse_spec, "rms", 6.0,
                    rms_bound=0.01),
    )
}


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run hands back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: exact counts that must repeat across runs of the same inputs
    counts: dict[str, object] = field(default_factory=dict)
    recorder: Recorder | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _close(backend) -> None:
    close = getattr(backend, "close", None)
    if close is not None:
        close()


# --------------------------------------------------------------------------
# Simulation workloads
# --------------------------------------------------------------------------


@dataclass
class Job:
    """One RunSpec realised and run: timings and exact counts."""

    setup_s: float
    #: wall seconds of each ``run(1)`` call of the timed window
    cycle_s: list[float]
    steps: int
    updates: int
    model_s: float
    state: str
    residency: dict[str, int]

    @property
    def window_s(self) -> float:
        return sum(self.cycle_s)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.window_s

    def exact(self) -> dict[str, object]:
        return {"model_s": self.model_s, "core.steps": self.steps,
                "core.particle_updates": self.updates, "state": self.state}


class Checks:
    """Output checks, made on one job outside its timed parts."""

    def __init__(self, workload: SimWorkload, spec: RunSpec,
                 seed: int) -> None:
        self.workload = workload
        self.spec = spec
        self.seed = seed
        self.problems: list[str] = []
        self.initial = None

    def after_setup(self, system) -> None:
        """First-evaluation rows vs float64; initial energy."""
        rng = np.random.default_rng(self.seed)
        idx = np.sort(rng.choice(system.n, SAMPLE_TARGETS, replace=False))
        acc_ref, jerk_ref = accel_jerk_on_targets(
            system.pos, system.vel, system.mass, idx,
            softening=self.spec.softening,
        )
        acc = system.acc[idx]
        if self.workload.accuracy == "gates":
            report = compare_to_reference(acc, system.jerk[idx], acc_ref,
                                          jerk_ref)
            print(f"  check first evaluation vs float64: "
                  f"{report.summary()}")
            if not report.passed:
                self.problems.append(f"force gates: {report.summary()}")
        else:
            rms = float(np.sqrt(np.sum((acc - acc_ref) ** 2)
                                / np.sum(acc_ref ** 2)))
            print(f"  check first evaluation vs float64: RMS acc error "
                  f"{rms:.3e} (bound {self.workload.rms_bound:.0e})")
            if not rms <= self.workload.rms_bound:
                self.problems.append(f"RMS force error {rms:.3e}")
        if self.workload.drift_bound is not None:
            self.initial = energy_report(system,
                                         softening=self.spec.softening)

    def after_window(self, system) -> None:
        """Energy drift over the timed window."""
        if self.initial is None:
            return
        final = energy_report(system, softening=self.spec.softening)
        drift = abs(final.drift_from(self.initial))
        print(f"  check energy drift |dE/E| = {drift:.3e} "
              f"(bound {self.workload.drift_bound:.0e})")
        if not drift <= self.workload.drift_bound:
            self.problems.append(f"energy drift {drift:.3e}")


def run_job(spec: RunSpec, checks: Checks | None = None) -> Job:
    """Realise ``spec`` and run its timed window, as ``repro simulate``.

    The window is ``spec.cycles`` calls of ``run(1)``, each advancing
    ``spec.dt`` of physical time, timed one by one.
    """
    gc.collect()
    t0 = time.perf_counter()
    system = spec.make_system()
    backend = spec.make_backend()
    try:
        sim = spec.make_simulation(system, backend)
        sim.initialise()
        setup_s = time.perf_counter() - t0
        if checks is not None:
            checks.after_setup(system)
        cycle_s, steps, model_s = [], 0, 0.0
        for _ in range(spec.cycles):
            t1 = time.perf_counter()
            result = sim.run(1)
            cycle_s.append(time.perf_counter() - t1)
            steps += len(result.cycles)
            model_s += result.model_seconds
        residency = (backend.residency_counters()
                     if hasattr(backend, "residency_counters") else {})
    finally:
        _close(backend)
    if not (np.all(np.isfinite(system.pos))
            and np.all(np.isfinite(system.vel))):
        raise FloatingPointError("non-finite particle state after the run")
    if checks is not None:
        checks.after_window(system)
    stats = getattr(sim, "stats", None)
    updates = (stats.particle_updates if stats is not None
               else spec.n * steps)
    state = hashlib.sha256(
        system.pos.tobytes() + system.vel.tobytes()
    ).hexdigest()[:16]
    return Job(setup_s, cycle_s, steps, updates, model_s, state,
               dict(residency))


def _job_line(kind: str, job: Job) -> str:
    return (f"  {kind} job: setup {job.setup_s:.3f} s, window "
            f"{job.window_s:.3f} s, {job.steps} steps, {job.updates} "
            f"particle updates, model {job.model_s!r} s")


def _hit_rate(residency: dict[str, int], kind: str) -> float:
    hits = residency.get(f"{kind}_cache_hits", 0)
    total = hits + residency.get(f"{kind}_cache_misses", 0)
    return hits / total if total else 0.0


def _coverage_problems(metrics: dict[str, float]) -> list[str]:
    """The traced main thread's wall must add up to its layer spans."""
    share = metrics["bench.unattributed_frac"]
    if share <= UNATTRIBUTED_BOUND:
        return []
    return [f"layer spans cover only {1 - share:.1%} of the traced "
            f"main-thread wall (bound {1 - UNATTRIBUTED_BOUND:.0%})"]


def _compare(problems: list[str], what: str, first: dict, other: dict):
    for key, value in first.items():
        if key in other and other[key] != value:
            problems.append(
                f"{what}: {key} {value!r} then {other[key]!r}"
            )


def run_sim(workload: SimWorkload, seed: int, seconds: float,
            traced: bool) -> Outcome:
    """A check job, then repeats of the same job that are measured.

    The check job also warms the process up (lazy imports, allocator,
    thread pools), so the measured jobs start alike.  A traced run
    alternates traced and untraced jobs.
    """
    spec = workload.spec(seed)
    print(f"workload {workload.name}: {spec.to_json()}")
    checks = Checks(workload, spec, seed)
    failed = 0
    try:
        check_job = run_job(spec, checks)
    except Exception:  # noqa: BLE001 - a failed job is reported
        traceback.print_exc()
        return Outcome({}, 1, 1, checks.problems + ["the check job failed"])
    print(_job_line("check", check_job))
    jobs: list[Job] = [check_job]
    untraced_jobs: list[Job] = []
    traced_jobs: list[tuple[Job, Recorder]] = []
    plan = ([True, False] * 2 if traced
            else [False] * max(MIN_JOBS, round(seconds / workload.job_s)))
    for trace_this in plan:
        try:
            if trace_this:
                recorder = Recorder()
                with recorder.instrument():
                    job = run_job(spec)
                traced_jobs.append((job, recorder))
            else:
                job = run_job(spec)
                untraced_jobs.append(job)
        except Exception:  # noqa: BLE001 - a failed job is reported
            traceback.print_exc()
            failed += 1
            continue
        print(_job_line("traced" if trace_this else "untraced", job))
        jobs.append(job)

    problems = list(checks.problems)
    attempted = sum(j.steps for j in jobs) + failed
    if not untraced_jobs or (traced and not traced_jobs):
        return Outcome({}, attempted, failed,
                       problems + ["no measured job completed"])
    for job in jobs[1:]:
        _compare(problems, "job counts differ", jobs[0].exact(), job.exact())
    counts = jobs[0].exact()
    if not traced:
        walls = [j.wall_s for j in untraced_jobs]
        metrics = {
            "setup_s": statistics.median(j.setup_s for j in untraced_jobs),
            # per-cycle rates pooled over the measured jobs: a host hiccup
            # slows one cycle, not the median
            "particle_steps_per_s": statistics.median(
                j.updates / len(j.cycle_s) / c
                for j in untraced_jobs for c in j.cycle_s
            ),
            "jobs_per_s": len(walls) / sum(walls),
            "job_p50_s": statistics.median(walls),
            "job_p99_s": p99(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(metrics, attempted, failed, problems, counts)

    per_job = []
    for job, recorder in traced_jobs:
        layers = layer_metrics(recorder, main_thread=MAIN, wall_s=job.wall_s)
        layers.update({
            "model_s": job.model_s,
            "core.steps": job.steps,
            "core.particle_updates": job.updates,
            "nbody_tt.tilize_hit_rate": _hit_rate(job.residency, "tilize"),
            "nbody_pm.green_hit_rate": _hit_rate(job.residency, "green"),
            "service.queue_wait_p50_s": 0.0,
            "service.cache_hit_rate": 0.0,
            "service.dedupe_rate": 0.0,
        })
        per_job.append(layers)
    exact = ("nbody_tt.tiles", "nbody_tt.pairs", "metalium.programs_built",
             "nbody_pm.near_pairs")
    for layers in per_job[1:]:
        _compare(problems, "traced counts differ",
                 {k: per_job[0][k] for k in exact},
                 {k: layers[k] for k in exact})
    counts.update({k: per_job[0][k] for k in exact})
    # times are averaged over the traced jobs; counts are equal in each
    metrics = {
        key: (statistics.fmean(layers[key] for layers in per_job)
              if isinstance(value, float) else value)
        for key, value in per_job[0].items()
    }
    untraced_wall = statistics.fmean(j.wall_s for j in untraced_jobs)
    traced_wall = statistics.fmean(j.wall_s for j, _ in traced_jobs)
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    problems += _coverage_problems(metrics)
    return Outcome(metrics, attempted, failed, problems, counts,
                   traced_jobs[-1][1])


# --------------------------------------------------------------------------
# service-closed
# --------------------------------------------------------------------------


#: job-mix parameters: sizes and lengths of the submitted simulations
SERVICE_N = (1024, 2048, 4096, 8192)
SERVICE_CYCLES = (1, 2, 4)
SERVICE_CORES = (8, 64)
#: share of submissions that repeat an earlier spec
REPEAT_SHARE = 0.25
#: modelled-mode card slots and closed-loop clients (one tenant each)
SERVICE_CARDS = 2
SERVICE_CLIENTS = 2
#: jobs the two clients complete per second on the reference host: a run
#: submits ``--seconds`` worth of them, a fixed amount of work per seed
SERVICE_JOBS_PER_S = 300
#: equal-count slices of a window (each keeps >= 10 jobs beyond its p99)
SERVICE_SLICES = 3


def job_spec(seed: int, client: int, index: int) -> RunSpec:
    """The ``index``-th submission of ``client``: a pure function of seed.

    One submission in four repeats an earlier spec — half of them one of
    the client's own last eight (a cache hit unless evicted), half the
    other client's previous one (often still in flight: a dedupe).
    """
    rng = random.Random(f"{seed}:{client}:{index}")
    if index > 0 and rng.random() < REPEAT_SHARE:
        if rng.random() < 0.5:
            return job_spec(seed, client,
                            rng.randrange(max(0, index - 8), index))
        return job_spec(seed, 1 - client, index - 1)
    return RunSpec(
        n=rng.choice(SERVICE_N), cycles=rng.choice(SERVICE_CYCLES),
        seed=rng.randrange(1 << 31),
        backend=BackendSpec("tt", {"cores": rng.choice(SERVICE_CORES)}),
    )


def _start_server() -> tuple[ServiceThread, ServiceClient, float]:
    """Start the modelled-mode server; seconds until ``/healthz`` answers."""
    t0 = time.perf_counter()
    service = ServiceThread(ServerConfig(n_cards=SERVICE_CARDS))
    client = ServiceClient(service.start())
    while not client.healthy():
        if time.perf_counter() - t0 > 30.0:
            service.stop()
            raise ServiceError("server did not answer /healthz in 30 s")
    return service, client, time.perf_counter() - t0


@dataclass
class Window:
    """One closed-loop window against a fresh server."""

    start: float
    wall_s: float
    #: (completion time, submit-to-result latency, particle steps) per job
    done: list[tuple[float, float, int]]
    failed: int
    problems: list[str]
    stats: dict
    queue_waits: list[float]

    def sliced(self) -> dict[str, float]:
        """Throughput and latency over :data:`SERVICE_SLICES` slices.

        The jobs are cut into equal-count slices by completion order;
        throughput and p99 are the medians of the slices' values, so a
        host stall inside one slice moves one value, not the result.
        """
        done = sorted(self.done)
        cuts = [round(k * len(done) / SERVICE_SLICES)
                for k in range(SERVICE_SLICES + 1)]
        start = self.start
        jobs, steps, tails = [], [], []
        for a, b in zip(cuts, cuts[1:]):
            part = done[a:b]
            span = part[-1][0] - start
            jobs.append(len(part) / span)
            steps.append(sum(p[2] for p in part) / span)
            tails.append(p99([p[1] for p in part]))
            start = part[-1][0]
        return {
            "particle_steps_per_s": statistics.median(steps),
            "jobs_per_s": statistics.median(jobs),
            "job_p50_s": statistics.median(p[1] for p in done),
            "job_p99_s": statistics.median(tails),
        }


def _client_loop(url: str, seed: int, client: int, n_jobs: int,
                 out: list, failures: list) -> None:
    conn = ServiceClient(url, timeout=30.0)
    for index in range(n_jobs):
        spec = job_spec(seed, client, index)
        t0 = time.perf_counter()
        try:
            job = conn.submit_and_wait(spec, tenant=f"tenant-{client}")
        except (QuotaExceededError, ServiceError, OSError) as exc:
            failures.append(f"client {client}: {exc}")
            continue
        t1 = time.perf_counter()
        out.append((spec, job, t1, t1 - t0))


def run_window(seed: int, n_jobs: int) -> Window:
    """Each client submits ``n_jobs`` specs, one at a time."""
    service, client, _ = _start_server()
    try:
        url = client.url
        results: list[list] = [[] for _ in range(SERVICE_CLIENTS)]
        failures: list[str] = []
        t0 = time.perf_counter()
        others = [
            threading.Thread(target=_client_loop, name=f"client-{k}",
                             args=(url, seed, k, n_jobs, results[k],
                                   failures))
            for k in range(1, SERVICE_CLIENTS)
        ]
        for thread in others:
            thread.start()
        # client 0 runs on the main thread, so its spans are the ones
        # bench.unattributed_frac is measured against
        _client_loop(url, seed, 0, n_jobs, results[0], failures)
        for thread in others:
            thread.join(60.0)
            if thread.is_alive():
                failures.append(f"{thread.name} did not finish")
        wall_s = time.perf_counter() - t0
        stats = client.stats()
        server = service.server
        queue_waits = [
            job.started_wall - job.submitted_wall
            for job in list(server.jobs.values())
            if job.started_wall is not None
        ]
    finally:
        service.stop()

    problems = list(failures)
    by_hash: dict[str, dict] = {}
    done = []
    failed = len(failures)
    for spec, job, t_done, latency in (r for rs in results for r in rs):
        if job["state"] != "done":
            failed += 1
            problems.append(f"job {job['id']} ended {job['state']}: "
                            f"{job['error']}")
            continue
        done.append((t_done, latency, spec.n * spec.cycles))
        first = by_hash.setdefault(job["hash"], job["result"])
        if job["result"] != first:
            problems.append(f"job {job['id']} result differs from the "
                            f"executed result for spec {job['hash'][:12]}")
    return Window(t0, wall_s, done, failed, problems, stats, queue_waits)


def _server_setups(n: int) -> list[float]:
    """Start-to-/healthz seconds of ``n`` fresh servers."""
    setups = []
    for _ in range(n):
        service, _client, setup_s = _start_server()
        service.stop()
        setups.append(setup_s)
    return setups


def run_service(seed: int, seconds: float, traced: bool) -> Outcome:
    print(f"workload service-closed: {SERVICE_CLIENTS} closed-loop clients, "
          f"{SERVICE_CARDS} modelled cards, seed {seed}")
    _server_setups(1)  # warm-up, unmeasured
    # half the set-ups before the window and half after, so one host stall
    # cannot cover them all
    setups = _server_setups(SERVICE_SETUPS // 2)
    n_jobs = max(1, round(seconds * SERVICE_JOBS_PER_S / SERVICE_CLIENTS))
    window = run_window(seed, n_jobs)
    setups += _server_setups(SERVICE_SETUPS - SERVICE_SETUPS // 2)
    attempted = len(window.done) + window.failed
    print(f"  untraced window: {len(window.done)} jobs in "
          f"{window.wall_s:.3f} s, cache {window.stats['cache']}, "
          f"jobs {window.stats['jobs']}")
    if len(window.done) < 2 * SERVICE_SLICES:
        return Outcome({}, max(attempted, 1), window.failed,
                       window.problems + ["too few jobs completed"])
    if not traced:
        metrics = {"setup_s": statistics.median(setups),
                   **window.sliced(), "peak_rss_mb": peak_rss_mb()}
        return Outcome(metrics, attempted, window.failed, window.problems)

    recorder = Recorder()
    with recorder.instrument():
        traced_window = run_window(seed, n_jobs)
    print(f"  traced window: {len(traced_window.done)} jobs in "
          f"{traced_window.wall_s:.3f} s")
    metrics = layer_metrics(recorder, main_thread=MAIN,
                            wall_s=traced_window.wall_s)
    stats = traced_window.stats
    metrics.update({
        "model_s": 0.0,
        "core.steps": 0,
        "core.particle_updates": 0,
        "nbody_tt.tilize_hit_rate": 0.0,
        "nbody_pm.green_hit_rate": 0.0,
        "service.queue_wait_p50_s": (
            statistics.median(traced_window.queue_waits)
            if traced_window.queue_waits else 0.0
        ),
        "service.cache_hit_rate": stats["cache"]["hit_rate"],
        "service.dedupe_rate": (
            stats["jobs"]["deduped"] / stats["jobs"]["submitted"]
        ),
        "bench.trace_overhead_frac": traced_window.wall_s / window.wall_s - 1,
    })
    problems = (window.problems + traced_window.problems
                + _coverage_problems(metrics))
    return Outcome(
        metrics, attempted + len(traced_window.done) + traced_window.failed,
        window.failed + traced_window.failed, problems, {}, recorder,
    )


# --------------------------------------------------------------------------
# Run-to-run exactness
# --------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    """Hash of the program and benchmark sources the counts depend on."""
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py"))
    files += sorted((root / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(path: Path, key: str, counts: dict) -> list[str]:
    """Compare exact counts with earlier runs of the same inputs and code.

    The ledger persists across runs (one process per run), so it also
    catches work that depends on per-process state such as string-hash
    order.
    """
    ledger = json.loads(path.read_text()) if path.exists() else {}
    entry = ledger.setdefault(key, {})
    problems: list[str] = []
    _compare(problems, f"counts differ from an earlier run ({key})",
             entry, counts)
    if not problems:
        entry.update(counts)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    if workload == "service-closed":
        return run_service(seed, seconds, traced)
    return run_sim(SIM_WORKLOADS[workload], seed, seconds, traced)
