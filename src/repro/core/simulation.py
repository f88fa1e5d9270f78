"""The simulation driver: predict-evaluate-correct cycles over a backend.

The driver is backend-agnostic: a :class:`ForceBackend` is anything with a
``compute(pos, vel, mass) -> ForceEvaluation``.  The repository provides
three: the double-precision golden reference (:class:`ReferenceBackend`
here), the mixed-precision CPU model (:mod:`repro.cpuref`), and the
Wormhole offload (:mod:`repro.nbody_tt`).

Besides physics, the driver assembles the job's *timeline*: each cycle
contributes host phases (the double-precision predictor/corrector the
paper keeps on the CPU, priced by the backend) and whatever phases the
backend reports (device compute, PCIe, kernel launches).  The telemetry
stack replays this timeline at 1 Hz to produce the power traces of the
paper's Fig. 4.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from ..errors import ConfigurationError
from .hermite import correct, predict
from .particles import ParticleSystem
# re-exported for `from repro.core.simulation import ForceBackend, ...`
from .protocol import (
    ForceBackend,
    ForceEvaluation,
    HostCostModel,
    TimelineSegment,
    accepts_trace,
    compute_on_targets,
    normalize_targets,
)
from .registry import Spec
from .timestep import SharedTimestep
from .units import G_NBODY

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from ..observability import Trace

__all__ = [
    "TimelineSegment",
    "ForceEvaluation",
    "ForceBackend",
    "ReferenceBackend",
    "HostCostModel",
    "CycleRecord",
    "SimulationResult",
    "Driver",
    "HermiteIntegrator",
    "Simulation",
]


class ReferenceBackend:
    """The golden reference as a backend: float64, no modelled time."""

    name = "reference-f64"

    def __init__(self, softening: float = 0.0, G: float = G_NBODY) -> None:
        self.softening = softening
        self.G = G

    def compute(self, pos, vel, mass) -> ForceEvaluation:
        """Evaluate float64 reference accelerations and jerks."""
        from .forces import accel_jerk_reference

        acc, jerk = accel_jerk_reference(
            pos, vel, mass, softening=self.softening, G=self.G
        )
        return ForceEvaluation(acc, jerk)

    def compute_on_targets(self, pos, vel, mass, targets) -> ForceEvaluation:
        """Subset evaluation: float64 rows for ``targets`` only.

        ``accel_jerk_on_targets`` accumulates each target row over the same
        j-blocking as the full evaluation, so the rows are bit-identical to
        a full :meth:`compute` sliced at ``targets``.
        """
        from .forces import accel_jerk_on_targets

        idx = normalize_targets(targets, mass.shape[0])
        acc, jerk = accel_jerk_on_targets(
            pos, vel, mass, idx, softening=self.softening, G=self.G
        )
        return ForceEvaluation(acc, jerk)


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle diagnostics."""

    index: int
    time: float
    dt: float
    model_seconds: float


@dataclass
class SimulationResult:
    """Everything a campaign needs from one simulation run."""

    system: ParticleSystem
    cycles: list[CycleRecord]
    timeline: list[TimelineSegment]
    backend_name: str

    @property
    def model_seconds(self) -> float:
        """Total modelled wall time of the job (the MPI_Wtime window)."""
        return sum(s.seconds for s in self.timeline)

    def seconds_by_tag(self) -> dict[str, float]:
        """Modelled seconds aggregated by segment tag (host/device/...)."""
        out: dict[str, float] = {}
        for seg in self.timeline:
            out[seg.tag] = out.get(seg.tag, 0.0) + seg.seconds
        return out


class _NoTrace:
    """The loop's stand-in for a missing trace: every span is a no-op."""

    def span(self, name: str, **attributes) -> nullcontext:
        return nullcontext()

    def add_span(self, name: str, duration_s: float, **attributes) -> None:
        pass


def _require_dt(dt: float | None, name: str) -> float:
    if dt is None or dt <= 0 or not np.isfinite(dt):
        raise ConfigurationError(
            f"integrator {name!r} needs a positive finite dt, got {dt}"
        )
    return float(dt)


class Driver:
    """The predict-force-correct loop every integration scheme runs in.

    The driver owns everything around the physics: the job timeline, the
    pricing of the backend's ``host_cost`` (predict ½·(k + c·N), correct
    ½·(k + c·N_moved)), one
    :class:`CycleRecord` and one ``check_finite()`` per step, every Scope
    span, and the backend call (:meth:`_force`, on the full set or on a
    target subset through ``compute_on_targets``).  A scheme supplies
    three hooks: :meth:`_first_evaluation`, :meth:`_step_sizes` and
    :meth:`_step`.

    A traced run narrates itself as ``simulation.run`` > ``cycle`` >
    (``predict``, ``force``, ``correct``) per step, after ``initialise``
    > (``init``, ``force``).  The trace is handed to the backend when it
    accepts one (``TTForceBackend`` then adds Metalium and per-core device
    spans under ``force``); otherwise the backend's timeline segments
    become leaf spans.  ``trace=None`` costs the run nothing.
    """

    name = ""

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        trace: "Trace | None" = None,
    ) -> None:
        self.system = system
        self.backend = backend
        self.host_cost = getattr(backend, "host_cost", HostCostModel())
        # the backend still sees None when untraced: the multi-card
        # backends fan cards out over threads only then
        self.trace = trace
        self._scope = trace if trace is not None else _NoTrace()
        self._backend_traced = trace is not None and accepts_trace(backend)
        if self._backend_traced:
            backend.trace = trace  # type: ignore[attr-defined]
        self._segments: list[TimelineSegment] = []
        self._initialised = False

    # -- the scheme's hooks ---------------------------------------------------

    def _first_evaluation(self) -> None:
        """Evaluate the initial forces through :meth:`_force`."""
        raise NotImplementedError

    def _step_sizes(self, n_cycles: int) -> Iterator[float]:
        """The step sizes of ``run(n_cycles)``, read after each step."""
        raise NotImplementedError

    def _step(self, dt: float) -> int:
        """Advance one step of ``dt``; return how many particles moved."""
        raise NotImplementedError

    # -- the loop ---------------------------------------------------------------

    def _force(self, pos: np.ndarray, vel: np.ndarray,
               targets: np.ndarray | None = None) -> ForceEvaluation:
        """One backend evaluation, on ``targets`` only when given."""
        mass = self.system.mass
        extra = {} if targets is None else {"n_targets": len(targets)}
        with self._scope.span(
            "force", category="sim", backend=self.backend.name, **extra
        ):
            if targets is None:
                evaluation = self.backend.compute(pos, vel, mass)
            else:
                evaluation = compute_on_targets(
                    self.backend, pos, vel, mass, targets
                )
            if not self._backend_traced:
                for seg in evaluation.segments:
                    self._scope.add_span(
                        seg.detail or seg.tag, seg.seconds, category=seg.tag
                    )
        self._segments.extend(evaluation.segments)
        return evaluation

    def _drain(self) -> list[TimelineSegment]:
        segments, self._segments = self._segments, []
        return segments

    def initialise(self) -> list[TimelineSegment]:
        """Initial force evaluation (and host init cost)."""
        init_s = self.host_cost.init_seconds
        with self._scope.span("initialise", category="sim"):
            segments: list[TimelineSegment] = []
            if init_s > 0.0:
                segments.append(TimelineSegment("host", init_s, "init"))
                self._scope.add_span("init", init_s, category="host")
            self._first_evaluation()
            segments.extend(self._drain())
            self._initialised = True
        return segments

    def run(self, n_cycles: int) -> SimulationResult:
        """Run ``n_cycles`` cycles (``n_cycles * dt`` of physical time)."""
        if n_cycles <= 0:
            raise ConfigurationError(f"n_cycles must be positive, got {n_cycles}")
        scope = self._scope
        per_cycle = self.host_cost.seconds_per_cycle
        per_particle = self.host_cost.seconds_per_particle_cycle
        timeline: list[TimelineSegment] = []
        records: list[CycleRecord] = []
        with scope.span(
            "simulation.run", category="sim", n=self.system.n,
            n_cycles=n_cycles, backend=self.backend.name,
            integrator=self.name,
        ):
            if not self._initialised:
                timeline.extend(self.initialise())
            for index, dt in enumerate(self._step_sizes(n_cycles)):
                # the predictor touches every particle, the corrector only
                # the ones the step moved
                predict_s = 0.5 * (per_cycle + per_particle * self.system.n)
                with scope.span("cycle", category="sim", index=index, dt=dt):
                    scope.add_span("predict", predict_s, category="host")
                    moved = self._step(dt)
                    correct_s = 0.5 * (per_cycle + per_particle * moved)
                    scope.add_span("correct", correct_s, category="host")
                self.system.check_finite()
                segments = self._drain()
                if predict_s > 0.0:
                    segments = (
                        [TimelineSegment("host", predict_s, "predict")]
                        + segments
                        + [TimelineSegment("host", correct_s, "correct")]
                    )
                timeline.extend(segments)
                records.append(CycleRecord(
                    index=index,
                    time=self.system.time,
                    dt=dt,
                    model_seconds=sum(s.seconds for s in segments),
                ))
        return SimulationResult(
            system=self.system,
            cycles=records,
            timeline=timeline,
            backend_name=self.backend.name,
        )


class HermiteIntegrator(Driver):
    """Shared-step 4th-order Hermite, registered as ``"hermite"``.

    Parameters
    ----------
    system:
        Initial conditions; mutated in place as the run advances.
    backend:
        Force backend (reference, CPU model, or Wormhole offload).
    dt:
        Fixed shared timestep; mutually exclusive with ``timestep``.
    timestep:
        Adaptive :class:`SharedTimestep` scheme.  It uses the startup
        criterion until the integrator has corrected a step of its own.
    trace:
        Optional :class:`~repro.observability.Trace` ("Scope").
    """

    name = "hermite"

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        dt: float | None = None,
        timestep: SharedTimestep | None = None,
        trace: "Trace | None" = None,
    ) -> None:
        if (dt is None) == (timestep is None):
            raise ConfigurationError(
                "exactly one of dt= or timestep= must be given"
            )
        if dt is not None:
            _require_dt(dt, self.name)
        super().__init__(system, backend, trace=trace)
        self.fixed_dt = dt
        self.timestep = timestep
        # snap and crackle of the last corrected step (None before one)
        self._snap: np.ndarray | None = None
        self._crackle: np.ndarray | None = None

    def _first_evaluation(self) -> None:
        s = self.system
        evaluation = self._force(s.pos, s.vel)
        s.acc, s.jerk = evaluation.acc, evaluation.jerk

    def _step_sizes(self, n_cycles: int) -> Iterator[float]:
        s = self.system
        for _ in range(n_cycles):
            if self.timestep is None:
                yield self.fixed_dt
            elif self._snap is None:
                yield self.timestep.first(s.acc, s.jerk)
            else:
                yield self.timestep.next(
                    s.acc, s.jerk, self._snap, self._crackle
                )

    def _step(self, dt: float) -> int:
        s = self.system
        pos_p, vel_p = predict(s.pos, s.vel, s.acc, s.jerk, dt)
        evaluation = self._force(pos_p, vel_p)
        step = correct(
            s.pos, s.vel, s.acc, s.jerk, evaluation.acc, evaluation.jerk, dt
        )
        s.pos, s.vel, s.acc, s.jerk = step.pos, step.vel, step.acc, step.jerk
        self._snap, self._crackle = step.snap, step.crackle
        s.time += dt
        return s.n


class Simulation:
    """A thin front end over the integrator registry.

    ``Simulation(system, backend, dt=...)`` runs shared-step Hermite;
    ``integrator=`` selects any scheme registered in
    :mod:`repro.core.integrators` — a name (``"block-hermite"``), or a
    :class:`~repro.core.registry.Spec` or mapping with options.  The
    chosen integrator is built once in the constructor; ``initialise``
    and ``run`` delegate to it.

    ``timestep=`` (an explicit :class:`SharedTimestep` object) cannot
    travel through the registry's typed options, so it remains a direct
    path to the Hermite scheme and is rejected for any other integrator.
    """

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        dt: float | None = None,
        timestep: SharedTimestep | None = None,
        trace: "Trace | None" = None,
        integrator: "Spec | str | Mapping[str, Any] | None" = None,
    ) -> None:
        # lazy: integrators imports this module (HermiteIntegrator)
        from .integrators import make_integrator

        spec = Spec.from_dict(integrator or "hermite")
        if timestep is not None:
            if spec.name != "hermite":
                raise ConfigurationError(
                    "timestep= is only valid with the hermite integrator"
                )
            # HermiteIntegrator itself enforces dt/timestep exclusivity
            self._impl = HermiteIntegrator(
                system, backend, dt=dt, timestep=timestep, trace=trace,
            )
        else:
            self._impl = make_integrator(
                spec, system, backend, dt=dt, adaptive=False, trace=trace,
            )

    @property
    def system(self) -> ParticleSystem:
        """The particle system being integrated."""
        return self._impl.system

    @property
    def backend(self) -> ForceBackend:
        """The force backend the integrator evaluates on."""
        return self._impl.backend

    @property
    def trace(self):
        """The attached Scope trace, or None."""
        return self._impl.trace

    @property
    def integrator_name(self) -> str:
        """Registry name of the scheme this driver delegates to."""
        return self._impl.name

    # snapshot-resume contract: a system reloaded with its acc/jerk
    # arrays must be able to skip the initial force evaluation (the
    # stored acc is the predictor-stage value, so re-evaluating would
    # not be bit-identical) — the flag lives on the inner driver
    @property
    def _initialised(self) -> bool:
        return self._impl._initialised

    @_initialised.setter
    def _initialised(self, value: bool) -> None:
        self._impl._initialised = value

    def initialise(self) -> list[TimelineSegment]:
        """Initial force evaluation (and host init cost)."""
        return self._impl.initialise()

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles`` cycles and return the result."""
        return self._impl.run(n_cycles)
