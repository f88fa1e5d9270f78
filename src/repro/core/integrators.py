"""First-class integrators: the ``INTEGRATORS`` registry.

An :data:`IntegratorSpec` — a name plus typed options — is the
declarative form of an integration scheme, exactly as
:data:`~repro.backends.registry.BackendSpec` is for a force backend:
:func:`make_integrator` realises it against a system and a backend, and
``INTEGRATORS.register`` lets new schemes join the same machinery (CLI
choices, RunSpec round-trips, the CI integrator matrix).

Every registered integrator satisfies the :class:`Integrator` protocol —
``initialise()`` plus ``run(n_cycles) -> SimulationResult`` — so every
caller of ``RunSpec.make_simulation`` keeps working unchanged whichever
scheme the spec names.  ``run(n_cycles)`` always advances the system by
``n_cycles * dt`` of physical time: for the shared-step schemes that is
n_cycles steps, for the block scheme it is however many block updates
the hierarchy needs, so energy gates and benches compare integrators at
matched physical spans.  The built-in schemes are
:class:`~repro.core.simulation.Driver` subclasses: one loop, three hooks
each.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

from ..errors import ConfigurationError, UnknownIntegratorError
from .block_hermite import MAX_LEVEL, BlockHermiteIntegrator
from .leapfrog import LeapfrogDriver
from .protocol import TimelineSegment
from .registry import OptionSpec, Registry, Spec, in_range, one_of, positive
from .simulation import HermiteIntegrator, SimulationResult
from .timestep import SharedTimestep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .particles import ParticleSystem

__all__ = [
    "INTEGRATORS",
    "Integrator",
    "IntegratorSpec",
    "make_integrator",
]

#: alias of the block scheme; callers import it under this name too
BlockHermiteDriver = BlockHermiteIntegrator

#: An integrator, declaratively: registry name + option overrides.
IntegratorSpec = Spec

INTEGRATORS = Registry("integrator", UnknownIntegratorError)


@runtime_checkable
class Integrator(Protocol):
    """What every registered integration scheme provides."""

    system: "ParticleSystem"
    name: str

    def initialise(self) -> list[TimelineSegment]:
        """Evaluate initial forces; idempotent once run."""
        ...  # pragma: no cover - protocol

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles * dt`` of physical time."""
        ...  # pragma: no cover - protocol


def make_integrator(
    spec: "Spec | str | Mapping[str, Any]",
    system: "ParticleSystem",
    backend: Any,
    *,
    dt: float | None = None,
    adaptive: bool = False,
    trace: Any = None,
    **extra: Any,
) -> Integrator:
    """Realise an integrator spec (a :class:`Spec`, name or mapping).

    ``dt`` and ``adaptive`` come from the run (not the integrator
    options): they say how far one ``run(n_cycles)`` cycle advances and
    whether the shared-step scheme adapts its step.  The host work is
    priced by the backend's own ``host_cost``.  ``extra`` options
    override the spec's, mirroring :func:`~repro.backends.registry
    .make_backend`.
    """
    entry, options = INTEGRATORS.resolve(spec, **extra)
    return entry.factory(
        system, backend, dt=dt, adaptive=adaptive, trace=trace, **options
    )


# --------------------------------------------------------------------------
# Built-in integrators
# --------------------------------------------------------------------------


def _validate_power_of_two(value: float) -> str | None:
    if value <= 0 or math.frexp(value)[0] != 0.5:
        return "must be a positive power of two"
    return None


def _make_hermite(system, backend, *, dt, adaptive, trace,
                  eta, eta_start, dt_min, dt_max, criterion):
    if not adaptive:
        return HermiteIntegrator(system, backend, dt=dt, trace=trace)
    timestep = SharedTimestep(
        eta=eta, eta_start=eta_start, dt_min=dt_min, dt_max=dt_max,
        criterion=criterion,
    )
    return HermiteIntegrator(system, backend, timestep=timestep, trace=trace)


def _make_block_hermite(system, backend, *, adaptive, **options):
    # the block scheme is per-particle adaptive by construction; the
    # shared `adaptive` flag has nothing extra to switch on
    return BlockHermiteIntegrator(system, backend, **options)


def _make_leapfrog(system, backend, *, adaptive, **options):
    if adaptive:
        raise ConfigurationError(
            "leapfrog is fixed-step; adaptive timestepping is not supported"
        )
    return LeapfrogDriver(system, backend, **options)


_ETA_OPTIONS = (
    OptionSpec("eta", float, 0.02, "Aarseth accuracy parameter",
               validate=positive),
    OptionSpec("eta_start", float, 0.01, "startup criterion accuracy",
               validate=positive),
)

INTEGRATORS.register(
    "hermite", _make_hermite,
    description="4th-order shared-step Hermite predictor-corrector "
                "(the paper's integrator; adaptive via --adaptive)",
    options=_ETA_OPTIONS + (
        OptionSpec("dt_min", float, 1.0e-8,
                   "adaptive shared-step floor", validate=positive),
        OptionSpec("dt_max", float, 0.125,
                   "adaptive shared-step ceiling",
                   validate=positive),
        OptionSpec("criterion", str, "aarseth",
                   "adaptive criterion: aarseth | simple",
                   validate=one_of("aarseth", "simple")),
    ),
)
INTEGRATORS.register(
    "block-hermite", _make_block_hermite,
    description="individual power-of-two block timesteps; forces on the "
                "active block only (compute_on_targets)",
    options=_ETA_OPTIONS + (
        OptionSpec("dt_max", float, 0.0625,
                   "hierarchy root step (a power of two)",
                   validate=_validate_power_of_two),
        OptionSpec("block_levels", int, MAX_LEVEL,
                   f"hierarchy depth: dt down to dt_max / 2^levels "
                   f"(max {MAX_LEVEL})", validate=in_range(1, MAX_LEVEL)),
    ),
)
INTEGRATORS.register(
    "leapfrog", _make_leapfrog,
    description="2nd-order symplectic kick-drift-kick comparator "
                "(fixed step, jerk-free)",
)
