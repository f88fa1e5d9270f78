"""First-class integrators: a registry mirroring the backend registry.

An :class:`IntegratorSpec` — a name plus typed options — is the
declarative form of an integration scheme, exactly as
:class:`~repro.backends.registry.BackendSpec` is for a force backend:
:func:`make_integrator` realises it against a system and a backend, and
:func:`register_integrator` lets new schemes join the same machinery
(CLI choices, RunSpec round-trips, the CI integrator matrix).

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

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, \
    runtime_checkable

from ..backends.protocol import TimelineSegment
from ..backends.registry import OptionSpec
from ..errors import ConfigurationError, UnknownIntegratorError
from .block_hermite import MAX_LEVEL, BlockHermiteIntegrator
from .leapfrog import LeapfrogDriver
from .simulation import HermiteIntegrator, HostCostModel, SimulationResult
from .timestep import SharedTimestep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .particles import ParticleSystem

__all__ = [
    "Integrator",
    "IntegratorSpec",
    "RegisteredIntegrator",
    "register_integrator",
    "make_integrator",
    "integrator_names",
    "integrator_entry",
    "integrator_choices_help",
]

#: alias of the block scheme; callers import it under this name too
BlockHermiteDriver = BlockHermiteIntegrator


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


@dataclass(frozen=True)
class IntegratorSpec:
    """An integrator, declaratively: registry name + option overrides.

    The JSON form is what :class:`~repro.backends.runspec.RunSpec`
    persists; option values are validated against the registered
    :class:`~repro.backends.registry.OptionSpec` table when the spec is
    realised by :func:`make_integrator`.
    """

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def with_options(self, **overrides: Any) -> "IntegratorSpec":
        """A copy of this spec with extra/replaced options."""
        merged = dict(self.options)
        merged.update(overrides)
        return IntegratorSpec(self.name, merged)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping form of this spec."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "IntegratorSpec":
        """Build a spec from a mapping or a bare integrator name."""
        if isinstance(data, str):
            return cls(data)
        if "name" not in data:
            raise ConfigurationError(
                f"integrator spec needs a 'name': {data!r}"
            )
        return cls(str(data["name"]), dict(data.get("options", {})))

    def to_json(self) -> str:
        """Canonical JSON form of this spec."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "IntegratorSpec":
        """Parse a spec from its JSON form."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class RegisteredIntegrator:
    """One registry entry: factory, typed options, and help text."""

    name: str
    factory: Callable[..., Integrator]
    description: str
    options: tuple[OptionSpec, ...] = ()

    def resolve_options(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Defaults merged with validated overrides; unknown keys raise."""
        table = {o.name: o for o in self.options}
        unknown = sorted(set(overrides) - set(table))
        if unknown:
            raise ConfigurationError(
                f"integrator {self.name!r} does not accept option(s) "
                f"{unknown}; known: {sorted(table)}"
            )
        resolved = {o.name: o.default for o in self.options}
        for key, value in overrides.items():
            resolved[key] = table[key].coerce(value)
        return resolved


_REGISTRY: dict[str, RegisteredIntegrator] = {}


def register_integrator(
    name: str,
    factory: Callable[..., Integrator],
    *,
    description: str = "",
    options: tuple[OptionSpec, ...] = (),
) -> RegisteredIntegrator:
    """Add an integrator to the registry (re-registration replaces)."""
    if not name:
        raise ConfigurationError("integrator name must be non-empty")
    entry = RegisteredIntegrator(name, factory, description, options)
    # repro-lint: disable=RH010 - registration happens at import time,
    # before any shard thread starts; threads only read the registry.
    _REGISTRY[name] = entry
    return entry


def integrator_names() -> tuple[str, ...]:
    """All registered integrator names, sorted."""
    return tuple(sorted(_REGISTRY))


def integrator_entry(name: str) -> RegisteredIntegrator:
    """Registry lookup by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownIntegratorError(
            f"unknown integrator {name!r}; registered integrators: "
            f"{', '.join(integrator_names())}"
        ) from None


def integrator_choices_help() -> str:
    """One-line-per-integrator help text derived from the registry."""
    return "; ".join(
        f"{entry.name}: {entry.description}"
        for _, entry in sorted(_REGISTRY.items())
    )


def make_integrator(
    spec: "IntegratorSpec | str",
    system: "ParticleSystem",
    backend: Any,
    *,
    dt: float | None = None,
    adaptive: bool = False,
    host_cost: HostCostModel | None = None,
    trace: Any = None,
    **extra: Any,
) -> Integrator:
    """Realise an :class:`IntegratorSpec` (or bare name) into a driver.

    ``dt`` and ``adaptive`` come from the run (not the integrator
    options): they say how far one ``run(n_cycles)`` cycle advances and
    whether the shared-step scheme adapts its step.  ``extra`` options
    override the spec's, mirroring :func:`~repro.backends.registry
    .make_backend`.
    """
    if isinstance(spec, str):
        spec = IntegratorSpec(spec)
    entry = integrator_entry(spec.name)
    overrides = dict(spec.options)
    overrides.update(extra)
    return entry.factory(
        system, backend,
        dt=dt, adaptive=adaptive,
        host_cost=host_cost if host_cost is not None else HostCostModel(),
        trace=trace,
        **entry.resolve_options(overrides),
    )


# --------------------------------------------------------------------------
# Built-in integrators
# --------------------------------------------------------------------------


def _validate_power_of_two(value: float) -> str | None:
    if value <= 0 or math.frexp(value)[0] != 0.5:
        return "must be a positive power of two"
    return None


def _validate_positive(value: float) -> str | None:
    if value <= 0:
        return "must be positive"
    return None


def _make_hermite(system, backend, *, dt, adaptive, host_cost, trace,
                  eta, eta_start, dt_min, dt_max, criterion):
    if not adaptive:
        return HermiteIntegrator(
            system, backend, dt=dt, host_cost=host_cost, trace=trace
        )
    timestep = SharedTimestep(
        eta=eta, eta_start=eta_start, dt_min=dt_min, dt_max=dt_max,
        criterion=criterion,
    )
    return HermiteIntegrator(
        system, backend, timestep=timestep, host_cost=host_cost, trace=trace,
    )


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
               validate=_validate_positive),
    OptionSpec("eta_start", float, 0.01, "startup criterion accuracy",
               validate=_validate_positive),
)

register_integrator(
    "hermite", _make_hermite,
    description="4th-order shared-step Hermite predictor-corrector "
                "(the paper's integrator; adaptive via --adaptive)",
    options=_ETA_OPTIONS + (
        OptionSpec("dt_min", float, 1.0e-8,
                   "adaptive shared-step floor", validate=_validate_positive),
        OptionSpec("dt_max", float, 0.125,
                   "adaptive shared-step ceiling",
                   validate=_validate_positive),
        OptionSpec("criterion", str, "aarseth",
                   "adaptive criterion: aarseth | simple"),
    ),
)
register_integrator(
    "block-hermite", _make_block_hermite,
    description="individual power-of-two block timesteps; forces on the "
                "active block only (compute_on_targets)",
    options=_ETA_OPTIONS + (
        OptionSpec("dt_max", float, 0.0625,
                   "hierarchy root step (a power of two)",
                   validate=_validate_power_of_two),
        OptionSpec("block_levels", int, MAX_LEVEL,
                   f"hierarchy depth: dt down to dt_max / 2^levels "
                   f"(max {MAX_LEVEL})"),
    ),
)
register_integrator(
    "leapfrog", _make_leapfrog,
    description="2nd-order symplectic kick-drift-kick comparator "
                "(fixed step, jerk-free)",
)
