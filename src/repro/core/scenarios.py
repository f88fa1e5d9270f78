"""First-class scenarios: registry-addressable initial conditions.

``RunSpec.make_system`` used to hardcode ``plummer(n, seed)``; every
other generator in :mod:`repro.core.initial_conditions` was reachable
only by writing a script.  A :class:`ScenarioSpec` — a name plus typed
options — is the declarative form of an initial-condition family,
mirroring :class:`~repro.backends.registry.BackendSpec` and
:class:`~repro.core.integrators.IntegratorSpec`:
:func:`make_scenario` realises it into a
:class:`~repro.core.particles.ParticleSystem` for a given ``(n, seed)``,
and :func:`register_scenario` lets new families join the CLI choices,
RunSpec round-trips, and the per-scenario energy gates.

The six built-ins wrap the generators one to one.  ``n`` and ``seed``
come from the run, not the scenario options, so the same spec scales
across problem sizes; the two-cluster scenario splits ``n`` between the
clusters, and the binary scenario is fixed at two bodies (``n`` and
``seed`` are ignored — the orbit is deterministic).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..backends.registry import OptionSpec
from ..errors import ConfigurationError, UnknownScenarioError
from .initial_conditions import (
    binary,
    cluster_collision,
    cluster_with_binary,
    hernquist,
    plummer,
    uniform_sphere,
)
from .particles import ParticleSystem

__all__ = [
    "ScenarioSpec",
    "RegisteredScenario",
    "register_scenario",
    "make_scenario",
    "scenario_names",
    "scenario_entry",
    "scenario_choices_help",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario, declaratively: registry name + option overrides."""

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def with_options(self, **overrides: Any) -> "ScenarioSpec":
        """A copy of this spec with extra/replaced options."""
        merged = dict(self.options)
        merged.update(overrides)
        return ScenarioSpec(self.name, merged)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping form of this spec."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "ScenarioSpec":
        """Build a spec from a mapping or a bare scenario name."""
        if isinstance(data, str):
            return cls(data)
        if "name" not in data:
            raise ConfigurationError(f"scenario spec needs a 'name': {data!r}")
        return cls(str(data["name"]), dict(data.get("options", {})))

    def to_json(self) -> str:
        """Canonical JSON form of this spec."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from its JSON form."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class RegisteredScenario:
    """One registry entry: factory, typed options, and help text."""

    name: str
    factory: Callable[..., ParticleSystem]
    description: str
    options: tuple[OptionSpec, ...] = ()

    def resolve_options(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Defaults merged with validated overrides; unknown keys raise."""
        table = {o.name: o for o in self.options}
        unknown = sorted(set(overrides) - set(table))
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} does not accept option(s) "
                f"{unknown}; known: {sorted(table)}"
            )
        resolved = {o.name: o.default for o in self.options}
        for key, value in overrides.items():
            resolved[key] = table[key].coerce(value)
        return resolved


_REGISTRY: dict[str, RegisteredScenario] = {}


def register_scenario(
    name: str,
    factory: Callable[..., ParticleSystem],
    *,
    description: str = "",
    options: tuple[OptionSpec, ...] = (),
) -> RegisteredScenario:
    """Add a scenario to the registry (re-registration replaces)."""
    if not name:
        raise ConfigurationError("scenario name must be non-empty")
    entry = RegisteredScenario(name, factory, description, options)
    # repro-lint: disable=RH010 - registration happens at import time,
    # before any shard thread starts; threads only read the registry.
    _REGISTRY[name] = entry
    return entry


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def scenario_entry(name: str) -> RegisteredScenario:
    """Registry lookup by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(scenario_names())}"
        ) from None


def scenario_choices_help() -> str:
    """One-line-per-scenario help text derived from the registry."""
    return "; ".join(
        f"{entry.name}: {entry.description}"
        for _, entry in sorted(_REGISTRY.items())
    )


def make_scenario(
    spec: "ScenarioSpec | str", n: int, seed: int, **extra: Any
) -> ParticleSystem:
    """Realise a :class:`ScenarioSpec` (or bare name) for ``(n, seed)``."""
    if isinstance(spec, str):
        spec = ScenarioSpec(spec)
    entry = scenario_entry(spec.name)
    overrides = dict(spec.options)
    overrides.update(extra)
    return entry.factory(n, seed, **entry.resolve_options(overrides))


# --------------------------------------------------------------------------
# Built-in scenarios (one per initial_conditions generator)
# --------------------------------------------------------------------------


def _make_plummer(n, seed, *, virial_scaled, cutoff_radius):
    return plummer(n, seed=seed, virial_scaled=virial_scaled,
                   cutoff_radius=cutoff_radius)


def _make_uniform_sphere(n, seed, *, radius, virial_ratio):
    return uniform_sphere(n, seed=seed, radius=radius,
                          virial_ratio=virial_ratio)


def _make_hernquist(n, seed, *, scale_radius):
    return hernquist(n, seed=seed, scale_radius=scale_radius)


def _make_binary(n, seed, *, mass_ratio, semi_major_axis, eccentricity,
                 total_mass):
    # deterministic two-body orbit: n and seed are intentionally unused
    return binary(mass_ratio=mass_ratio, semi_major_axis=semi_major_axis,
                  eccentricity=eccentricity, total_mass=total_mass)


def _make_cluster_collision(n, seed, *, mass_ratio, separation,
                            impact_parameter, relative_speed):
    n1 = n // 2
    return cluster_collision(
        n1, n - n1, seed=seed, mass_ratio=mass_ratio, separation=separation,
        impact_parameter=impact_parameter, relative_speed=relative_speed,
    )


def _make_cluster_with_binary(n, seed, *, binary_mass_fraction,
                              semi_major_axis, eccentricity):
    if n < 4:
        raise ConfigurationError(
            f"cluster_with_binary needs n >= 4 (2 binary members + "
            f"background), got {n}"
        )
    return cluster_with_binary(
        n - 2, seed=seed, binary_mass_fraction=binary_mass_fraction,
        semi_major_axis=semi_major_axis, eccentricity=eccentricity,
    )


register_scenario(
    "plummer", _make_plummer,
    description="equal-mass Plummer sphere in Henon units (the default)",
    options=(
        OptionSpec("virial_scaled", bool, True,
                   "rescale to exact virial equilibrium"),
        OptionSpec("cutoff_radius", float, 22.8,
                   "outer truncation radius"),
    ),
)
register_scenario(
    "uniform_sphere", _make_uniform_sphere,
    description="homogeneous sphere (cold collapse at virial_ratio 0)",
    options=(
        OptionSpec("radius", float, 1.0, "sphere radius"),
        OptionSpec("virial_ratio", float, 0.0,
                   "-T/W kinetic support (0 = cold)"),
    ),
)
register_scenario(
    "hernquist", _make_hernquist,
    description="Hernquist sphere with isotropic Jeans velocities",
    options=(
        OptionSpec("scale_radius", float, 0.55, "Hernquist scale radius"),
    ),
)
register_scenario(
    "binary", _make_binary,
    description="two-body Keplerian binary at apoapsis (n/seed ignored)",
    options=(
        OptionSpec("mass_ratio", float, 1.0, "m1/m2"),
        OptionSpec("semi_major_axis", float, 0.01, "orbit semi-major axis"),
        OptionSpec("eccentricity", float, 0.0, "orbit eccentricity"),
        OptionSpec("total_mass", float, 1.0, "combined mass"),
    ),
)
register_scenario(
    "cluster_collision", _make_cluster_collision,
    description="two Plummer clusters on a collision course "
                "(n split between them)",
    options=(
        OptionSpec("mass_ratio", float, 1.0, "M1/M2"),
        OptionSpec("separation", float, 6.0, "initial centre separation"),
        OptionSpec("impact_parameter", float, 0.5, "perpendicular offset"),
        OptionSpec("relative_speed", float, None,
                   "approach speed (default: parabolic)"),
    ),
)
register_scenario(
    "cluster_with_binary", _make_cluster_with_binary,
    description="hard binary at the centre of a Plummer background "
                "(n includes the pair)",
    options=(
        OptionSpec("binary_mass_fraction", float, 0.02,
                   "binary share of the total mass"),
        OptionSpec("semi_major_axis", float, 0.005, "binary semi-major axis"),
        OptionSpec("eccentricity", float, 0.0, "binary eccentricity"),
    ),
)
