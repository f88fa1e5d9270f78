"""First-class scenarios: registry-addressable initial conditions.

``RunSpec.make_system`` used to hardcode ``plummer(n, seed)``; every
other generator in :mod:`repro.core.initial_conditions` was reachable
only by writing a script.  A :data:`ScenarioSpec` — a name plus typed
options — is the declarative form of an initial-condition family,
mirroring :data:`~repro.backends.registry.BackendSpec` and
:data:`~repro.core.integrators.IntegratorSpec`:
:func:`make_scenario` realises it into a
:class:`~repro.core.particles.ParticleSystem` for a given ``(n, seed)``,
and ``SCENARIOS.register`` lets new families join the CLI choices,
RunSpec round-trips, and the per-scenario energy gates.

The six built-ins wrap the generators one to one.  ``n`` and ``seed``
come from the run, not the scenario options, so the same spec scales
across problem sizes; the two-cluster scenario splits ``n`` between the
clusters, and the binary scenario is fixed at two bodies (``n`` and
``seed`` are ignored — the orbit is deterministic).
"""

from __future__ import annotations

from typing import Any, Mapping

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
from .registry import OptionSpec, Registry, Spec, positive

__all__ = ["SCENARIOS", "ScenarioSpec", "make_scenario"]

#: A scenario, declaratively: registry name + option overrides.
ScenarioSpec = Spec

SCENARIOS = Registry("scenario", UnknownScenarioError)


def make_scenario(
    spec: "Spec | str | Mapping[str, Any]", n: int, seed: int, **extra: Any
) -> ParticleSystem:
    """Realise a scenario spec (a :class:`Spec`, name or mapping) for
    ``(n, seed)``."""
    entry, options = SCENARIOS.resolve(spec, **extra)
    return entry.factory(n, seed, **options)


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


SCENARIOS.register(
    "plummer", _make_plummer,
    description="equal-mass Plummer sphere in Henon units (the default)",
    options=(
        OptionSpec("virial_scaled", bool, True,
                   "rescale to exact virial equilibrium"),
        OptionSpec("cutoff_radius", float, 22.8,
                   "outer truncation radius", validate=positive),
    ),
)
SCENARIOS.register(
    "uniform_sphere", _make_uniform_sphere,
    description="homogeneous sphere (cold collapse at virial_ratio 0)",
    options=(
        OptionSpec("radius", float, 1.0, "sphere radius"),
        OptionSpec("virial_ratio", float, 0.0,
                   "-T/W kinetic support (0 = cold)"),
    ),
)
SCENARIOS.register(
    "hernquist", _make_hernquist,
    description="Hernquist sphere with isotropic Jeans velocities",
    options=(
        OptionSpec("scale_radius", float, 0.55, "Hernquist scale radius"),
    ),
)
SCENARIOS.register(
    "binary", _make_binary,
    description="two-body Keplerian binary at apoapsis (n/seed ignored)",
    options=(
        OptionSpec("mass_ratio", float, 1.0, "m1/m2"),
        OptionSpec("semi_major_axis", float, 0.01, "orbit semi-major axis"),
        OptionSpec("eccentricity", float, 0.0, "orbit eccentricity"),
        OptionSpec("total_mass", float, 1.0, "combined mass"),
    ),
)
SCENARIOS.register(
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
SCENARIOS.register(
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
