"""Initial-condition generators for star-cluster-like systems.

The paper's application domain is "dense stellar systems, such as star
clusters ... the primary environments for the formation of compact object
binaries".  The generators here cover that domain:

* :func:`plummer` — the standard Plummer (1911) sphere via Aarseth, Hénon
  & Wielen (1974) sampling; the canonical direct-N-body test model and the
  workload of every benchmark in this repository.
* :func:`uniform_sphere` — a cold homogeneous sphere (cold-collapse tests).
* :func:`hernquist` — a cuspy Hernquist (1990) model with isotropic
  velocities from its distribution function (inverse-sampled radii,
  velocity set by local virial-like scaling).
* :func:`binary` / :func:`cluster_with_binary` — a hard two-body binary,
  optionally embedded in a Plummer background: the black-hole-binary
  hardening scenario the paper's introduction motivates.

All generators take an explicit seed, return barycentric systems in Hénon
units (G = M = 1, E = -1/4 for virialised models), and are pure functions
of their arguments.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .particles import ParticleSystem

__all__ = [
    "plummer",
    "uniform_sphere",
    "hernquist",
    "binary",
    "cluster_with_binary",
    "cluster_collision",
]


def _require_n(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise ConfigurationError(f"need at least {minimum} particles, got {n}")


def _isotropic_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly distributed directions on the unit sphere."""
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _virial_scale(pos, vel, mass) -> tuple[np.ndarray, np.ndarray]:
    """Rescale to exact Hénon units: W = -1/2, T = 1/4 (so E = -1/4)."""
    from .energy import kinetic_energy
    from .forces import potential_reference

    W = potential_reference(pos, mass)
    pos = pos * (W / -0.5)
    W = -0.5
    T = kinetic_energy(mass, vel)
    if T > 0:
        vel = vel * np.sqrt(0.25 / T)
    return pos, vel


def plummer(
    n: int,
    *,
    seed: int = 0,
    virial_scaled: bool = True,
    cutoff_radius: float = 22.8,
) -> ParticleSystem:
    """Equal-mass Plummer sphere in Hénon units.

    Radii are inverse-sampled from the cumulative mass profile
    M(r) = r^3 / (1 + r^2)^{3/2}; speeds from the distribution
    g(q) = q^2 (1 - q^2)^{7/2} by rejection (Aarseth, Hénon & Wielen 1974).
    ``cutoff_radius`` truncates the outer ~0.1% of the mass so a single
    distant particle cannot dominate the virial scaling.
    """
    _require_n(n, 2)
    if cutoff_radius <= 0:
        # the resampling loop below would never accept a radius
        raise ConfigurationError(
            f"cutoff_radius must be positive, got {cutoff_radius}"
        )
    rng = np.random.default_rng(seed)
    mass = np.full(n, 1.0 / n)

    # Radii: r = (X^{-2/3} - 1)^{-1/2}, resampling beyond the cutoff.
    radii = np.empty(n)
    remaining = np.arange(n)
    while remaining.size:
        x = rng.uniform(0.0, 1.0, remaining.size)
        r = 1.0 / np.sqrt(np.maximum(x, 1e-12) ** (-2.0 / 3.0) - 1.0)
        ok = r < cutoff_radius
        radii[remaining[ok]] = r[ok]
        remaining = remaining[~ok]
    pos = radii[:, None] * _isotropic_unit_vectors(rng, n)

    # Speeds: fraction q of the local escape speed, rejection-sampled.
    q = np.empty(n)
    remaining = np.arange(n)
    while remaining.size:
        trial = rng.uniform(0.0, 1.0, remaining.size)
        bound = rng.uniform(0.0, 0.1, remaining.size)
        accept = bound < trial**2 * (1.0 - trial**2) ** 3.5
        q[remaining[accept]] = trial[accept]
        remaining = remaining[~accept]
    v_escape = np.sqrt(2.0) * (1.0 + radii * radii) ** -0.25
    vel = (q * v_escape)[:, None] * _isotropic_unit_vectors(rng, n)

    system = ParticleSystem(mass, pos, vel)
    system.to_center_of_mass_frame()
    if virial_scaled:
        system.pos, system.vel = _virial_scale(system.pos, system.vel, mass)
    return system


def uniform_sphere(
    n: int,
    *,
    seed: int = 0,
    radius: float = 1.0,
    virial_ratio: float = 0.0,
) -> ParticleSystem:
    """Homogeneous sphere, optionally with isotropic kinetic support.

    ``virial_ratio`` = -T/W sets the initial temperature: 0 is a perfectly
    cold collapse, 0.5 is approximate virial equilibrium (though a uniform
    sphere is not a steady state).
    """
    _require_n(n, 2)
    if not (0.0 <= virial_ratio <= 1.0):
        raise ConfigurationError(f"virial_ratio in [0, 1], got {virial_ratio}")
    rng = np.random.default_rng(seed)
    mass = np.full(n, 1.0 / n)
    r = radius * rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
    pos = r[:, None] * _isotropic_unit_vectors(rng, n)
    vel = np.zeros((n, 3))
    if virial_ratio > 0.0:
        from .forces import potential_reference

        W = potential_reference(pos, mass)
        target_T = -virial_ratio * W
        raw = rng.normal(size=(n, 3))
        raw -= (mass[:, None] * raw).sum(axis=0) / mass.sum()
        from .energy import kinetic_energy

        raw_T = kinetic_energy(mass, raw)
        vel = raw * np.sqrt(target_T / raw_T)
    system = ParticleSystem(mass, pos, vel)
    system.to_center_of_mass_frame()
    return system


def hernquist(n: int, *, seed: int = 0, scale_radius: float = 0.55) -> ParticleSystem:
    """Hernquist (1990) sphere with locally-scaled isotropic velocities.

    Radii invert M(r) = r^2 / (r + a)^2; the velocity dispersion uses the
    isotropic Jeans solution evaluated per particle (an accurate and much
    cheaper stand-in for full DF sampling; the system settles within a few
    crossing times).
    """
    _require_n(n, 2)
    rng = np.random.default_rng(seed)
    a = scale_radius
    mass = np.full(n, 1.0 / n)
    x = rng.uniform(0.0, 0.99, n)  # truncate extreme tail
    sq = np.sqrt(x)
    r = a * sq / (1.0 - sq)
    pos = r[:, None] * _isotropic_unit_vectors(rng, n)
    # Isotropic Hernquist dispersion (Hernquist 1990 eq. 10), G=M=1.
    u = r / a
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma2 = (
            u * (1 + u) ** 3 * np.log((1 + u) / u)
            - (u / (1 + u)) * (25 + 52 * u + 42 * u**2 + 12 * u**3) / 12.0
        ) / a
    sigma2 = np.clip(np.nan_to_num(sigma2, nan=0.0), 0.0, None)
    vel = rng.normal(size=(n, 3)) * np.sqrt(sigma2)[:, None]
    system = ParticleSystem(mass, pos, vel)
    system.to_center_of_mass_frame()
    return system


def binary(
    *,
    mass_ratio: float = 1.0,
    semi_major_axis: float = 0.01,
    eccentricity: float = 0.0,
    total_mass: float = 1.0,
) -> ParticleSystem:
    """A two-body Keplerian binary at apoapsis, in the x-y plane."""
    if not (0.0 <= eccentricity < 1.0):
        raise ConfigurationError(f"eccentricity in [0, 1), got {eccentricity}")
    if mass_ratio <= 0 or semi_major_axis <= 0 or total_mass <= 0:
        raise ConfigurationError("binary parameters must be positive")
    m1 = total_mass / (1.0 + mass_ratio)
    m2 = total_mass - m1
    r_apo = semi_major_axis * (1.0 + eccentricity)
    # relative speed at apoapsis from the vis-viva equation
    v_apo = np.sqrt(total_mass * (2.0 / r_apo - 1.0 / semi_major_axis))
    mass = np.array([m1, m2])
    pos = np.array([[-m2 / total_mass * r_apo, 0.0, 0.0],
                    [m1 / total_mass * r_apo, 0.0, 0.0]])
    vel = np.array([[0.0, -m2 / total_mass * v_apo, 0.0],
                    [0.0, m1 / total_mass * v_apo, 0.0]])
    return ParticleSystem(mass, pos, vel)


def cluster_collision(
    n1: int,
    n2: int,
    *,
    seed: int = 0,
    mass_ratio: float = 1.0,
    separation: float = 6.0,
    impact_parameter: float = 0.5,
    relative_speed: float | None = None,
) -> ParticleSystem:
    """Two Plummer clusters on a collision course (a minor/major merger).

    ``mass_ratio`` is M1/M2 (cluster sizes scale with their mass so both
    are internally virialised); the pair starts ``separation`` apart along
    x with transverse offset ``impact_parameter``, approaching at
    ``relative_speed`` (default: the mutual parabolic speed at that
    separation, giving a marginally bound merger).
    """
    _require_n(n1, 2)
    _require_n(n2, 2)
    if mass_ratio <= 0:
        raise ConfigurationError(f"mass ratio must be positive, got {mass_ratio}")
    if separation <= 0:
        raise ConfigurationError(f"separation must be positive, got {separation}")
    if impact_parameter < 0:
        raise ConfigurationError("impact parameter must be non-negative")

    m1 = mass_ratio / (1.0 + mass_ratio)
    m2 = 1.0 - m1
    a = plummer(n1, seed=seed)
    b = plummer(n2, seed=seed + 1)
    # rescale each cluster to its share of the mass, keeping it virialised:
    # mass -> k m, pos -> k r, vel unchanged leaves 2T+W = 0 intact only if
    # v^2 ~ M/R; with R ~ M both scale together so velocities are unchanged
    a.mass *= m1
    a.pos *= m1
    b.mass *= m2
    b.pos *= m2

    # relative orbit: parabolic by default
    distance = np.hypot(separation, impact_parameter)
    if relative_speed is None:
        relative_speed = float(np.sqrt(2.0 / distance))  # v_esc of M=1 pair
    elif relative_speed < 0:
        raise ConfigurationError("relative speed must be non-negative")

    offset_1 = np.array([-separation * m2, -impact_parameter * m2, 0.0])
    offset_2 = np.array([separation * m1, impact_parameter * m1, 0.0])
    v_1 = np.array([relative_speed * m2, 0.0, 0.0])
    v_2 = np.array([-relative_speed * m1, 0.0, 0.0])

    system = ParticleSystem(
        np.concatenate([a.mass, b.mass]),
        np.vstack([a.pos + offset_1, b.pos + offset_2]),
        np.vstack([a.vel + v_1, b.vel + v_2]),
    )
    system.to_center_of_mass_frame()
    return system


def cluster_with_binary(
    n_background: int,
    *,
    seed: int = 0,
    binary_mass_fraction: float = 0.02,
    semi_major_axis: float = 0.005,
    eccentricity: float = 0.0,
) -> ParticleSystem:
    """A hard binary embedded at the centre of a Plummer background.

    The compact-object-binary-in-cluster configuration from the paper's
    introduction: the binary carries ``binary_mass_fraction`` of the total
    mass, background stars share the rest equally.
    """
    _require_n(n_background, 2)
    if not (0.0 < binary_mass_fraction < 1.0):
        raise ConfigurationError(
            f"binary mass fraction in (0, 1), got {binary_mass_fraction}"
        )
    background = plummer(n_background, seed=seed)
    background.mass *= 1.0 - binary_mass_fraction
    pair = binary(
        semi_major_axis=semi_major_axis,
        eccentricity=eccentricity,
        total_mass=binary_mass_fraction,
    )
    system = ParticleSystem(
        np.concatenate([pair.mass, background.mass]),
        np.vstack([pair.pos, background.pos]),
        np.vstack([pair.vel, background.vel]),
    )
    system.to_center_of_mass_frame()
    return system
