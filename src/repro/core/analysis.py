"""Cluster structure diagnostics for dense stellar systems.

The observables astrophysicists extract from the simulations the paper
targets: Lagrangian radii and the density centre (Casertano & Hut 1985).

All functions operate on a :class:`~repro.core.particles.ParticleSystem`
in Henon units and are pure (no mutation).
"""

from __future__ import annotations

import numpy as np

from ..errors import NBodyError
from .particles import ParticleSystem

__all__ = ["lagrangian_radii", "density_center"]


def lagrangian_radii(
    system: ParticleSystem,
    fractions: tuple[float, ...] = (0.1, 0.5, 0.9),
    *,
    center: np.ndarray | None = None,
) -> np.ndarray:
    """Radii enclosing the given mass fractions.

    ``center`` defaults to the density centre (robust against escapers,
    unlike the barycentre).
    """
    if not fractions or any(not (0.0 < f <= 1.0) for f in fractions):
        raise NBodyError(f"mass fractions must lie in (0, 1], got {fractions}")
    if center is None:
        center = density_center(system)
    radii = np.linalg.norm(system.pos - center, axis=1)
    order = np.argsort(radii)
    cum = np.cumsum(system.mass[order])
    cum /= cum[-1]
    sorted_radii = radii[order]
    return np.array([
        sorted_radii[np.searchsorted(cum, f)] for f in fractions
    ])


def _knn_density(system: ParticleSystem, k: int) -> np.ndarray:
    """Casertano-Hut k-th-neighbour local density estimate per particle."""
    from scipy.spatial import cKDTree

    tree = cKDTree(system.pos)
    # k+1 because each particle is its own nearest neighbour
    dist, idx = tree.query(system.pos, k=k + 1)
    r_k = dist[:, -1]
    # mass within the k-th neighbour sphere, excluding self and the k-th
    inner_mass = system.mass[idx[:, 1:-1]].sum(axis=1)
    volume = (4.0 / 3.0) * np.pi * np.maximum(r_k, 1e-300) ** 3
    return inner_mass / volume


def density_center(system: ParticleSystem, k: int = 6) -> np.ndarray:
    """Density-weighted centre (Casertano & Hut 1985).

    Weights each position by its local density estimate; converges on the
    cluster core even when escapers drag the barycentre away.
    """
    if system.n <= k + 1:
        return system.center_of_mass()
    rho = _knn_density(system, k)
    total = rho.sum()
    if total <= 0.0:
        return system.center_of_mass()
    return (rho[:, None] * system.pos).sum(axis=0) / total
