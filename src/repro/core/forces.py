"""Golden-reference force computation: double precision, brute force.

This is the paper's correctness oracle: "force and jerk values computed by
the Tenstorrent Wormhole processor are compared against a naive,
double-precision brute-force implementation of the O(N^2) algorithm
executed on a conventional CPU.  This CPU-based calculation serves as the
'golden reference' for accuracy." (Section 3).

For every particle i:

    a_i = sum_j G m_j (r_j - r_i) / (r_ij^2 + eps^2)^{3/2}
    j_i = sum_j G m_j [ v_ij / s^{3/2} - 3 (r_ij . v_ij) r_ij / s^{5/2} ]

with r_ij = r_j - r_i, v_ij = v_j - v_i, s = r_ij^2 + eps^2.  ``eps`` is
the Plummer softening; the pure Newtonian case is eps = 0 with the
self-interaction excluded.

The evaluation is blocked over i: each pass takes ``block`` target rows
against all N sources, so the pairwise temporaries are ``(block, N, 3)``
arrays — memory-bounded, not cache-resident.  Every arithmetic operation
is float64 — this module never trades accuracy for speed.

The potential, which the virial scaling and the energy diagnostics
evaluate on every set-up, runs on a fused C kernel
(:mod:`repro.core._native`) that reproduces the NumPy path bit for bit;
the NumPy loop remains the fallback and the kernel's load-time oracle.
"""

from __future__ import annotations

import numpy as np

from ..errors import NBodyError
from ._native import native_pair_sum
from .units import G_NBODY

__all__ = [
    "accel_jerk_reference",
    "accel_jerk_on_targets",
    "accel_reference",
    "potential_reference",
]

#: Default row-block size.  It bounds memory rather than fitting a cache:
#: at N=8192 one block's (256, N, 3) float64 displacement array is 50 MB.
#: It also fixes the potential's summation order (one pairwise tree per
#: block), so a different block changes the last bits of the result.
DEFAULT_BLOCK = 256


def _validate(pos: np.ndarray, vel: np.ndarray | None, mass: np.ndarray) -> int:
    n = mass.shape[0]
    if pos.shape != (n, 3):
        raise NBodyError(f"pos shape {pos.shape} does not match {n} masses")
    if vel is not None and vel.shape != (n, 3):
        raise NBodyError(f"vel shape {vel.shape} does not match {n} masses")
    return n


def accel_jerk_reference(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    *,
    softening: float = 0.0,
    G: float = G_NBODY,
    block: int = DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Acceleration and jerk for all particles, float64 throughout."""
    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = _validate(pos, vel, mass)
    if softening < 0:
        raise NBodyError(f"softening must be non-negative, got {softening}")
    eps2 = softening * softening

    acc = np.zeros((n, 3))
    jerk = np.zeros((n, 3))
    for start in range(0, n, block):
        stop = min(start + block, n)
        # displacement/velocity of all j relative to the i-block
        dr = pos[None, :, :] - pos[start:stop, None, :]   # (b, n, 3)
        dv = vel[None, :, :] - vel[start:stop, None, :]
        s = np.einsum("ijk,ijk->ij", dr, dr) + eps2        # (b, n)
        rv = np.einsum("ijk,ijk->ij", dr, dv)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_s = 1.0 / s
            inv_r3 = inv_s * np.sqrt(inv_s)
        # remove self-interaction (and exact overlaps when eps = 0)
        diag_i = np.arange(start, stop)
        inv_r3[np.arange(stop - start), diag_i] = 0.0
        inv_s[np.arange(stop - start), diag_i] = 0.0
        if eps2 == 0.0:
            bad = ~np.isfinite(inv_r3)
            if bad.any():
                raise NBodyError(
                    "coincident particles with zero softening produce a "
                    "singular force"
                )
        m_inv_r3 = mass[None, :] * inv_r3                  # (b, n)
        acc[start:stop] = np.einsum("ij,ijk->ik", m_inv_r3, dr)
        # jerk: m [ dv / r^3 - 3 (rv / r^2) dr / r^3 ]
        alpha = 3.0 * rv * inv_s                           # (b, n)
        jerk[start:stop] = np.einsum(
            "ij,ijk->ik", m_inv_r3, dv
        ) - np.einsum("ij,ijk->ik", m_inv_r3 * alpha, dr)
    return G * acc, G * jerk


def accel_jerk_on_targets(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    targets: np.ndarray,
    *,
    softening: float = 0.0,
    G: float = G_NBODY,
    block: int = DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Acceleration and jerk on a subset of particles, from all sources.

    The primitive a block-timestep integrator needs: only the *active*
    particles (those due for an update) get new forces, but every particle
    sources them.  ``targets`` is an index array; results align with it.
    """
    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = _validate(pos, vel, mass)
    targets = np.asarray(targets, dtype=np.intp)
    if targets.ndim != 1 or targets.size == 0:
        raise NBodyError("targets must be a non-empty index vector")
    if targets.min() < 0 or targets.max() >= n:
        raise NBodyError(f"target indices out of range [0, {n})")
    eps2 = softening * softening

    acc = np.zeros((targets.size, 3))
    jerk = np.zeros((targets.size, 3))
    for start in range(0, targets.size, block):
        t_idx = targets[start : start + block]
        dr = pos[None, :, :] - pos[t_idx, None, :]
        dv = vel[None, :, :] - vel[t_idx, None, :]
        s = np.einsum("ijk,ijk->ij", dr, dr) + eps2
        rv = np.einsum("ijk,ijk->ij", dr, dv)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_s = 1.0 / s
            inv_r3 = inv_s * np.sqrt(inv_s)
        rows = np.arange(t_idx.size)
        inv_r3[rows, t_idx] = 0.0
        inv_s[rows, t_idx] = 0.0
        if eps2 == 0.0 and not np.all(np.isfinite(inv_r3)):
            raise NBodyError(
                "coincident particles with zero softening produce a "
                "singular force"
            )
        m_inv_r3 = mass[None, :] * inv_r3
        alpha = 3.0 * rv * inv_s
        acc[start : start + t_idx.size] = np.einsum("ij,ijk->ik", m_inv_r3, dr)
        jerk[start : start + t_idx.size] = np.einsum(
            "ij,ijk->ik", m_inv_r3, dv
        ) - np.einsum("ij,ijk->ik", m_inv_r3 * alpha, dr)
    return G * acc, G * jerk


def accel_reference(
    pos: np.ndarray,
    mass: np.ndarray,
    *,
    softening: float = 0.0,
    G: float = G_NBODY,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Acceleration only (used where jerk is not needed)."""
    vel = np.zeros_like(np.asarray(pos, dtype=np.float64))
    acc, _ = accel_jerk_reference(
        pos, vel, mass, softening=softening, G=G, block=block
    )
    return acc


def _pair_sum_numpy(pos: np.ndarray, mass: np.ndarray, eps2: float,
                    block: int) -> float:
    """Sum of m_i m_j / sqrt(r_ij^2 + eps^2) over ordered pairs i != j,
    ``block`` rows at a time — the NumPy path :mod:`repro.core._native`
    must match bitwise."""
    n = mass.shape[0]
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        dr = pos[None, :, :] - pos[start:stop, None, :]
        s = np.einsum("ijk,ijk->ij", dr, dr) + eps2
        with np.errstate(divide="ignore"):
            inv_r = 1.0 / np.sqrt(s)
        diag = np.arange(start, stop)
        inv_r[np.arange(stop - start), diag] = 0.0
        pair = mass[start:stop, None] * mass[None, :] * inv_r
        total += pair.sum()
    return float(total)


def potential_reference(
    pos: np.ndarray,
    mass: np.ndarray,
    *,
    softening: float = 0.0,
    G: float = G_NBODY,
    block: int = DEFAULT_BLOCK,
) -> float:
    """Total gravitational potential energy, float64, pairwise once.

    Runs on the native kernel of :mod:`repro.core._native` when it is
    available (bit-identical), otherwise on :func:`_pair_sum_numpy`.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    _validate(pos, None, mass)
    if block < 1:
        raise NBodyError(f"block must be positive, got {block}")
    eps2 = softening * softening
    total = native_pair_sum(pos, mass, eps2, block)
    if total is None:
        total = _pair_sum_numpy(pos, mass, eps2, block)
    return -0.5 * G * total  # each pair counted twice above
