"""Snapshot I/O for particle systems: compact binary npz, restart-exact."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import NBodyError
from .particles import ParticleSystem

__all__ = ["save_npz", "load_npz"]


def save_npz(path: str | Path, system: ParticleSystem) -> None:
    """Write a snapshot as a compressed npz archive."""
    np.savez_compressed(
        Path(path),
        mass=system.mass,
        pos=system.pos,
        vel=system.vel,
        acc=system.acc,
        jerk=system.jerk,
        time=np.float64(system.time),
    )


def load_npz(path: str | Path) -> ParticleSystem:
    """Load a snapshot written by :func:`save_npz`."""
    path = Path(path)
    if not path.exists():
        raise NBodyError(f"snapshot not found: {path}")
    with np.load(path) as data:
        return ParticleSystem(
            mass=data["mass"],
            pos=data["pos"],
            vel=data["vel"],
            acc=data["acc"],
            jerk=data["jerk"],
            time=float(data["time"]),
        )
