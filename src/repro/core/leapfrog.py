"""Kick-drift-kick leapfrog: the comparison integrator.

Second-order, symplectic, and jerk-free — the natural baseline against the
paper's 4th-order Hermite scheme.  The integrator-comparison benchmark
measures what the Hermite machinery (and hence the jerk half of the
offloaded kernel) buys: at equal force-evaluation counts the Hermite
integrator's energy error is orders of magnitude smaller on smooth
problems, which is why production direct codes pay for the jerk.

The leapfrog only needs accelerations; backends still return jerk, which
is simply ignored, so the same force backends (reference, CPU model,
Wormhole offload) drive both integrators.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..errors import ConfigurationError
from .particles import ParticleSystem
from .simulation import Driver, ForceBackend, _require_dt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Trace

__all__ = ["leapfrog_step", "LeapfrogDriver"]


def leapfrog_step(pos, vel, acc, dt, evaluate_acc):
    """One KDK step; returns (pos1, vel1, acc1)."""
    if dt <= 0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    vel_half = vel + 0.5 * dt * acc
    pos1 = pos + dt * vel_half
    acc1 = evaluate_acc(pos1, vel_half)
    vel1 = vel_half + 0.5 * dt * acc1
    return pos1, vel1, acc1


class LeapfrogDriver(Driver):
    """Fixed-step KDK leapfrog over any force backend (``"leapfrog"``)."""

    name = "leapfrog"

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        dt: float | None,
        trace: "Trace | None" = None,
    ) -> None:
        self.dt = _require_dt(dt, self.name)
        super().__init__(system, backend, trace=trace)

    def _first_evaluation(self) -> None:
        s = self.system
        s.acc = self._force(s.pos, s.vel).acc

    def _step_sizes(self, n_cycles: int) -> Iterator[float]:
        return itertools.repeat(self.dt, n_cycles)

    def _step(self, dt: float) -> int:
        s = self.system
        s.pos, s.vel, s.acc = leapfrog_step(
            s.pos, s.vel, s.acc, dt, lambda pos, vel: self._force(pos, vel).acc
        )
        s.time += dt
        return s.n
