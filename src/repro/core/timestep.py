"""Timestep criteria for the Hermite integrator.

Direct N-body codes of the paper's class use Aarseth's composite criterion,

    dt_i = sqrt( eta * (|a| |a2| + |j|^2) / (|j| |a3| + |a2|^2) ),

where a2, a3 are the second and third time derivatives of the acceleration
reconstructed by the Hermite corrector.  Before the first step, when only
a and j are known, the starter criterion dt = eta_s |a| / |j| applies.

The paper's representative simulation advances in "time cycles" of a
shared step (the global minimum over particles), which
:class:`SharedTimestep` models; the block scheme's power-of-two
quantisation lives in its integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IntegratorError

__all__ = [
    "aarseth_timestep",
    "initial_timestep",
    "SharedTimestep",
]

_TINY = 1.0e-300


def _norms(arr: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", arr, arr))


def initial_timestep(acc: np.ndarray, jerk: np.ndarray, eta: float = 0.01) -> np.ndarray:
    """Starter criterion dt_i = eta |a_i| / |j_i| per particle."""
    if eta <= 0:
        raise IntegratorError(f"eta must be positive, got {eta}")
    a = _norms(acc)
    j = _norms(jerk)
    return eta * a / np.maximum(j, _TINY)


def aarseth_timestep(
    acc: np.ndarray,
    jerk: np.ndarray,
    snap: np.ndarray,
    crackle: np.ndarray,
    eta: float = 0.02,
) -> np.ndarray:
    """Aarseth's composite criterion per particle.

    ``snap``/``crackle`` are the 2nd/3rd acceleration derivatives from the
    Hermite corrector.
    """
    if eta <= 0:
        raise IntegratorError(f"eta must be positive, got {eta}")
    a = _norms(acc)
    j = _norms(jerk)
    s = _norms(snap)
    c = _norms(crackle)
    num = a * s + j * j
    den = j * c + s * s
    return np.sqrt(eta * num / np.maximum(den, _TINY))


@dataclass
class SharedTimestep:
    """Shared adaptive timestep: the global minimum of the per-particle
    criterion, optionally clipped to [dt_min, dt_max].

    ``criterion`` selects the per-step formula:

    * ``"aarseth"`` (default) — the composite criterion, using the snap
      and crackle the Hermite corrector reconstructs.  Most accurate on
      exact forces, but the reconstruction divides force differences by
      dt^2 and dt^3, so *mixed-precision* force noise (the FP32 device
      kernel's ~1e-5 relative error) inflates the derivatives and drags
      the timestep down — a real interaction the integration tests
      demonstrate.
    * ``"simple"`` — eta |a| / |j| every step: first-order only, but it
      never touches reconstructed derivatives and is therefore robust to
      force noise; the standard mitigation for single-precision kernels.
    """

    eta: float = 0.02
    eta_start: float = 0.01
    dt_min: float = 1.0e-8
    dt_max: float = 0.125
    criterion: str = "aarseth"

    def __post_init__(self) -> None:
        if not (0 < self.dt_min <= self.dt_max):
            raise IntegratorError(
                f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}"
            )
        if self.criterion not in ("aarseth", "simple"):
            raise IntegratorError(
                f"criterion must be 'aarseth' or 'simple', "
                f"got {self.criterion!r}"
            )

    def first(self, acc: np.ndarray, jerk: np.ndarray) -> float:
        """Startup timestep from the acc/jerk criterion, clipped to bounds."""
        dt = initial_timestep(acc, jerk, self.eta_start).min()
        return float(np.clip(dt, self.dt_min, self.dt_max))

    def next(
        self,
        acc: np.ndarray,
        jerk: np.ndarray,
        snap: np.ndarray,
        crackle: np.ndarray,
    ) -> float:
        """Timestep from the full Aarseth (or simple) criterion, clipped to bounds."""
        if self.criterion == "simple":
            dt = initial_timestep(acc, jerk, self.eta).min()
        else:
            dt = aarseth_timestep(acc, jerk, snap, crackle, self.eta).min()
        return float(np.clip(dt, self.dt_min, self.dt_max))
