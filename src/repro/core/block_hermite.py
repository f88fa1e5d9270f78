"""Individual block-timestep Hermite integration.

Production direct N-body codes (the paper's class, e.g. NBODY6-style
integrators) do not advance every particle with a shared step: each
particle carries its own power-of-two timestep from a global hierarchy,
and at each block time only the *due* particles ("the active block")
receive new forces — an O(N_active * N) evaluation instead of O(N^2).
In a clustered system with a hard binary this reduces the work per unit
of physical time by orders of magnitude.

The scheme:

1. global time advances to the earliest due time  t = min_i (t_i + dt_i);
2. every particle is *predicted* to t (Taylor through the jerk);
3. the active block gets new forces from all predicted particles;
4. the Hermite corrector updates the active block, and each active
   particle draws a new Aarseth timestep, quantised down to a power of
   two that divides its current time (the block-synchronisation rule)
   and is allowed to at most double per update.

Forces come from the backend's target-subset evaluation
(:func:`~repro.core.protocol.compute_on_targets`), so each block
dispatches only the active block's i-rows (i-tile subsets on the device
backends, row subsets on the CPU ones) and its timeline carries the
backend's subset-priced segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..errors import ConfigurationError, IntegratorError
from .hermite import correct
from .particles import ParticleSystem
from .simulation import Driver, ForceBackend, _require_dt
from .timestep import aarseth_timestep, initial_timestep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Trace

__all__ = ["BlockStats", "BlockHermiteIntegrator"]

#: The timestep hierarchy: dt = dt_max / 2^k, k in [0, MAX_LEVEL].
MAX_LEVEL = 40


@dataclass
class BlockStats:
    """Work accounting for a block-timestep run."""

    block_steps: int = 0
    particle_updates: int = 0
    force_pair_evaluations: int = 0
    level_histogram: dict[int, int] = field(default_factory=dict)

    def record_block(self, n_active: int, n_total: int,
                     levels: np.ndarray) -> None:
        """Accumulate the work done by one block update."""
        self.block_steps += 1
        self.particle_updates += n_active
        self.force_pair_evaluations += n_active * n_total
        for level in levels:
            key = int(level)
            self.level_histogram[key] = self.level_histogram.get(key, 0) + 1


class BlockHermiteIntegrator(Driver):
    """4th-order Hermite with individual power-of-two block timesteps.

    Registered as ``"block-hermite"``.  ``run(n_cycles)`` advances
    ``n_cycles * dt`` of physical time in however many block updates the
    hierarchy takes, then synchronises every particle to the final global
    time; each block contributes one :class:`~repro.core.simulation
    .CycleRecord`.  ``stats`` accounts the work done.
    """

    name = "block-hermite"

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        dt: float | None,
        eta: float = 0.02,
        eta_start: float = 0.01,
        dt_max: float = 0.0625,
        block_levels: int = MAX_LEVEL,
        trace: "Trace | None" = None,
    ) -> None:
        self.dt = _require_dt(dt, self.name)
        if not (0 < eta and 0 < eta_start):
            raise ConfigurationError("eta values must be positive")
        if dt_max <= 0:
            raise ConfigurationError(f"dt_max must be positive, got {dt_max}")
        if math.frexp(dt_max)[0] != 0.5:
            # every block time is dt_max / 2^k; a non-power-of-two root
            # puts the whole hierarchy off the representable dyadic grid
            # and the _divides alignment test silently degrades
            raise ConfigurationError(
                f"dt_max must be a power of two (the hierarchy is "
                f"dt_max / 2^k), got {dt_max}"
            )
        if not (1 <= block_levels <= MAX_LEVEL):
            raise ConfigurationError(
                f"block_levels must be in [1, {MAX_LEVEL}], got {block_levels}"
            )
        super().__init__(system, backend, trace=trace)
        self.eta = eta
        self.eta_start = eta_start
        self.dt_max = dt_max
        self.block_levels = block_levels
        self.stats = BlockStats()
        n = system.n
        self._t = np.zeros(n)          # last update time per particle
        self._level = np.zeros(n, dtype=np.intp)
        self._snap = np.zeros((n, 3))
        self._crackle = np.zeros((n, 3))

    # -- hierarchy helpers --------------------------------------------------

    def _dt_of_level(self, level) -> np.ndarray:
        return self.dt_max / np.exp2(level)

    def _level_for_dt(self, dt: np.ndarray, t_now: float,
                      current_level: np.ndarray) -> np.ndarray:
        """Quantise desired timesteps onto the hierarchy.

        Rules: never round up past the desired dt; a step may shrink
        arbitrarily but grow by at most one level per update, and growing
        is only allowed when the new (longer) step still divides the
        current time — the block-synchronisation condition.
        """
        if np.any(dt <= 0) or not np.all(np.isfinite(dt)):
            raise IntegratorError("non-positive or non-finite timestep")
        k = np.ceil(np.log2(self.dt_max / dt))
        k = np.maximum(k, 0).astype(np.intp)
        if np.any(k > self.block_levels):
            raise IntegratorError(
                f"timestep collapsed below dt_max/2^{self.block_levels}"
            )
        # growth limit: at most one level up (dt at most doubles)
        k = np.maximum(k, current_level - 1)
        # synchronisation: moving to a longer step requires the block time
        # to be aligned with it; otherwise stay at the current level
        wants_growth = k < current_level
        if np.any(wants_growth):
            dt_new = self._dt_of_level(k)
            misaligned = ~self._divides(dt_new, t_now)
            k = np.where(wants_growth & misaligned, current_level, k)
        return k

    @staticmethod
    def _divides(dt: np.ndarray, t: float) -> np.ndarray:
        ratio = t / dt
        return np.abs(ratio - np.round(ratio)) < 1e-9

    # -- integration ----------------------------------------------------------

    def _first_evaluation(self) -> None:
        """Full-set forces, then a timestep level for every particle."""
        s = self.system
        evaluation = self._force(s.pos, s.vel, np.arange(s.n))
        s.acc, s.jerk = evaluation.acc, evaluation.jerk
        dt = initial_timestep(s.acc, s.jerk, self.eta_start)
        dt = np.minimum(dt, self.dt_max)
        k = np.ceil(np.log2(self.dt_max / dt))
        self._level = np.maximum(k, 0).astype(np.intp)
        if np.any(self._level > self.block_levels):
            raise IntegratorError("initial timestep below the hierarchy floor")
        self._t = np.full(s.n, s.time)

    def next_block_time(self) -> float:
        """Earliest pending update time across all particles."""
        return float(np.min(self._t + self._dt_of_level(self._level)))

    def _step_sizes(self, n_cycles: int) -> Iterator[float]:
        """Blocks up to ``t_end``; then every particle is brought to it."""
        t_end = self.system.time + n_cycles * self.dt
        while (t_next := self.next_block_time()) <= t_end:
            yield t_next - self.system.time
        self.synchronise()

    def _step(self, dt: float) -> int:
        """Advance the active block to the next block time, ``dt`` ahead."""
        s = self.system
        due = self._t + self._dt_of_level(self._level)
        t_new = float(np.min(due))
        active = np.flatnonzero(np.abs(due - t_new) < 1e-12 * max(t_new, 1.0))
        if active.size == 0:  # pragma: no cover - defensive
            raise IntegratorError("no particles due at the next block time")

        # predict ALL particles to t_new (sources must be current)
        dt_all = (t_new - self._t)[:, None]
        pos_p = (
            s.pos + dt_all * s.vel + dt_all**2 / 2.0 * s.acc
            + dt_all**3 / 6.0 * s.jerk
        )
        vel_p = s.vel + dt_all * s.acc + dt_all**2 / 2.0 * s.jerk

        evaluation = self._force(pos_p, vel_p, active)
        acc1, jerk1 = evaluation.acc, evaluation.jerk

        # particles due together may have been updated at different times
        # (after level changes): correct each group of equal intervals
        # over its own interval; a group's members share one float, since
        # each member's _t was set from the same t_new
        dt_active = t_new - self._t[active]
        for dt_value in np.unique(dt_active):
            rows = np.flatnonzero(dt_active == dt_value)
            sel = active[rows]
            step = correct(
                s.pos[sel], s.vel[sel], s.acc[sel], s.jerk[sel],
                acc1[rows], jerk1[rows], float(dt_value),
            )
            s.pos[sel] = step.pos
            s.vel[sel] = step.vel
            s.acc[sel] = step.acc
            s.jerk[sel] = step.jerk
            self._snap[sel] = step.snap
            self._crackle[sel] = step.crackle

        # non-active particles keep their state at their own t_i; only the
        # active ones move their clocks
        self._t[active] = t_new
        dt_want = aarseth_timestep(
            s.acc[active], s.jerk[active],
            self._snap[active], self._crackle[active], self.eta,
        )
        dt_want = np.minimum(dt_want, self.dt_max)
        self._level[active] = self._level_for_dt(
            dt_want, t_new, self._level[active]
        )
        s.time = t_new
        self.stats.record_block(active.size, s.n, self._level[active])
        return int(active.size)

    def synchronise(self) -> None:
        """Predict every particle to the current global time."""
        s = self.system
        dt_all = (s.time - self._t)[:, None]
        s.pos = (
            s.pos + dt_all * s.vel + dt_all**2 / 2.0 * s.acc
            + dt_all**3 / 6.0 * s.jerk
        )
        s.vel = s.vel + dt_all * s.acc + dt_all**2 / 2.0 * s.jerk
        self._t[:] = s.time
        s.check_finite()
