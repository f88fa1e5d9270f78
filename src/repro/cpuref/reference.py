"""The CPU reference force backend: the paper's comparison baseline.

Combines the mixed-precision SIMD kernel, the OpenMP wall-time model, and
the MPI-style decomposition into a :class:`CPUForceBackend` that plugs into
:class:`repro.core.Simulation`.  Functionally it computes genuine
mixed-precision forces (float32 pairwise math); temporally it reports
"host"-tagged timeline segments whose durations come from the calibrated
EPYC model, including the per-run multiplicative noise that gives the CPU
campaign its wider time-to-solution histogram (paper Fig. 3b).
"""

from __future__ import annotations

import numpy as np

from ..core.protocol import (
    ForceEvaluation,
    HostCostModel,
    TimelineSegment,
    normalize_targets,
)
from .mpi import FakeComm, split_counts
from .openmp import OpenMPModel, chunk_ranges
from .params import CpuCostParams, DEFAULT_CPU_COSTS, EPYC_9124_DUAL, HostParams
from .simd import simd_accel_jerk

__all__ = ["CPUForceBackend"]


class CPUForceBackend:
    """Mixed-precision MPI+OpenMP+AVX-512 reference implementation model."""

    def __init__(
        self,
        n_threads: int = 32,
        *,
        softening: float = 0.0,
        G: float = 1.0,
        comm: FakeComm | None = None,
        host: HostParams = EPYC_9124_DUAL,
        costs: CpuCostParams = DEFAULT_CPU_COSTS,
        rng: np.random.Generator | None = None,
        noisy: bool = True,
    ) -> None:
        self.omp = OpenMPModel(n_threads, host, costs)
        self.softening = softening
        self.G = G
        self.comm = comm if comm is not None else FakeComm()
        self.costs = costs
        # repro-lint: disable=RH003 - injectable RNG; campaigns pass a
        # seeded generator, the entropy default is the explicit noise mode.
        rng = rng if rng is not None else np.random.default_rng()
        # One multiplicative time factor per job: system load / scheduling
        # variability is correlated within a run, not per evaluation.
        if noisy and costs.run_noise_sigma > 0:
            self._noise = float(
                np.clip(rng.normal(1.0, costs.run_noise_sigma), 0.5, 1.5)
            )
        else:
            self._noise = 1.0
        #: the serial section (predictor/corrector and bookkeeping) a
        #: driver charges around each evaluation, under the same noise
        self.host_cost = HostCostModel(
            costs.serial_seconds_per_particle * self._noise,
            init_seconds=costs.init_seconds,
            seconds_per_cycle=costs.serial_seconds_per_cycle * self._noise,
        )
        self.name = f"cpu-ref-omp{n_threads}-mpi{self.comm.Get_size()}"

    @property
    def n_threads(self) -> int:
        return self.omp.n_threads

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        n = mass.shape[0]
        size = self.comm.Get_size()
        counts = split_counts(n, size)
        rank = self.comm.Get_rank()
        start = sum(counts[:rank])
        my = slice(start, start + counts[rank])

        # Each OpenMP thread computes a contiguous i-chunk of this rank's
        # slice; results are identical to one call but the chunked execution
        # mirrors (and tests) the static-scheduling decomposition.
        acc_local = np.empty((counts[rank], 3))
        jerk_local = np.empty((counts[rank], 3))
        for chunk in chunk_ranges(counts[rank], self.omp.effective_threads):
            if chunk.stop == chunk.start:
                continue
            sub = slice(my.start + chunk.start, my.start + chunk.stop)
            a, j = simd_accel_jerk(
                pos, vel, mass,
                softening=self.softening, G=self.G, i_slice=sub,
            )
            acc_local[chunk] = a
            jerk_local[chunk] = j

        if size > 1:
            acc = np.zeros((n, 3))
            jerk = np.zeros((n, 3))
            self.comm.Allgatherv(acc_local, acc, counts)
            self.comm.Allgatherv(jerk_local, jerk, counts)
        else:
            acc, jerk = acc_local, jerk_local

        seconds = self.omp.force_eval_seconds(n) * self._noise
        return ForceEvaluation(
            acc, jerk,
            segments=(TimelineSegment("host", seconds, "force-omp"),),
        )

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Subset evaluation: the active block's rows only, priced as such.

        The OpenMP decomposition chunks the *target vector* across
        threads; since every row accumulates over the identical j-block
        stream, each target row is bit-identical to the same row of a
        full :meth:`compute`.  Modelled wall time shrinks with the active
        block (``subset_eval_seconds``) under the same per-job noise
        factor.
        """
        n = mass.shape[0]
        idx = normalize_targets(targets, n)
        acc = np.empty((idx.size, 3))
        jerk = np.empty((idx.size, 3))
        for chunk in chunk_ranges(idx.size, self.omp.effective_threads):
            if chunk.stop == chunk.start:
                continue
            a, j = simd_accel_jerk(
                pos, vel, mass,
                softening=self.softening, G=self.G, targets=idx[chunk],
            )
            acc[chunk] = a
            jerk[chunk] = j
        seconds = self.omp.subset_eval_seconds(idx.size, n) * self._noise
        return ForceEvaluation(
            acc, jerk,
            segments=(TimelineSegment(
                "host", seconds, f"force-omp-subset[{idx.size}]"
            ),),
        )

    @property
    def noise_factor(self) -> float:
        return self._noise
