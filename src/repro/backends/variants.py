"""Ablation variants as first-class backends.

The double-single and tensor-FPU distance variants already existed as
functional kernels plus cost models (:mod:`repro.nbody_tt.ds_variant`,
:mod:`repro.nbody_tt.matmul_variant`), but only the ablation benches could
run them.  Wrapping them in the :class:`~repro.core.protocol.ForceBackend`
protocol puts them in the registry: the CLI can simulate with them, the
parity suite holds them to the paper's validation gates, and the CI backend
matrix smoke-tests them alongside the real competitors.

Both are O(N^2)-memory ablations — keep N at ablation sizes (the registry
help says so, and :func:`repro.nbody_tt.ds_variant.ds_accel_jerk` enforces
its own ceiling).
"""

from __future__ import annotations

import numpy as np

from ..core.protocol import ForceEvaluation, TimelineSegment, normalize_targets

__all__ = ["DSVariantBackend", "MatmulVariantBackend"]


def _gram_chain_products(r2, mj, i_arrs, j_arrs, mask_diag):
    """Six per-pair product matrices for one Gram block.

    The elementwise chain downstream of the FPU-produced ``r^2`` runs
    through the fused native kernel when available, else through the
    NumPy transcription below — same IEEE ops in the same order, so the
    two paths are bit-identical.  The caller owns the j-reduction
    (NumPy ``sum(axis=1)``) on both paths.
    """
    from ..nbody_tt._native import native_gram_kernel

    native = native_gram_kernel()
    if native is not None:
        return native(r2, mj, i_arrs, j_arrs, mask_diag)
    xi, yi, zi, vxi, vyi, vzi = i_arrs
    xj, yj, zj, vxj, vyj, vzj = j_arrs
    safe = r2 > np.float32(0.0)
    rinv = np.zeros_like(r2)
    np.sqrt(r2, out=rinv, where=safe)
    np.divide(np.float32(1.0), rinv, out=rinv, where=safe)
    if mask_diag:
        np.fill_diagonal(rinv, np.float32(0.0))
    rinv2 = rinv * rinv
    mr3 = mj[None, :] * rinv2 * rinv
    dx = xj[None, :] - xi[:, None]
    dy = yj[None, :] - yi[:, None]
    dz = zj[None, :] - zi[:, None]
    dvx = vxj[None, :] - vxi[:, None]
    dvy = vyj[None, :] - vyi[:, None]
    dvz = vzj[None, :] - vzi[:, None]
    rv = (dx * dvx + dy * dvy) + dz * dvz
    alpha = np.float32(3.0) * rv * rinv2
    return [
        mr3 * dx, mr3 * dy, mr3 * dz,
        mr3 * (dvx - alpha * dx),
        mr3 * (dvy - alpha * dy),
        mr3 * (dvz - alpha * dz),
    ]

#: particles per Gram block — gram_r2_block is fixed at 1024x1024 pairs
_MATMUL_BLOCK = 1024


class DSVariantBackend:
    """Every pairwise operation in double-single arithmetic (E13).

    Values come from :func:`~repro.nbody_tt.ds_variant.ds_accel_jerk`; the
    device-time segment is priced by
    :class:`~repro.nbody_tt.ds_variant.DSCostModel`, whose op-count
    multiplier is the whole point of the ablation.
    """

    def __init__(self, *, softening: float = 0.0, n_cores: int = 8) -> None:
        from ..nbody_tt.ds_variant import DSCostModel

        self.softening = softening
        self.n_cores = n_cores
        self.cost_model = DSCostModel()
        self.name = f"tt-ds-cores{n_cores}"

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        from ..nbody_tt.ds_variant import ds_accel_jerk

        acc, jerk = ds_accel_jerk(pos, vel, mass, softening=self.softening)
        n = mass.shape[0]
        device_s = self.cost_model.device_eval_seconds(n, self.n_cores)
        return ForceEvaluation(acc, jerk, segments=(
            TimelineSegment("device", device_s, "force (double-single)"),
        ))

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Subset evaluation for the double-single ablation.

        The DS kernel's j-reduction (``sum(axis=1)``) is independent per
        receiver row, so slicing a full evaluation is bit-identical to a
        native row-subset dispatch; the modelled device time is what that
        dispatch would cost — the full-evaluation time scaled by the
        active-row fraction (the op-mix multiplier is per pair).
        """
        from ..nbody_tt.ds_variant import ds_accel_jerk

        n = mass.shape[0]
        idx = normalize_targets(targets, n)
        acc, jerk = ds_accel_jerk(pos, vel, mass, softening=self.softening)
        device_s = (
            self.cost_model.device_eval_seconds(n, self.n_cores)
            * (idx.size / n)
        )
        return ForceEvaluation(acc[idx], jerk[idx], segments=(
            TimelineSegment(
                "device", device_s, f"force (double-single, {idx.size} rows)"
            ),
        ))


class MatmulVariantBackend:
    """Pair distances via tensor-FPU Gram matmuls, force chain in FP32 (E9).

    Each 1024x1024 pair block's r^2 comes from
    :func:`~repro.nbody_tt.matmul_variant.gram_r2_block` (running through
    the simulated FPU, inner dimension padded 3 -> 32); the remaining
    element-wise chain — exactly the work the matmul cannot absorb — runs
    in plain FP32 here as it would on the SFPU.  N that is not a multiple
    of 1024 is padded with massless particles at distinct far offsets, so
    the padding can never collide with a real particle (or each other) and
    contributes exactly zero force.
    """

    def __init__(self, *, softening: float = 0.0, n_cores: int = 8) -> None:
        from ..nbody_tt.matmul_variant import MatmulVariantModel

        self.softening = softening
        self.n_cores = n_cores
        self.model = MatmulVariantModel()
        self.name = f"tt-matmul-cores{n_cores}"

    def _padded(self, pos, vel, mass):
        n = mass.shape[0]
        n_pad = -(-n // _MATMUL_BLOCK) * _MATMUL_BLOCK
        if n_pad == n:
            return pos, vel, mass
        pad = n_pad - n
        span = float(np.abs(pos).max()) if n else 1.0
        pos_p = np.zeros((n_pad, 3), dtype=pos.dtype)
        pos_p[:n] = pos
        # distinct offsets far outside the cluster: pairwise r2 > 0 even at
        # softening == 0, so the rsqrt never sees the Gram zero
        pos_p[n:, 0] = 1e3 * span * (np.arange(1, pad + 1) + 1.0)
        vel_p = np.zeros((n_pad, 3), dtype=vel.dtype)
        vel_p[:n] = vel
        mass_p = np.zeros(n_pad, dtype=mass.dtype)
        mass_p[:n] = mass
        return pos_p, vel_p, mass_p

    def _evaluate_blocks(self, pos, vel, mass, i_blocks):
        """Padded acc/jerk for the given i-block indices, plus block count.

        The outer i-block loop is fully independent across blocks (each
        ``acc[si]`` row is accumulated only within its own iteration), so
        running any subset of blocks yields rows bit-identical to the
        full evaluation.  ``bi`` stays the *global* block index so the
        diagonal Gram mask lands on the true self-pairs.
        """
        from ..nbody_tt.matmul_variant import gram_r2_block
        from ..wormhole.fpu import Fpu

        pos_p, vel_p, mass_p = self._padded(pos, vel, mass)
        n_pad = mass_p.shape[0]
        n_blocks = n_pad // _MATMUL_BLOCK

        posf = pos_p.astype(np.float32)
        velf = vel_p.astype(np.float32)
        massf = mass_p.astype(np.float32)
        # contiguous per-component columns for the fused chain kernel
        cols = [np.ascontiguousarray(posf[:, k]) for k in range(3)]
        cols += [np.ascontiguousarray(velf[:, k]) for k in range(3)]
        acc = np.zeros((n_pad, 3), dtype=np.float32)
        jerk = np.zeros((n_pad, 3), dtype=np.float32)
        fpu = Fpu()

        for bi in i_blocks:
            si = slice(bi * _MATMUL_BLOCK, (bi + 1) * _MATMUL_BLOCK)
            i_arrs = [c[si] for c in cols]
            for bj in range(n_blocks):
                sj = slice(bj * _MATMUL_BLOCK, (bj + 1) * _MATMUL_BLOCK)
                r2 = np.ascontiguousarray(gram_r2_block(
                    posf[si], posf[sj], fpu, softening=self.softening
                ))
                # Gram cancellation can leave tiny negatives; the true
                # diagonal (self-pairs at softening 0) lands at ~0 too —
                # both get rinv = 0, which zeroes their contribution
                prods = _gram_chain_products(
                    r2, massf[sj], i_arrs, [c[sj] for c in cols],
                    bi == bj and self.softening == 0.0,
                )
                for k in range(3):
                    acc[si, k] += prods[k].sum(axis=1)
                    jerk[si, k] += prods[3 + k].sum(axis=1)
        return acc, jerk, n_blocks

    def _device_seconds(self, n_i_blocks: int, n_blocks: int) -> float:
        # block pairs split across cores; the worst core paces the device
        worst_pairs = -(-n_i_blocks * n_blocks // self.n_cores)
        return (
            self.model.total_cycles_per_tile_pair() * worst_pairs
            / self.model.chip.clock_hz
        )

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        n = mass.shape[0]
        n_blocks = -(-n // _MATMUL_BLOCK)
        acc, jerk, n_blocks = self._evaluate_blocks(
            pos, vel, mass, range(n_blocks)
        )
        device_s = self._device_seconds(n_blocks, n_blocks)
        return ForceEvaluation(
            acc[:n].astype(np.float64), jerk[:n].astype(np.float64),
            segments=(
                TimelineSegment("device", device_s, "force (gram matmul)"),
            ),
        )

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Subset evaluation: only the Gram i-blocks covering ``targets``.

        Work (and the modelled device time) scales with the number of
        1024-particle i-blocks the active set touches, against the full
        j-stream; rows come out bit-identical to :meth:`compute`.
        """
        n = mass.shape[0]
        idx = normalize_targets(targets, n)
        i_blocks = sorted({int(t) // _MATMUL_BLOCK for t in idx})
        acc, jerk, n_blocks = self._evaluate_blocks(
            pos, vel, mass, i_blocks
        )
        device_s = self._device_seconds(len(i_blocks), n_blocks)
        return ForceEvaluation(
            acc[idx].astype(np.float64), jerk[idx].astype(np.float64),
            segments=(
                TimelineSegment(
                    "device", device_s,
                    f"force (gram matmul, {len(i_blocks)} i-blocks)",
                ),
            ),
        )
