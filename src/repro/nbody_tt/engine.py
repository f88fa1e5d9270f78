"""The batched block-dispatch execution engine for the functional backend.

The per-block path drives every (i-tile x j-tile) interaction through the
cooperative kernel scheduler: each block re-reads, re-decodes and
re-converts its seven replicated j-stream pages, and the force math runs
as ~35 separate full-matrix NumPy sweeps per block.  That Python- and
memory-overhead — not the modelled device — dominates the wall clock of
the crossover benchmark and the campaign scripts.

This engine is the fast path: the j-stream quantities are stacked **once**
per evaluation into contiguous working-precision arrays shared by every
core of the card, and each resident i-tile is evaluated against the whole
j-stream in cache-blocked chunks.  Reduction and accumulation happen at
exactly the per-tile granularity of the per-block kernel — same NumPy
pairwise-summation tree per 1024-column tile, same sequential
tile-accumulation order — so the engine is **bit-identical** to
:func:`repro.nbody_tt.force_kernel.force_block` in every data format,
with and without softening, including the diagonal self-mask.

When a C compiler is available the fp32 elementwise chain additionally
runs through the fused native kernel (:mod:`repro.nbody_tt._native`),
which walks each chunk once instead of ~35 times; reductions stay in
NumPy so bit-identity is preserved by construction.

The engine computes *values* only.  Cycle charges, circular-buffer
dynamics and scheduler rounds are produced by replaying the real kernel
program in charge-only mode (see :mod:`repro.nbody_tt.offload`), so the
cost model and the E11 double-buffering ablation are untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import NBodyError
from ..wormhole.dtypes import DataFormat, quantize
from ..wormhole.tile import TILE_ELEMENTS
from ._native import native_force_kernel, native_tile_kernel
from .tiling import J_QUANTITIES, OUT_QUANTITIES, ParticleTiles

__all__ = ["BatchedDispatchEngine"]

#: i-rows processed per chunk.  The native kernel is compute-bound, so it
#: takes large chunks; the NumPy fallback materialises ~10 intermediates
#: per chunk and wants them L2-resident.
_ROWS_NATIVE = 64
_ROWS_NUMPY = 8
#: j-tiles per chunk for the NumPy fallback (generic formats use the same
#: blocking; 32 rows keeps BFP8's 16-element groups aligned).
_WTILES_NUMPY = 4
_ROWS_GENERIC = 32


class BatchedDispatchEngine:
    """Batched evaluation of i-tiles against a pre-stacked j-stream."""

    def __init__(self, fmt: DataFormat, softening: float) -> None:
        self.fmt = fmt
        self.softening = softening
        self._native = (
            native_force_kernel() if fmt is DataFormat.FLOAT32 else None
        )
        #: fused chunk+reduction kernel (None unless its load-time
        #: pairwise self-test against np.sum passed — see _native)
        self._fused = (
            native_tile_kernel() if fmt is DataFormat.FLOAT32 else None
        )
        self._n_tiles = 0
        self._j: dict[str, np.ndarray] = {}
        #: chunk scratch buffers, keyed by (rows, cols)
        self._scratch: dict[tuple[int, int], list[np.ndarray]] = {}

    # -- j-stream staging ---------------------------------------------------

    def load_j_stream(self, tiles: ParticleTiles) -> None:
        """Stack the seven j-stream quantities once, in working precision.

        The stacked values are exactly what the per-block path sees after
        its DRAM round trip: tile data is already quantised to the working
        format, and the fp32 path's per-page ``astype(float32)`` commutes
        with concatenation.
        """
        if tiles.fmt is not self.fmt:
            raise NBodyError(
                f"engine built for {self.fmt.value}, got tiles in "
                f"{tiles.fmt.value}"
            )
        self._n_tiles = tiles.n_tiles
        dtype = np.float32 if self.fmt is DataFormat.FLOAT32 else np.float64
        for q in J_QUANTITIES:
            self._j[q] = np.ascontiguousarray(
                np.concatenate([t.data for t in tiles.columns[q]]), dtype=dtype
            )

    # -- main entry ---------------------------------------------------------

    def compute_tiles(
        self, tile_indices: list[int],
        rows: dict[int, np.ndarray] | None = None,
    ) -> dict[int, list[np.ndarray]]:
        """Accumulated (ax..jz) vectors for each requested i-tile.

        Returns, per tile, six ``TILE_ELEMENTS`` vectors in
        ``OUT_QUANTITIES`` order, carrying exactly the bits the per-block
        accumulators would hold after their final j-tile.

        ``rows`` maps each requested tile to the sorted, unique lanes the
        caller needs (``None`` = every lane).  In fp32 only those lanes are
        evaluated — each row's j-reduction is independent of every other
        row, so they carry the whole-tile bits — and every other lane holds
        NaN.  Reduced-precision formats compute whole tiles regardless:
        their accumulators are re-quantised across ``_ROWS_GENERIC``-row
        slices, so their rows are not independent.
        """
        if not self._j:
            raise NBodyError("load_j_stream must be called before compute")
        out = {}
        for it in tile_indices:
            if not (0 <= it < self._n_tiles):
                raise NBodyError(
                    f"i-tile {it} out of range [0, {self._n_tiles})"
                )
            if self.fmt is DataFormat.FLOAT32:
                out[it] = self._tile_fp32(
                    it, None if rows is None else rows[it]
                )
            else:
                out[it] = self._tile_generic(it)
        return out

    # -- fp32 path ----------------------------------------------------------

    def _tile_fp32(self, it: int, lanes) -> list[np.ndarray]:
        """One i-tile: each maximal run of ``lanes`` (all lanes when
        ``None``) is evaluated from zeroed accumulators; the rest is NaN."""
        accs = [np.full(TILE_ELEMENTS, np.nan, dtype=np.float32)
                for _ in range(6)]
        runs = [(0, TILE_ELEMENTS)] if lanes is None else _lane_runs(lanes)
        base = it * TILE_ELEMENTS
        for lo, hi in runs:
            run_accs = [a[lo:hi] for a in accs]
            for a in run_accs:
                a[:] = 0.0
            self._rows_fp32(base + lo, hi - lo, run_accs)
        return accs

    def _rows_fp32(self, g0: int, n: int, accs: list[np.ndarray]) -> None:
        """Accumulate rows ``[g0, g0 + n)`` (global particle indices)
        against the whole j-stream into the length-``n`` ``accs``.

        ``g0`` doubles as the self-mask's diagonal: row ``r`` of the run is
        particle ``g0 + r``, whose self-interaction sits in j-column
        ``g0 + r``.
        """
        j = self._j
        i_arrs = [j[q] for q in ("x", "y", "z", "vx", "vy", "vz")]
        j_arrs = [j[q] for q in J_QUANTITIES]
        eps2 = np.float32(self.softening * self.softening)
        width = self._n_tiles * TILE_ELEMENTS

        if self._fused is not None:
            # one call per run: products never leave L1, and the
            # reduction runs NumPy's pairwise tree in C (self-tested at
            # load time), accumulating in ascending j-tile order exactly
            # like _reduce_f32
            i_run = [a[g0 : g0 + n] for a in i_arrs]
            self._fused(i_run, j_arrs, float(eps2), n, width, g0, accs)
            return

        native = self._native
        rows = _ROWS_NATIVE if native is not None else _ROWS_NUMPY
        wcols = (
            width if native is not None
            else min(width, _WTILES_NUMPY * TILE_ELEMENTS)
        )
        for r0 in range(0, n, rows):
            m = min(rows, n - r0)
            i_chunk = [a[g0 + r0 : g0 + r0 + m] for a in i_arrs]
            for c0 in range(0, width, wcols):
                cols = min(wcols, width - c0)
                # a short chunk uses the leading rows of the full-shape
                # buffers, so scratch stays one set per chunk shape
                prods = [b[:m] for b in self._scratch_f32(rows, cols)]
                j_chunk = [a[c0 : c0 + cols] for a in j_arrs]
                diag0 = g0 + r0 - c0
                if native is not None:
                    native(i_chunk, j_chunk, float(eps2), m, cols,
                           diag0, prods)
                else:
                    _numpy_chunk_f32(i_chunk, j_chunk, eps2, m, cols,
                                     diag0, prods)
                self._reduce_f32(accs, prods, r0, m, c0, cols)

    def _scratch_f32(self, rows: int, cols: int) -> list[np.ndarray]:
        bufs = self._scratch.get((rows, cols))
        if bufs is None:
            # 6 products + 10 intermediates for the NumPy fallback
            n = 6 if self._native is not None else 16
            bufs = [np.empty((rows, cols), dtype=np.float32)
                    for _ in range(n)]
            self._scratch[(rows, cols)] = bufs
        return bufs

    def _reduce_f32(self, accs, prods, r0, rows, c0, cols) -> None:
        """Per-tile pairwise sums, accumulated sequentially in j order.

        ``reshape(rows, nt, TILE)`` and ``sum(axis=2)`` reduce the same
        1024 contiguous lanes with the same pairwise tree as the per-block
        ``sum(axis=1)``; adding the per-tile partials in ascending j order
        reproduces the accumulators' sequential rounding.
        """
        nt = cols // TILE_ELEMENTS
        rslice = slice(r0, r0 + rows)
        for q in range(6):
            partial = prods[q].reshape(rows, nt, TILE_ELEMENTS).sum(
                axis=2, dtype=np.float32
            )
            a = accs[q][rslice]
            for jt in range(nt):
                a += partial[:, jt]

    # -- generic (reduced-precision) path ------------------------------------

    def _tile_generic(self, it: int) -> list[np.ndarray]:
        """Ablation formats: every op re-quantised, chunked like fp32.

        Chunk shapes stay multiples of 16 in both axes so BFP8's
        shared-exponent groups land on exactly the lanes the per-block
        path grouped.
        """
        fmt = self.fmt
        q = lambda a: quantize(a, fmt)
        j = self._j
        eps2 = float(quantize(
            np.asarray([self.softening * self.softening]), fmt)[0])
        width = self._n_tiles * TILE_ELEMENTS
        accs = [np.zeros(TILE_ELEMENTS) for _ in range(6)]

        rows = _ROWS_GENERIC
        wcols = min(width, _WTILES_NUMPY * TILE_ELEMENTS)
        base = it * TILE_ELEMENTS
        xi, yi, zi = j["x"], j["y"], j["z"]
        vxi, vyi, vzi = j["vx"], j["vy"], j["vz"]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for r0 in range(0, TILE_ELEMENTS, rows):
                rs = slice(base + r0, base + r0 + rows)
                for c0 in range(0, width, wcols):
                    cs = slice(c0, c0 + min(wcols, width - c0))
                    dx = q(xi[cs][None, :] - xi[rs][:, None])
                    dy = q(yi[cs][None, :] - yi[rs][:, None])
                    dz = q(zi[cs][None, :] - zi[rs][:, None])
                    dvx = q(vxi[cs][None, :] - vxi[rs][:, None])
                    dvy = q(vyi[cs][None, :] - vyi[rs][:, None])
                    dvz = q(vzi[cs][None, :] - vzi[rs][:, None])
                    r2 = q(q(q(dx * dx) + q(dy * dy)) + q(dz * dz))
                    if eps2 != 0.0:
                        r2 = q(r2 + eps2)
                    rinv = q(1.0 / np.sqrt(r2))
                    diag = base + r0 - c0
                    if -rows < diag < cs.stop - cs.start:
                        rr = np.arange(rows)
                        cc = diag + rr
                        ok = (cc >= 0) & (cc < cs.stop - cs.start)
                        rinv[rr[ok], cc[ok]] = 0.0
                    rinv2 = q(rinv * rinv)
                    rinv3 = q(rinv2 * rinv)
                    mr3 = q(j["m"][cs][None, :] * rinv3)
                    rv = q(q(q(dx * dvx) + q(dy * dvy)) + q(dz * dvz))
                    alpha = q(q(3.0 * rv) * rinv2)
                    prods = [
                        q(mr3 * dx), q(mr3 * dy), q(mr3 * dz),
                        q(mr3 * q(dvx - q(alpha * dx))),
                        q(mr3 * q(dvy - q(alpha * dy))),
                        q(mr3 * q(dvz - q(alpha * dz))),
                    ]
                    nt = (cs.stop - cs.start) // TILE_ELEMENTS
                    rslice = slice(r0, r0 + rows)
                    for k in range(6):
                        partial = prods[k].reshape(
                            rows, nt, TILE_ELEMENTS).sum(axis=2)
                        a = accs[k]
                        for jt in range(nt):
                            a[rslice] = quantize(
                                a[rslice] + q(partial[:, jt]), fmt
                            )
        return accs


def _lane_runs(lanes) -> list[tuple[int, int]]:
    """Maximal ``[lo, hi)`` runs of consecutive lanes in ``lanes``.

    ``lanes`` must be non-empty, strictly increasing and inside one tile.
    """
    lanes = np.asarray(lanes, dtype=np.intp)
    if (lanes.ndim != 1 or lanes.size == 0 or lanes[0] < 0
            or lanes[-1] >= TILE_ELEMENTS or np.any(np.diff(lanes) <= 0)):
        raise NBodyError(
            "rows must be non-empty, strictly increasing lanes in "
            f"[0, {TILE_ELEMENTS})"
        )
    breaks = np.flatnonzero(np.diff(lanes) != 1) + 1
    starts = lanes[np.r_[0, breaks]]
    ends = lanes[np.r_[breaks - 1, lanes.size - 1]] + 1
    return list(zip(starts.tolist(), ends.tolist()))


def _numpy_chunk_f32(i_chunk, j_chunk, eps2, rows, cols, diag0, bufs):
    """Pure-NumPy fallback for one fused chunk: same ops, same order.

    Writes the six product arrays into ``bufs[:6]``; ``bufs[6:]`` are
    reusable intermediates (the chunk shape keeps them cache-resident).
    """
    xi, yi, zi, vxi, vyi, vzi = i_chunk
    mj, xj, yj, zj, vxj, vyj, vzj = j_chunk
    pax, pay, paz, pjx, pjy, pjz = bufs[:6]
    dx, dy, dz, dvx, dvy, dvz, t1, t2, t3, tmp = bufs[6:16]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(xj[None, :], xi[:, None], out=dx)
        np.subtract(yj[None, :], yi[:, None], out=dy)
        np.subtract(zj[None, :], zi[:, None], out=dz)
        np.subtract(vxj[None, :], vxi[:, None], out=dvx)
        np.subtract(vyj[None, :], vyi[:, None], out=dvy)
        np.subtract(vzj[None, :], vzi[:, None], out=dvz)
        np.multiply(dx, dx, out=t1)
        np.multiply(dy, dy, out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(dz, dz, out=t2)
        np.add(t1, t2, out=t1)
        if eps2 != np.float32(0.0):
            np.add(t1, eps2, out=t1)
        np.sqrt(t1, out=t1)
        np.divide(np.float32(1.0), t1, out=t1)        # rinv
        if -rows < diag0 < cols:
            rr = np.arange(rows)
            cc = diag0 + rr
            ok = (cc >= 0) & (cc < cols)
            t1[rr[ok], cc[ok]] = np.float32(0.0)
        np.multiply(t1, t1, out=t2)                   # rinv2
        np.multiply(t2, t1, out=t3)
        np.multiply(mj[None, :], t3, out=t3)          # mr3
        rv = t1                                       # rinv no longer needed
        np.multiply(dx, dvx, out=rv)
        np.multiply(dy, dvy, out=tmp)
        np.add(rv, tmp, out=rv)
        np.multiply(dz, dvz, out=tmp)
        np.add(rv, tmp, out=rv)
        np.multiply(np.float32(3.0), rv, out=rv)
        np.multiply(rv, t2, out=rv)                   # alpha
        np.multiply(t3, dx, out=pax)
        np.multiply(t3, dy, out=pay)
        np.multiply(t3, dz, out=paz)
        np.multiply(rv, dx, out=tmp)
        np.subtract(dvx, tmp, out=tmp)
        np.multiply(t3, tmp, out=pjx)
        np.multiply(rv, dy, out=tmp)
        np.subtract(dvy, tmp, out=tmp)
        np.multiply(t3, tmp, out=pjy)
        np.multiply(rv, dz, out=tmp)
        np.subtract(dvz, tmp, out=tmp)
        np.multiply(t3, tmp, out=pjz)


# expose the result page order for the offload layer
ENGINE_OUT_ORDER = tuple(OUT_QUANTITIES)
