"""Short-range direct correction for the particle-mesh split.

The mesh resolves the smooth ``erf`` component of every pair force; pairs
closer than the cutoff also need the ``erfc`` remainder, evaluated
directly.  The screening factor decays like a Gaussian of the split
scale, so with ``r_cut`` a few split scales the correction is exact to
well below the far-field error budget while touching only O(N) pairs at
roughly uniform density.

Pair finding is a dense cell list at the cutoff scale: particles are
binned into ``r_cut``-sized cells with a stable argsort, and each of the
27 neighbour-cell offsets is processed as one vectorised batch whose
neighbour cells are found by ``np.searchsorted`` over the sorted cell
ids.  Accumulation uses ``np.add.at`` in a fixed offset order, so the
result is deterministic bit for bit.  The same walk runs in C when the
kernel of :mod:`repro.nbody_pm._native` is available, bit-identical to
this NumPy path, which stays the oracle and the fallback.

Because the screening factor is an analytic function of ``r``, the
near-field *jerk* is exact too::

    jerk_i += G m_j [ s/r^3 dv + (s' r - 3 s) (dr.dv)/r^5 dr ]

which is what lets the Hermite integrator keep its order even though the
far field contributes no jerk (see docs/FARFIELD.md).
"""

from __future__ import annotations

import numpy as np

from ..core.units import G_NBODY
from ._native import native_near_field
from .splitting import split_weights

__all__ = ["near_field_correction"]

#: The 27 neighbour-cell displacement vectors, fixed order.
_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
]


def _bin_cells(pos: np.ndarray, r_cut: float):
    """The cell list: ``(cell, dims, order, uniq, start, counts)``.

    ``cell`` is each particle's integer cell, ``dims`` the grid extent,
    ``order`` the particles sorted by cell id (stable), and ``uniq`` /
    ``start`` / ``counts`` the occupied cell ids, ascending, with each
    one's run in ``order``.
    """
    lo = pos.min(axis=0)
    cell = np.floor((pos - lo) / r_cut).astype(np.int64)
    dims = cell.max(axis=0) + 1
    cell_id = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(cell_id, kind="stable")
    uniq, start = np.unique(cell_id[order], return_index=True)
    counts = np.diff(np.append(start, len(pos)))
    return tuple(
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (cell, dims, order, uniq, start, counts)
    )


def near_field_correction(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    *,
    r_cut: float,
    split_scale: float,
    softening: float = 0.0,
    G: float = G_NBODY,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Screened direct sum over pairs within ``r_cut``.

    Returns ``(acc, jerk, n_pairs)`` where ``n_pairs`` counts *ordered*
    pairs actually evaluated (the device-time model prices them).

    With ``targets``, only receiver rows in the target set accumulate
    (other rows stay zero) and ``n_pairs`` counts just the pairs those
    rows see.  Filtering happens per offset batch *before* the pair
    expansion, so each surviving row processes the identical j-sequence
    in the identical ``np.add.at`` order — its values are bit-identical
    to the same row of an unfiltered call.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    vel = np.ascontiguousarray(vel, dtype=np.float64)
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    n = len(pos)
    acc = np.zeros((n, 3), dtype=np.float64)
    jerk = np.zeros((n, 3), dtype=np.float64)
    if n < 2 or r_cut <= 0.0:
        return acc, jerk, 0
    target_mask = None
    if targets is not None:
        target_mask = np.zeros(n, dtype=bool)
        target_mask[np.asarray(targets, dtype=np.intp)] = True
    cells = _bin_cells(pos, r_cut)
    kw = dict(r_cut=r_cut, split_scale=split_scale, softening=softening,
              G=G, acc=acc, jerk=jerk)
    n_pairs = native_near_field(pos, vel, mass, cells, target_mask, **kw)
    if n_pairs is None:
        n_pairs = _near_numpy(pos, vel, mass, cells, target_mask, **kw)
    return acc, jerk, n_pairs


def _near_numpy(pos, vel, mass, cells, target_mask, *, r_cut, split_scale,
                softening, G, acc, jerk) -> int:
    """The NumPy near field: accumulates into ``acc``/``jerk``, returns
    the pair count (the oracle of :mod:`repro.nbody_pm._native`)."""
    cell, dims, order, uniq, start, counts = cells
    r_cut2 = r_cut * r_cut
    eps2 = softening * softening
    n_pairs = 0
    for off in _OFFSETS:
        neighbour = cell + off
        valid = ((neighbour >= 0) & (neighbour < dims)).all(axis=1)
        if not valid.any():
            continue
        nb_id = (
            neighbour[:, 0] * dims[1] + neighbour[:, 1]
        ) * dims[2] + neighbour[:, 2]
        i_idx = np.nonzero(valid)[0]
        if target_mask is not None:
            i_idx = i_idx[target_mask[i_idx]]
            if i_idx.size == 0:
                continue
        wanted = nb_id[i_idx]
        k = np.minimum(np.searchsorted(uniq, wanted), uniq.size - 1)
        present = uniq[k] == wanted
        if not present.any():
            continue
        i_idx, k = i_idx[present], k[present]
        starts, lens = start[k], counts[k]
        # Expand (i, start, len) triples into flat ordered (i, j) pairs.
        total = int(lens.sum())
        i_rep = np.repeat(i_idx, lens)
        cursor = np.arange(total) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        j_rep = order[np.repeat(starts, lens) + cursor]
        keep = i_rep != j_rep
        i_rep, j_rep = i_rep[keep], j_rep[keep]

        dr = pos[j_rep] - pos[i_rep]
        r2 = np.einsum("ij,ij->i", dr, dr)
        inside = r2 < r_cut2
        if not inside.any():
            continue
        i_rep, j_rep = i_rep[inside], j_rep[inside]
        dr = dr[inside]
        r2 = r2[inside] + eps2
        n_pairs += len(i_rep)

        r = np.sqrt(r2)
        s, sp = split_weights(r, split_scale)
        inv_r3 = 1.0 / (r2 * r)
        coeff = G * mass[j_rep] * s * inv_r3
        np.add.at(acc, i_rep, coeff[:, None] * dr)

        dv = vel[j_rep] - vel[i_rep]
        rv = np.einsum("ij,ij->i", dr, dv)
        # d/dt [ s(r)/r^3 dr ]: the s/r^3 dv term plus the radial term
        # from both the 1/r^3 geometry and the moving screen s(r(t)).
        radial = G * mass[j_rep] * (sp * r - 3.0 * s) * rv / (r2 * r2 * r)
        np.add.at(jerk, i_rep, coeff[:, None] * dv + radial[:, None] * dr)
    return n_pairs
