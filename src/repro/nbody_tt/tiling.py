"""Particle-data tiling for the device (paper Section 3 / Fig. 2).

"We create copies of the data, organized into N tiles, where each tile
holds 1024 elements."  Each particle quantity — mass, the three position
components, and the three velocity components — becomes a sequence of
column tiles of 1024 values.  Masses pad with zeros so phantom lanes in the
last tile contribute no force; positions pad with a large sentinel offset
so phantom j-particles are far from every real particle (their zero mass
already annihilates the interaction, the offset additionally keeps
intermediate values finite).

The scheduler then distributes the *outer* loop — the i-tiles — across
Tensix cores: "the outer for-loop of the force calculation is distributed
across multiple Tensix cores.  Each core is assigned a subset of particles
for which it computes the net gravitational force" while every core
consumes the full replicated j-stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NBodyError
from ..wormhole.dtypes import DataFormat
from ..wormhole.tile import TILE_ELEMENTS, Tile, tiles_needed, tilize_1d, untilize_1d

__all__ = [
    "PAD_OFFSET",
    "ParticleTiles",
    "assign_tiles_to_cores",
    "covering_tiles",
    "subset_rows_from_tiles",
]

#: Base sentinel coordinate for phantom lanes in the last position tile.
#: Phantom k sits at ((PAD_OFFSET + k), 2*(PAD_OFFSET + k), 3*(PAD_OFFSET + k)):
#: far outside any Henon-unit cluster, pairwise distinct, and exactly
#: representable even in FLOAT16 (values stay below the fp16 overflow
#: threshold; their *squared* distances may saturate to inf, which the
#: rsqrt maps harmlessly to zero).
PAD_OFFSET = 1024.0

#: Quantities streamed for each j-tile, in CB page order.
J_QUANTITIES = ("m", "x", "y", "z", "vx", "vy", "vz")
#: Quantities resident for each i-tile.
I_QUANTITIES = ("x", "y", "z", "vx", "vy", "vz")
#: Result quantities written back, in CB page order.
OUT_QUANTITIES = ("ax", "ay", "az", "jx", "jy", "jz")


@dataclass
class ParticleTiles:
    """Tilized particle data ready for device upload."""

    n: int
    n_tiles: int
    fmt: DataFormat
    columns: dict[str, list[Tile]]  # quantity -> column tiles

    @classmethod
    def from_arrays(
        cls,
        pos: np.ndarray,
        vel: np.ndarray,
        mass: np.ndarray,
        fmt: DataFormat = DataFormat.FLOAT32,
    ) -> "ParticleTiles":
        n = mass.shape[0]
        if n == 0:
            raise NBodyError("cannot tilize an empty particle set")
        if pos.shape != (n, 3) or vel.shape != (n, 3):
            raise NBodyError("pos/vel shapes do not match the mass vector")
        n_tiles = tiles_needed(n)
        pad = n_tiles * TILE_ELEMENTS - n

        # phantom lanes: zero mass, distinct far-away positions (a spread
        # avoids phantom-phantom coincidences), zero velocity
        columns: dict[str, list[Tile]] = {
            "m": tilize_1d(mass, fmt, pad_value=0.0)
        }
        offsets = PAD_OFFSET + np.arange(pad)
        for axis, name in enumerate(("x", "y", "z")):
            columns[name] = tilize_1d(
                np.concatenate([pos[:, axis], offsets * (axis + 1)]), fmt
            )
        for axis, name in enumerate(("vx", "vy", "vz")):
            columns[name] = tilize_1d(
                np.concatenate([vel[:, axis], np.zeros(pad)]), fmt
            )
        return cls(n=n, n_tiles=n_tiles, fmt=fmt, columns=columns)

    def j_pages(self, tile_index: int) -> list[Tile]:
        """The 7 pages the read kernel streams for one j-tile."""
        return [self.columns[q][tile_index] for q in J_QUANTITIES]

    def i_pages(self, tile_index: int) -> list[Tile]:
        """The 6 resident pages for one i-tile."""
        return [self.columns[q][tile_index] for q in I_QUANTITIES]

    @staticmethod
    def results_to_arrays(
        tiles_by_quantity: dict[str, list[Tile]], n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Untilize (ax..jz) column tiles back into (n, 3) arrays."""
        missing = [q for q in OUT_QUANTITIES if q not in tiles_by_quantity]
        if missing:
            raise NBodyError(f"missing result columns: {missing}")
        cols = {
            q: untilize_1d(tiles_by_quantity[q], n) for q in OUT_QUANTITIES
        }
        acc = np.column_stack([cols["ax"], cols["ay"], cols["az"]])
        jerk = np.column_stack([cols["jx"], cols["jy"], cols["jz"]])
        return acc, jerk


def covering_tiles(
    targets: np.ndarray,
) -> tuple[list[int], dict[int, np.ndarray]]:
    """The i-tiles covering ``targets`` and the lanes each of them needs.

    ``targets`` are global particle indices in any order, duplicates
    allowed.  Returns the covering tiles in ascending order and, for each,
    its sorted unique lanes (``intp``, within ``[0, TILE_ELEMENTS)``) —
    the ``rows`` mapping :meth:`TTForceBackend.compute_shard` takes.
    """
    unique = np.unique(np.asarray(targets, dtype=np.intp))
    tiles, starts = np.unique(unique // TILE_ELEMENTS, return_index=True)
    needed = tiles.tolist()
    lanes = np.split(unique % TILE_ELEMENTS, starts[1:])
    return needed, dict(zip(needed, lanes))


def subset_rows_from_tiles(
    tiles_by_quantity: dict[str, list[Tile | None]], targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-target (acc, jerk) rows from a partially-populated tile grid.

    ``tiles_by_quantity`` is the :meth:`TTForceBackend.compute_shard`
    result shape — globally-indexed tile lists with ``None`` outside the
    evaluated subset.  Every tile covering a target must be present.
    Values pass through as float64 exactly as
    :meth:`ParticleTiles.results_to_arrays` would produce them, so a
    subset row is bit-identical to the full untilized array's row.
    """
    targets = np.asarray(targets, dtype=np.intp)
    tile_idx = targets // TILE_ELEMENTS
    lane_idx = targets % TILE_ELEMENTS
    cols = {}
    for q in OUT_QUANTITIES:
        tiles = tiles_by_quantity[q]
        out = np.empty(targets.size, dtype=np.float64)
        for k, (it, lane) in enumerate(zip(tile_idx, lane_idx)):
            tile = tiles[it]
            if tile is None:
                raise NBodyError(
                    f"result tile {it} for quantity {q!r} was not evaluated"
                )
            out[k] = tile.data[lane]
        cols[q] = out
    acc = np.column_stack([cols["ax"], cols["ay"], cols["az"]])
    jerk = np.column_stack([cols["jx"], cols["jy"], cols["jz"]])
    return acc, jerk


def assign_tiles_to_cores(n_tiles: int, n_cores: int) -> list[list[int]]:
    """Round-robin the i-tiles over the participating cores.

    Returns one (possibly empty) tile-index list per core.  Round-robin
    matches Fig. 2: "the column tiles are distributed across Tensix cores,
    and a row represents computations done in parallel".
    """
    if n_tiles <= 0 or n_cores <= 0:
        raise NBodyError(
            f"need positive tile and core counts, got {n_tiles}, {n_cores}"
        )
    out: list[list[int]] = [[] for _ in range(n_cores)]
    for t in range(n_tiles):
        out[t % n_cores].append(t)
    return out
