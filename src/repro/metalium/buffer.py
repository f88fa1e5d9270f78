"""Device memory buffers and host<->device transfers.

Mirrors TT-Metalium's buffer workflow: "memory buffers are then allocated,
and data is transferred between the host and device to prepare for
computation" (paper Section 2).  Buffers live in device DRAM, are sized in
whole 32x32 tiles, and store elements in the buffer's data format — a
BFLOAT16 buffer really occupies 2 bytes per element of simulated GDDR6, so
capacity pressure and transfer costs are format-faithful.

Host<->device traffic crosses the simulated PCIe 4.0 x16 link; transfer
durations are returned to the caller (the command queue aggregates them
into the host timeline).
"""

from __future__ import annotations

import numpy as np

from ..analysis import hooks
from ..errors import DataFormatError, HostApiError
from ..wormhole.device import WormholeDevice
from ..wormhole.dram import DramAllocation
from ..wormhole.dtypes import DataFormat, storage_bytes_per_element
from ..wormhole.tile import TILE_ELEMENTS, Tile

__all__ = ["DramBuffer"]


def _encode(tiles: list[Tile], fmt: DataFormat) -> bytes:
    """Serialise tiles into the format's device byte layout."""
    flat = np.concatenate([t.data for t in tiles])
    if fmt is DataFormat.FLOAT32:
        return flat.astype(np.float32).tobytes()
    if fmt is DataFormat.BFLOAT16:
        # bf16 is the upper half of the fp32 bit pattern; tile data is
        # already bf16-rounded, so plain truncation is exact.
        bits = flat.astype(np.float32).view(np.uint32)
        return (bits >> 16).astype(np.uint16).tobytes()
    if fmt is DataFormat.FLOAT16:
        with np.errstate(over="ignore"):
            return flat.astype(np.float16).tobytes()
    raise DataFormatError(f"DRAM buffers do not support {fmt.value}")


def _decode(raw: bytes, fmt: DataFormat, n_tiles: int) -> list[Tile]:
    """Deserialise device bytes back into tiles."""
    if fmt is DataFormat.FLOAT32:
        flat = np.frombuffer(raw, dtype=np.float32).astype(np.float64)
    elif fmt is DataFormat.BFLOAT16:
        halves = np.frombuffer(raw, dtype=np.uint16).astype(np.uint32)
        flat = (halves << 16).view(np.float32).astype(np.float64)
    elif fmt is DataFormat.FLOAT16:
        flat = np.frombuffer(raw, dtype=np.float16).astype(np.float64)
    else:
        raise DataFormatError(f"DRAM buffers do not support {fmt.value}")
    # round-tripped bytes are already format-rounded: skip re-quantisation
    return [
        Tile.from_quantized(flat[i * TILE_ELEMENTS : (i + 1) * TILE_ELEMENTS], fmt)
        for i in range(n_tiles)
    ]


class DramBuffer:
    """A tile-granular buffer in device DRAM."""

    def __init__(self, device: WormholeDevice, n_tiles: int,
                 fmt: DataFormat = DataFormat.FLOAT32) -> None:
        if n_tiles <= 0:
            raise HostApiError(f"buffer needs at least one tile, got {n_tiles}")
        device.require_open()
        self.device = device
        self.fmt = fmt
        self.n_tiles = n_tiles
        self.tile_bytes = storage_bytes_per_element(fmt) * TILE_ELEMENTS
        self.size_bytes = self.tile_bytes * n_tiles
        self._alloc: DramAllocation | None = device.dram.allocate(self.size_bytes)
        ctx = hooks.ambient()
        if ctx is not None:
            ctx.on_buffer_created(self)

    # -- host-side access (via PCIe) ----------------------------------------

    def host_write_tiles(self, tiles: list[Tile]) -> float:
        """Write tiles from the host; returns the PCIe transfer seconds."""
        self._require_live()
        if len(tiles) != self.n_tiles:
            raise HostApiError(
                f"buffer holds {self.n_tiles} tiles, got {len(tiles)}"
            )
        tiles = [t.astype(self.fmt) for t in tiles]
        self.device.dram.write(self._alloc.address, _encode(tiles, self.fmt))
        ctx = hooks.active()
        if ctx is not None:
            ctx.on_buffer_written(self)
        return self._pcie_seconds(self.size_bytes)

    def host_read_tiles(self) -> tuple[list[Tile], float]:
        """Read all tiles back to the host; returns (tiles, PCIe seconds)."""
        self._require_live()
        raw = self.device.dram.read(self._alloc.address, self.size_bytes)
        return _decode(raw, self.fmt, self.n_tiles), self._pcie_seconds(self.size_bytes)

    # -- charge-only accounting (batched-dispatch replay) ---------------------

    def host_write_cost(self) -> float:
        """Account a full host->device write without moving bytes.

        Identical DRAM byte/cycle accounting and PCIe seconds as
        :meth:`host_write_tiles`; used when nothing reads the payload back
        (charge-only program replays).
        """
        self._require_live()
        self.device.dram.touch_write(self._alloc.address, self.size_bytes)
        ctx = hooks.active()
        if ctx is not None:
            ctx.on_buffer_written(self)
        return self._pcie_seconds(self.size_bytes)

    def host_read_cost(self) -> float:
        """Account a full device->host read without decoding tiles."""
        self._require_live()
        self.device.dram.touch_read(self._alloc.address, self.size_bytes)
        return self._pcie_seconds(self.size_bytes)

    # -- device-side access (via NoC, from a Tensix core) ---------------------

    def noc_read_tile(self, core_index: int, tile_index: int) -> Tile:
        """Read one tile from DRAM into a core (data-movement cost charged).

        This is what the paper's *read kernel* does: "loads the original
        particle data from DRAM and formats it into tiles stored in CBs".
        """
        self._require_live()
        self._check_tile(tile_index)
        ctx = hooks.active()
        if ctx is not None:
            ctx.on_tile_read(self, tile_index)
        core = self.device.cores[core_index]
        address = self._alloc.address + tile_index * self.tile_bytes
        raw = self.device.dram.read(address, self.tile_bytes, core.counter)
        noc = self.device.nocs[core_index % len(self.device.nocs)]
        noc.read(core.counter, self.tile_bytes, core.coord)
        (tile,) = _decode(raw, self.fmt, 1)
        return tile

    def noc_write_tile(self, core_index: int, tile_index: int, tile: Tile) -> None:
        """Write one tile from a core back to DRAM (the *write kernel*)."""
        self._require_live()
        self._check_tile(tile_index)
        core = self.device.cores[core_index]
        address = self._alloc.address + tile_index * self.tile_bytes
        payload = _encode([tile.astype(self.fmt)], self.fmt)
        self.device.dram.write(address, payload, core.counter)
        noc = self.device.nocs[core_index % len(self.device.nocs)]
        noc.write(core.counter, self.tile_bytes, core.coord)
        ctx = hooks.active()
        if ctx is not None:
            ctx.on_tile_write(self, tile_index)

    def noc_read_tile_cost(self, core_index: int, tile_index: int) -> None:
        """Charge exactly what :meth:`noc_read_tile` charges, skip the data.

        The batched engine replays the kernel program in charge-only mode:
        DRAM ``bytes_read``, the bandwidth cycles on the issuing core, and
        the NoC transaction all advance identically, but no bytes are
        decoded (the engine computed the values out-of-band).
        """
        self._require_live()
        self._check_tile(tile_index)
        ctx = hooks.active()
        if ctx is not None:
            ctx.on_tile_read(self, tile_index)
        core = self.device.cores[core_index]
        address = self._alloc.address + tile_index * self.tile_bytes
        self.device.dram.touch_read(address, self.tile_bytes, core.counter)
        noc = self.device.nocs[core_index % len(self.device.nocs)]
        noc.read(core.counter, self.tile_bytes, core.coord)

    def noc_write_tile_cost(self, core_index: int, tile_index: int) -> None:
        """Charge exactly what :meth:`noc_write_tile` charges, skip the data."""
        self._require_live()
        self._check_tile(tile_index)
        core = self.device.cores[core_index]
        address = self._alloc.address + tile_index * self.tile_bytes
        self.device.dram.touch_write(address, self.tile_bytes, core.counter)
        noc = self.device.nocs[core_index % len(self.device.nocs)]
        noc.write(core.counter, self.tile_bytes, core.coord)
        ctx = hooks.active()
        if ctx is not None:
            ctx.on_tile_write(self, tile_index)

    # -- lifecycle ----------------------------------------------------------

    def deallocate(self) -> None:
        self._require_live()
        self.device.dram.free(self._alloc)
        self._alloc = None

    @property
    def is_live(self) -> bool:
        return self._alloc is not None

    def extent(self) -> tuple[int, int]:
        """``(address, size_bytes)``, after the checks a tile access makes.

        Raises as a kernel's first access would: :class:`HostApiError`
        once the buffer is deallocated, :class:`DeviceMemoryError` when
        its DRAM allocation is gone.
        """
        self._require_live()
        address = self._alloc.address
        self.device.dram.check_live(address, self.size_bytes)
        return address, self.size_bytes

    def _require_live(self) -> None:
        if self._alloc is None:
            raise HostApiError("buffer has been deallocated")

    def _check_tile(self, tile_index: int) -> None:
        if not (0 <= tile_index < self.n_tiles):
            raise HostApiError(
                f"tile index {tile_index} out of range [0, {self.n_tiles})"
            )

    def _pcie_seconds(self, n_bytes: int) -> float:
        return n_bytes / self.device.chip.pcie_bandwidth_bytes_per_s
