"""GDDR6 DRAM model: byte-addressed storage plus bandwidth costing.

The n300 card carries 12 GB of external GDDR6 behind a 192-bit memory bus
(paper Section 2).  The model provides:

* a byte-addressed store backed by NumPy arrays per allocation, so DRAM
  buffers created through the metalium host API hold real data; and
* a bandwidth cost model — transfers charge cycles at the effective
  bus rate onto the issuing core's data-movement timeline, and aggregate
  traffic is tracked for the benches.

Storage is created per allocation on its first write — an allocation that
is never written reads as zeros and costs no host memory — so a near-
capacity allocation does not need 12 GB of host RAM; capacity accounting
is still enforced against the real 12 GB budget.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import AllocationError, DeviceMemoryError
from .counters import CycleCounter
from .params import ChipParams, WORMHOLE_N300

__all__ = ["DramAllocation", "Dram"]

#: DRAM allocations are page-aligned to 32 bytes (NoC flit size).
DRAM_ALIGN = 32


@dataclass(frozen=True)
class DramAllocation:
    """Handle for a DRAM buffer: base address and size in bytes."""

    address: int
    size: int


class Dram:
    """The card's GDDR6 pool: allocator, storage, and bandwidth model.

    The 192-bit bus is six 32-bit GDDR6 channels; interleaved buffers
    stripe across all of them (full bandwidth), whereas a transfer pinned
    to one bank sees one sixth.  ``transfer_cycles`` models both regimes.
    """

    #: 192-bit bus = 6 x 32-bit GDDR6 channels.
    N_BANKS = 6
    #: Interleaving granularity: one 4 KiB tile page per bank.
    BANK_INTERLEAVE_BYTES = 4096

    def __init__(self, chip: ChipParams = WORMHOLE_N300) -> None:
        self.chip = chip
        self.capacity = chip.dram_bytes
        self._next_address = 0
        #: live allocation base addresses, ascending: the bump allocator
        #: hands out increasing addresses, so appending keeps them sorted
        self._bases: list[int] = []
        self._sizes: dict[int, int] = {}
        #: zero-filled storage, created by an allocation's first write
        self._store: dict[int, np.ndarray] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # -- allocation --------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return sum(self._sizes.values())

    def allocate(self, size: int) -> DramAllocation:
        if size <= 0:
            raise AllocationError(f"DRAM allocation must be positive, got {size}")
        aligned = (size + DRAM_ALIGN - 1) & ~(DRAM_ALIGN - 1)
        if self.allocated_bytes + aligned > self.capacity:
            raise AllocationError(
                f"DRAM exhausted: requested {aligned} B with "
                f"{self.capacity - self.allocated_bytes} B free of {self.capacity} B"
            )
        address = self._next_address
        self._next_address += aligned
        self._bases.append(address)
        self._sizes[address] = aligned
        return DramAllocation(address, aligned)

    def free(self, alloc: DramAllocation) -> None:
        if self._sizes.pop(alloc.address, None) is None:
            raise AllocationError(f"free of unknown DRAM allocation {alloc!r}")
        del self._bases[bisect_left(self._bases, alloc.address)]
        self._store.pop(alloc.address, None)

    def reset(self) -> None:
        self._next_address = 0
        self._bases.clear()
        self._sizes.clear()
        self._store.clear()
        self.bytes_read = 0
        self.bytes_written = 0

    # -- data access ---------------------------------------------------------

    def check_live(self, address: int, size: int) -> None:
        """Raise :class:`DeviceMemoryError` unless ``[address, address +
        size)`` lies inside one live allocation — the check every access
        makes first."""
        self._locate(address, size)

    def _locate(self, address: int, size: int) -> int:
        """Base address of the live allocation holding the access."""
        i = bisect_right(self._bases, address) - 1
        if i >= 0:
            base = self._bases[i]
            if address + size <= base + self._sizes[base]:
                return base
        raise DeviceMemoryError(
            f"DRAM access [{address}, {address + size}) hits no live allocation"
        )

    def write(self, address: int, data: bytes | np.ndarray,
              counter: CycleCounter | None = None) -> float:
        """Store bytes at ``address``; returns the modelled cycle cost."""
        raw = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.ascontiguousarray(data).view(np.uint8).ravel()
        base = self._locate(address, raw.size)
        buf = self._store.get(base)
        if buf is None:
            buf = self._store[base] = np.zeros(self._sizes[base], np.uint8)
        offset = address - base
        buf[offset : offset + raw.size] = raw
        self.bytes_written += raw.size
        cycles = self.transfer_cycles(raw.size)
        if counter is not None:
            counter.add_datamove(cycles, op="dram.write")
        return cycles

    def read(self, address: int, size: int,
             counter: CycleCounter | None = None) -> bytes:
        """Load ``size`` bytes from ``address``, charging bandwidth cost.

        Bytes of an allocation that was never written read as zeros.
        """
        base = self._locate(address, size)
        self.bytes_read += size
        if counter is not None:
            counter.add_datamove(self.transfer_cycles(size), op="dram.read")
        buf = self._store.get(base)
        if buf is None:
            return bytes(size)
        offset = address - base
        return bytes(buf[offset : offset + size])

    def touch_read(self, address: int, size: int,
                   counter: CycleCounter | None = None) -> None:
        """Account a read without materialising the bytes.

        Used by charge-only replays (the batched dispatch engine): bounds
        are validated and ``bytes_read`` plus the bandwidth charge advance
        exactly as :meth:`read` would, but no payload is copied.
        """
        self._locate(address, size)
        self.bytes_read += size
        if counter is not None:
            counter.add_datamove(self.transfer_cycles(size), op="dram.read")

    def touch_write(self, address: int, size: int,
                    counter: CycleCounter | None = None) -> float:
        """Account a write without storing bytes (cf. :meth:`touch_read`).

        The DRAM contents at ``address`` are left untouched — callers use
        this when nothing reads the stored bytes back (charge-only replays).
        """
        self._locate(address, size)
        self.bytes_written += size
        cycles = self.transfer_cycles(size)
        if counter is not None:
            counter.add_datamove(cycles, op="dram.write")
        return cycles

    def transfer_cycles(self, n_bytes: int, *, interleaved: bool = True) -> float:
        """Cycles (at core clock) to move ``n_bytes`` through the bus.

        ``interleaved`` transfers stripe over the banks they touch: a
        transfer spanning k interleave units uses min(k, 6) channels.
        Non-interleaved (single-bank) transfers always see one channel.
        """
        if interleaved:
            units = max(1, -(-n_bytes // self.BANK_INTERLEAVE_BYTES))
            channels = min(units, self.N_BANKS)
        else:
            channels = 1
        bandwidth = self.chip.dram_bandwidth_bytes_per_s * channels / self.N_BANKS
        return n_bytes / bandwidth * self.chip.clock_hz
