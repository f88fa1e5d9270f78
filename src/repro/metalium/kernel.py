"""Kernel and program descriptions for the metalium layer.

TT-Metalium programs bundle kernels with the core ranges they run on and
the circular buffers they communicate through.  A kernel here is a *factory*
(:class:`KernelSpec`) that, given the Tensix core and per-core runtime
arguments, returns the cooperative generator the scheduler executes —
mirroring how TT-Metalium compiles one kernel source and specialises it per
core with runtime args.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import KernelError
from ..wormhole.dtypes import DataFormat
from ..wormhole.riscv import RiscvRole
from ..wormhole.tensix import TensixCore

__all__ = ["KernelSpec", "CBConfig", "CoreRange", "Program"]

#: A kernel body factory: (core, runtime_args) -> generator.
KernelBody = Callable[[TensixCore, dict[str, Any]], Generator[None, None, None]]


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: name, the RISC-V slot it binds, and its body factory.

    ``kind`` is ``"compute"`` or ``"data_movement"``; the Tensix layer
    enforces the role/kind pairing of the TT-Metalium execution model.
    """

    name: str
    role: RiscvRole
    kind: str
    body: KernelBody

    def __post_init__(self) -> None:
        if self.kind not in ("compute", "data_movement"):
            raise KernelError(
                f"kernel {self.name!r}: kind must be 'compute' or "
                f"'data_movement', got {self.kind!r}"
            )


@dataclass(frozen=True)
class CBConfig:
    """Circular buffer configuration applied per participating core."""

    cb_id: int
    capacity_pages: int
    fmt: DataFormat = DataFormat.FLOAT32

    def __post_init__(self) -> None:
        if self.cb_id < 0:
            raise KernelError(f"cb id must be non-negative, got {self.cb_id}")
        if self.capacity_pages <= 0:
            raise KernelError(
                f"cb {self.cb_id}: capacity_pages must be positive, "
                f"got {self.capacity_pages}"
            )


@dataclass(frozen=True)
class CoreRange:
    """A contiguous range of core indices [start, end) on the device grid."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise KernelError(f"invalid core range [{self.start}, {self.end})")

    def __iter__(self):
        return iter(range(self.start, self.end))

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class Program:
    """Kernels + CB configs + per-core runtime args, ready to enqueue."""

    kernels: list[KernelSpec] = field(default_factory=list)
    cbs: list[CBConfig] = field(default_factory=list)
    core_range: CoreRange = field(default_factory=lambda: CoreRange(0, 1))
    #: per-core runtime arguments, keyed by core index
    runtime_args: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: set by the command queue after first enqueue (compile caching)
    built: bool = False
    #: what the kernel bodies do beyond the fields above: the kernel set
    #: and every parameter their closures bake in.  Only builders of
    #: charge-only programs set it; the command queue then memoises the
    #: program's charges (None: the program always executes)
    replay_key: tuple | None = None
    #: the DRAM buffers those kernels touch: their extents join the memo
    #: key, and a memoised replay checks each one as an access would
    replay_buffers: tuple = ()

    def add_kernel(self, spec: KernelSpec) -> None:
        if any(k.role is spec.role for k in self.kernels):
            raise KernelError(
                f"program already has a kernel on {spec.role.value}"
            )
        self.kernels.append(spec)

    def add_cb(self, config: CBConfig) -> None:
        if any(c.cb_id == config.cb_id for c in self.cbs):
            raise KernelError(f"program already configures cb {config.cb_id}")
        self.cbs.append(config)

    def set_runtime_args(self, core_index: int, args: dict[str, Any]) -> None:
        self.runtime_args[core_index] = args

    def args_for(self, core_index: int) -> dict[str, Any]:
        return self.runtime_args.get(core_index, {})
