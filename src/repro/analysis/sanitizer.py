"""The runtime sanitizer: checked execution for device programs.

The linter proves properties of a program *before* dispatch; the
sanitizer watches the program *while it runs*.  In sanitized mode the
command queue builds each core's circular buffers as
:class:`SanitizedCircularBuffer` s, proxies the core's L1 allocator, and
wraps every kernel generator so each hazard is attributed to the kernel
and core that caused it.  DRAM buffers report their per-tile reads and
writes through :mod:`repro.analysis.hooks`, giving read-before-write
detection for every buffer created while a context is installed.

Hazard classes (stable ``kind`` strings):

* ``push-without-reserve`` — CB page written or pushed without a matching
  ``reserve_back``;
* ``pop-beyond-available`` — ``pop_front``/``get_page`` past the visible
  pages (a ``wait_front`` was skipped or undersized);
* ``cross-core-cb-access`` — a kernel touches a CB owned by a different
  core, or by a core outside the running program's core range;
* ``dram-read-before-write`` — a kernel reads a DRAM tile no host upload
  or kernel ever wrote;
* ``l1-double-free`` — an L1 allocation freed twice (or a free of a
  foreign allocation);
* ``l1-leak`` — an L1 allocation made during the program that is still
  live after the program's CBs are torn down.

Hazards accumulate in a :class:`SanitizerReport`; in halting mode
(default) the first hazard raises :class:`~repro.errors.SanitizerError`.
With no context installed every hook collapses to an ``is None`` check —
the sanitizer costs nothing when disabled.

Enable it with ``REPRO_SANITIZE=1`` (process-wide, ambient),
``EnqueueProgram(queue, program, sanitize=True)`` (one dispatch), or::

    with SanitizerContext(halt=False) as ctx:
        EnqueueProgram(queue, program)
    print(ctx.report.format())
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Generator
from dataclasses import dataclass

from ..errors import AllocationError, SanitizerError
from ..wormhole.circular_buffer import CircularBuffer
from ..wormhole.tile import Tile
from . import hooks

__all__ = ["Hazard", "SanitizerReport", "SanitizerContext",
           "SanitizedCircularBuffer", "HAZARD_KINDS"]

#: The stable hazard taxonomy (kind -> one-line description).
HAZARD_KINDS: dict[str, str] = {
    "push-without-reserve": "CB write/push without a matching reserve_back",
    "pop-beyond-available": "CB pop/peek past the pages made visible",
    "cross-core-cb-access": "CB access from a foreign or out-of-range core",
    "dram-read-before-write": "DRAM tile read before any write reached it",
    "l1-double-free": "L1 allocation freed twice",
    "l1-leak": "L1 allocation leaked past program teardown",
}


@dataclass(frozen=True)
class Hazard:
    """One detected violation, attributed to its program location."""

    kind: str
    message: str
    core: int | None = None
    kernel: str | None = None
    cb_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in HAZARD_KINDS:
            raise ValueError(f"unknown hazard kind {self.kind!r}")

    def format(self) -> str:
        parts = []
        if self.core is not None:
            parts.append(f"core {self.core}")
        if self.kernel is not None:
            parts.append(f"kernel {self.kernel!r}")
        if self.cb_id is not None:
            parts.append(f"cb {self.cb_id}")
        loc = f" [{', '.join(parts)}]" if parts else ""
        return f"{self.kind}{loc}: {self.message}"


class SanitizerReport:
    """Accumulated hazards of one sanitized execution."""

    def __init__(self) -> None:
        self.hazards: list[Hazard] = []

    @property
    def ok(self) -> bool:
        return not self.hazards

    def kinds(self) -> set[str]:
        return {h.kind for h in self.hazards}

    def __len__(self) -> int:
        return len(self.hazards)

    def __iter__(self):
        return iter(self.hazards)

    def format(self) -> str:
        if not self.hazards:
            return "sanitizer: clean"
        return "\n".join(h.format() for h in self.hazards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SanitizerReport(hazards={len(self.hazards)})"


class _ThreadState(threading.local):
    """What one host thread is executing.  Card threads (a threaded
    :class:`~repro.backends.sharded.ShardedTTBackend`) share one context,
    each running its own program."""

    #: (core_index, kernel_name) currently executing, for attribution
    current: tuple[int, str] | None = None
    #: core indices of the running program (None outside programs)
    active_cores: set[int] | None = None


class SanitizerContext:
    """Hazard collector + the knobs for one sanitized execution scope.

    Usable as a context manager: entering installs it in
    :mod:`~repro.analysis.hooks` (so DRAM buffers created inside the scope
    are tracked and sanitized programs pick it up), leaving uninstalls it.
    The ambient context ``REPRO_SANITIZE=1`` installs at the first DRAM
    buffer stays installed for the process lifetime.
    """

    def __init__(self, *, halt: bool = True, ambient: bool = False) -> None:
        self.halt = halt
        self.ambient = ambient
        self.report = SanitizerReport()
        #: the running program and kernel, per host thread
        self.thread = _ThreadState()
        #: per-DRAM-buffer sets of tile indices that were ever written
        self._written: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._prev: "SanitizerContext | None" = None

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SanitizerContext":
        self._prev = hooks.active()
        hooks.install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        hooks.uninstall(self)
        if self._prev is not None:
            hooks.install(self._prev)
            self._prev = None

    # -- hazard recording ---------------------------------------------------

    def hazard(self, kind: str, message: str, *, core: int | None = None,
               kernel: str | None = None, cb_id: int | None = None) -> None:
        """Record one hazard; raise immediately when halting."""
        current = self.thread.current
        if core is None and current is not None:
            core = current[0]
        if kernel is None and current is not None:
            kernel = current[1]
        hazard = Hazard(kind, message, core=core, kernel=kernel, cb_id=cb_id)
        self.report.hazards.append(hazard)
        if self.halt:
            raise SanitizerError(
                f"sanitizer hazard: {hazard.format()}", hazard=hazard
            )

    # -- program scope (driven by the command queue) ------------------------

    def begin_program(self, program) -> None:
        self.thread.active_cores = set(program.core_range)

    def end_program(self, program) -> None:
        self.thread.active_cores = None
        self.thread.current = None

    def create_cb(self, core, config) -> "SanitizedCircularBuffer":
        """Build one sanitized CB on ``core`` (registered and L1-backed)."""
        cb = SanitizedCircularBuffer(
            config.cb_id, config.capacity_pages, config.fmt,
            l1=core.l1, events=core.events, counter=core.counter,
            costs=core.costs, owner=core.core_id, sanitizer=self,
        )
        return core.adopt_cb(cb)

    def wrap_kernel(self, name: str, core_index: int, body_factory):
        """Wrap a kernel factory so each step is attributed to it."""

        def traced_factory(core) -> Generator[None, None, None]:
            inner = body_factory(core)

            def traced() -> Generator[None, None, None]:
                while True:
                    self.thread.current = (core_index, name)
                    try:
                        next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.thread.current = None
                    yield

            return traced()

        return traced_factory

    def l1_guard(self, core) -> "SanitizedL1":
        return SanitizedL1(core.l1, self, core.core_id)

    # -- DRAM tile tracking (called from repro.metalium.buffer hooks) --------

    def on_buffer_created(self, buffer) -> None:
        self._written[buffer] = set()

    def on_buffer_written(self, buffer) -> None:
        """A full host-side write: every tile now holds valid data."""
        if buffer in self._written:
            self._written[buffer] = set(range(buffer.n_tiles))

    def on_tile_write(self, buffer, tile_index: int) -> None:
        written = self._written.get(buffer)
        if written is not None:
            written.add(tile_index)

    def on_tile_read(self, buffer, tile_index: int) -> None:
        """NoC tile read: hazard when the tile was never written.

        Only buffers whose creation this context observed are checked —
        a buffer created before the sanitizer was installed has unknown
        provenance and is conservatively trusted.
        """
        written = self._written.get(buffer)
        if written is not None and tile_index not in written:
            self.hazard(
                "dram-read-before-write",
                f"tile {tile_index} of a {buffer.n_tiles}-tile "
                f"{buffer.fmt.value} DRAM buffer is read but was never "
                f"written",
            )


class SanitizedCircularBuffer(CircularBuffer):
    """A circular buffer that attributes protocol violations as hazards.

    Checks run *before* delegating to the real implementation, so the
    hazard (with kernel/core attribution) is reported even though the
    base class would also raise.  In non-halting mode each violation is
    additionally *repaired* (the missing reservation granted, the missing
    pages substituted with zero tiles) so the program can keep running and
    surface further hazards in the same pass.
    """

    def __init__(self, *args, owner: int | None = None,
                 sanitizer: SanitizerContext, **kwargs) -> None:
        super().__init__(*args, owner=owner, **kwargs)
        self._san = sanitizer

    # -- common checks ------------------------------------------------------

    def _check_core_access(self) -> None:
        ctx = self._san
        if self.owner is None:
            return
        current, active_cores = ctx.thread.current, ctx.thread.active_cores
        if current is not None and current[0] != self.owner:
            ctx.hazard(
                "cross-core-cb-access",
                f"kernel running on core {current[0]} accesses cb "
                f"{self.cb_id} owned by core {self.owner}",
                cb_id=self.cb_id,
            )
        elif active_cores is not None and self.owner not in active_cores:
            ctx.hazard(
                "cross-core-cb-access",
                f"cb {self.cb_id} on core {self.owner} accessed while the "
                f"running program's core range excludes that core",
                cb_id=self.cb_id,
            )

    # -- producer side ------------------------------------------------------

    def reserve_back(self, n_pages: int):
        self._check_core_access()
        return super().reserve_back(n_pages)

    def try_reserve_back(self, n_pages: int) -> bool:
        self._check_core_access()
        return super().try_reserve_back(n_pages)

    def write_page(self, tile) -> None:
        self._check_core_access()
        if self._reserved <= 0:
            self._san.hazard(
                "push-without-reserve",
                f"page written to cb {self.cb_id} with no reserved space "
                f"(reserve_back was skipped or undersized)",
                cb_id=self.cb_id,
            )
            self._reserved += 1  # non-halting: grant the reservation
        super().write_page(tile)

    def write_pages(self, tiles) -> None:
        self._check_core_access()
        tiles = list(tiles)
        deficit = len(tiles) - self._reserved
        if deficit > 0:
            self._san.hazard(
                "push-without-reserve",
                f"{len(tiles)} pages written to cb {self.cb_id} with only "
                f"{self._reserved} reserved",
                cb_id=self.cb_id,
            )
            self._reserved += deficit
        super().write_pages(tiles)

    def push_back(self, n_pages: int) -> None:
        self._check_core_access()
        if len(self._staged) < n_pages:
            self._san.hazard(
                "push-without-reserve",
                f"push_back({n_pages}) on cb {self.cb_id} with only "
                f"{len(self._staged)} staged pages written",
                cb_id=self.cb_id,
            )
            n_pages = len(self._staged)  # non-halting: push what exists
            if n_pages == 0:
                return
        super().push_back(n_pages)

    # -- consumer side ------------------------------------------------------

    def wait_front(self, n_pages: int):
        self._check_core_access()
        return super().wait_front(n_pages)

    def try_wait_front(self, n_pages: int) -> bool:
        self._check_core_access()
        return super().try_wait_front(n_pages)

    def get_page(self, index: int = 0):
        self._check_core_access()
        if index >= self.pages_available():
            self._san.hazard(
                "pop-beyond-available",
                f"peek at page {index} of cb {self.cb_id} with only "
                f"{self.pages_available()} pages visible",
                cb_id=self.cb_id,
            )
            return Tile.zeros(self.fmt)  # non-halting: placeholder page
        return super().get_page(index)

    def pop_front(self, n_pages: int):
        self._check_core_access()
        available = self.pages_available()
        if available < n_pages:
            self._san.hazard(
                "pop-beyond-available",
                f"pop_front({n_pages}) on cb {self.cb_id} with only "
                f"{available} pages visible (wait_front skipped or "
                f"undersized)",
                cb_id=self.cb_id,
            )
            # non-halting: hand back what exists, padded with zero tiles
            out = super().pop_front(available) if available else []
            return out + [Tile.zeros(self.fmt)] * (n_pages - available)
        return super().pop_front(n_pages)


class SanitizedL1:
    """Proxy over a core's :class:`L1Allocator` for one sanitized program.

    Tracks allocations made while the program runs: a second free of the
    same allocation is an ``l1-double-free`` hazard, and allocations still
    live at program teardown are ``l1-leak`` hazards.  All other
    attributes delegate to the real allocator.
    """

    def __init__(self, inner, ctx: SanitizerContext, core_id: int) -> None:
        self._inner = inner
        self._ctx = ctx
        self._core_id = core_id
        self._live_during: dict[int, object] = {}

    def allocate(self, size: int):
        alloc = self._inner.allocate(size)
        self._live_during[alloc.offset] = alloc
        return alloc

    def free(self, alloc) -> None:
        try:
            self._inner.free(alloc)
        except AllocationError:
            current = self._ctx.thread.current
            self._ctx.hazard(
                "l1-double-free",
                f"free of L1 allocation at offset {alloc.offset} "
                f"({alloc.size} B) on core {self._core_id} which is not "
                f"live (double free or foreign allocation)",
                core=current[0] if current else self._core_id,
            )
            return
        self._live_during.pop(alloc.offset, None)

    def check_leaks(self) -> None:
        """Report allocations made during the program that are still live."""
        leaked = sorted(self._live_during)
        if leaked:
            total = sum(a.size for a in self._live_during.values())
            self._ctx.hazard(
                "l1-leak",
                f"{len(leaked)} L1 allocation(s) totalling {total} B on "
                f"core {self._core_id} were never freed by program "
                f"teardown",
                core=self._core_id,
            )

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
