"""TT-Metalium-style host API entry points.

Free functions named after their TT-Metalium counterparts, so the N-body
port in :mod:`repro.nbody_tt` reads like the paper's host code:

.. code-block:: python

    device = CreateDevice(0)
    queue = GetCommandQueue(device)
    buf = CreateBuffer(device, n_tiles=100)
    program = CreateProgram(core_range=CoreRange(0, 64))
    CreateCircularBuffer(program, cb_id=0, capacity_pages=2)
    CreateKernel(program, "reader", RiscvRole.NC, "data_movement", body)
    EnqueueWriteBuffer(queue, buf, tiles)
    EnqueueProgram(queue, program)
    tiles = EnqueueReadBuffer(queue, buf)
    Finish(queue)
    CloseDevice(device)
"""

from __future__ import annotations

import os
import warnings
from typing import Any

from ..errors import HostApiError
from ..wormhole.device import WormholeDevice
from ..wormhole.dtypes import DataFormat
from ..wormhole.riscv import RiscvRole
from .buffer import DramBuffer
from .command_queue import CommandQueue
from .kernel import CBConfig, CoreRange, KernelSpec, Program

__all__ = [
    "CreateDevice",
    "CloseDevice",
    "GetCommandQueue",
    "CreateBuffer",
    "CreateProgram",
    "CreateKernel",
    "CreateCircularBuffer",
    "SetRuntimeArgs",
    "EnqueueWriteBuffer",
    "EnqueueReadBuffer",
    "EnqueueProgram",
    "Finish",
]

#: Valid values for EnqueueProgram's lint mode / the REPRO_LINT env var.
_LINT_MODES = ("off", "warn", "error")


def CreateDevice(device_id: int = 0, **device_kwargs: Any) -> WormholeDevice:
    """Reset and open a Wormhole device, creating its command queue.

    Propagates :class:`~repro.errors.DeviceResetError` when the reset fault
    injector fires, exactly as the paper's failed jobs did.

    The queue lives on the device object itself (not in a module-level
    registry keyed by ``id(device)``: ids are recycled after garbage
    collection, so a registry could silently hand a dead device's queue to
    a new device).
    """
    device = WormholeDevice(device_id, **device_kwargs)
    device.reset()
    device.open()
    device._command_queue = CommandQueue(device)
    return device


def CloseDevice(device: WormholeDevice) -> None:
    device.close()
    device._command_queue = None


def GetCommandQueue(device: WormholeDevice) -> CommandQueue:
    queue = getattr(device, "_command_queue", None)
    if queue is None:
        raise HostApiError(
            "no command queue: device was not created via CreateDevice "
            "or has been closed"
        )
    return queue


def CreateBuffer(device: WormholeDevice, n_tiles: int,
                 fmt: DataFormat = DataFormat.FLOAT32) -> DramBuffer:
    return DramBuffer(device, n_tiles, fmt)


def CreateProgram(core_range: CoreRange) -> Program:
    return Program(core_range=core_range)


def CreateKernel(program: Program, name: str, role: RiscvRole,
                 kind: str, body) -> KernelSpec:
    spec = KernelSpec(name, role, kind, body)
    program.add_kernel(spec)
    return spec


def CreateCircularBuffer(program: Program, cb_id: int, capacity_pages: int,
                         fmt: DataFormat = DataFormat.FLOAT32) -> CBConfig:
    config = CBConfig(cb_id, capacity_pages, fmt)
    program.add_cb(config)
    return config


def SetRuntimeArgs(program: Program, core_index: int, args: dict[str, Any]) -> None:
    program.set_runtime_args(core_index, args)


def EnqueueWriteBuffer(queue: CommandQueue, buffer: DramBuffer, tiles) -> None:
    queue.enqueue_write_buffer(buffer, tiles)


def EnqueueReadBuffer(queue: CommandQueue, buffer: DramBuffer):
    return queue.enqueue_read_buffer(buffer)


def EnqueueProgram(queue: CommandQueue, program: Program, *,
                   lint: str | None = None,
                   sanitize: bool | None = None) -> float:
    """Dispatch a program, optionally linting it first and/or sanitizing it.

    ``lint`` is ``"off"``, ``"warn"`` (findings become a Python warning), or
    ``"error"`` (error-severity findings raise
    :class:`~repro.errors.LintError` *before* anything executes); ``None``
    defers to the ``REPRO_LINT`` environment variable, defaulting to off.
    ``sanitize`` selects checked execution (see
    :meth:`~repro.metalium.command_queue.CommandQueue.enqueue_program`).
    A linted or sanitized program always executes: it never replays a
    memoised outcome.
    """
    mode = lint if lint is not None else os.environ.get("REPRO_LINT", "off")
    if mode not in _LINT_MODES:
        raise HostApiError(
            f"lint mode must be one of {_LINT_MODES}, got {mode!r}"
        )
    if mode != "off":
        from ..analysis.linter import ProgramLinter

        report = ProgramLinter().lint(program, device=queue.device)
        if queue.trace is not None:
            queue.trace.add_span(
                "lint", 0.0, category="analysis",
                mode=mode, findings=len(report),
            )
        if mode == "error":
            report.raise_on_error()
        if len(report):
            warnings.warn(
                f"program lint findings:\n{report.format()}",
                stacklevel=2,
            )
    return queue.enqueue_program(program, sanitize=sanitize,
                                 linted=mode != "off")


def Finish(queue: CommandQueue) -> float:
    return queue.finish()
