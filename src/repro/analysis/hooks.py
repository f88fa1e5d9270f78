"""Sanitizer hook registry: the one global the low-level layers consult.

The runtime sanitizer (:mod:`repro.analysis.sanitizer`) wraps circular
buffers, the L1 allocator, and DRAM buffers with hazard detection.  The
device layers cannot import the sanitizer directly (that would invert the
layering), so instead they check this module's single slot on their hot
paths::

    ctx = hooks.active()
    if ctx is not None:
        ctx.on_tile_write(self, tile_index)

When no sanitizer is installed the check is one module-attribute read and
an ``is None`` comparison — the zero-overhead-when-disabled contract.

``REPRO_SANITIZE=1`` in the environment installs a process-wide ambient
context when the first DRAM buffer is created or the first program is
enqueued (:func:`ambient`), so every buffer is tracked from birth and
every enqueued program runs sanitized.  The variable is parsed there, not
at import, so a malformed value fails that call instead of
``import repro``.  Explicit per-call sanitizing
(``EnqueueProgram(..., sanitize=True)`` or ``with SanitizerContext():
...``) installs a context temporarily.

This module must stay import-light: it is imported by
:mod:`repro.metalium.buffer` and :mod:`repro.metalium.command_queue`, and
only pulls the sanitizer in when the environment asks for it.
"""

from __future__ import annotations

import os
import threading

__all__ = ["active", "ambient", "install", "uninstall",
           "env_sanitize_enabled"]

#: The active sanitizer context, or None.  Read on device-layer hot paths.
_active = None
#: True once :func:`ambient` has parsed ``REPRO_SANITIZE``.
_env_read = False
_env_lock = threading.Lock()


def active():
    """The installed :class:`SanitizerContext`, or None when disabled."""
    return _active


def install(ctx) -> None:
    """Make ``ctx`` the process-wide active sanitizer context."""
    global _active
    _active = ctx


def uninstall(ctx) -> None:
    """Remove ``ctx`` if it is the active context (no-op otherwise)."""
    global _active
    if _active is ctx:
        _active = None


def env_sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests process-wide sanitizing."""
    from ..config import env_flag

    return env_flag(os.environ.get("REPRO_SANITIZE"), name="REPRO_SANITIZE")


def ambient():
    """:func:`active`, after installing the ambient context that
    ``REPRO_SANITIZE=1`` asks for.

    The variable is parsed on the first call only; a malformed value
    raises :class:`~repro.errors.ConfigurationError` on every call until
    it is fixed.
    """
    global _env_read
    if not _env_read:
        with _env_lock:
            if not _env_read:
                if env_sanitize_enabled() and _active is None:
                    from .sanitizer import SanitizerContext

                    install(SanitizerContext(ambient=True))
                _env_read = True
    return _active
