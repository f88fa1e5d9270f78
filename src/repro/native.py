"""The compile-and-cache machinery every native kernel module uses.

This sits at the bottom of the layering (it imports only ``config``) so
that every layer with a C fast path — ``core``'s float64 potential,
``wormhole``'s bfloat16 pack and ``nbody_tt``'s force kernels — shares
one compiler invocation, one flag set and one opt-out switch.

* :func:`compile_library` — compile a C source string into a shared
  library with the project's bit-identity flags (``-ffp-contract=off``,
  no ``-ffast-math``) and cache the resulting ``.so`` on disk keyed by a
  hash of (source, flags, compiler).  Re-imports, other processes and
  repeated test runs reuse the artifact instead of re-invoking the
  compiler.  Any failure returns ``None``; callers fall back to NumPy.
* :func:`native_enabled` — ``REPRO_NATIVE=0`` disables every native
  kernel at once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

from .config import env_flag

__all__ = ["compile_library", "native_enabled"]

#: -ffp-contract=off forbids FMA contraction (would change rounding);
#: -fno-math-errno lets sqrt vectorise while staying correctly rounded.
CFLAGS = [
    "-O3", "-march=native", "-funroll-loops",
    "-fno-math-errno", "-ffp-contract=off",
    "-shared", "-fPIC",
]


def native_enabled() -> bool:
    """False when ``REPRO_NATIVE=0`` (or false/no/off) opts out of all
    compiled kernels; unset or empty means on."""
    return env_flag(os.environ.get("REPRO_NATIVE"), name="REPRO_NATIVE",
                    default=True)


def compile_library(source: str, tag: str) -> ctypes.CDLL | None:
    """Compile ``source`` into a cached shared library; ``None`` on failure.

    The artifact lands in the system temp directory under a name derived
    from the hash of (source, flags, compiler), so identical sources load
    without recompiling — across processes and repeated test runs.  The
    build itself goes to a private temp directory and is moved into place
    atomically, so concurrent compiles never observe a half-written
    library; the directory is removed on every path, failures included.
    """
    cc = os.environ.get("CC", "cc")
    digest = hashlib.sha256(
        "\x00".join([source, " ".join(CFLAGS), cc]).encode()
    ).hexdigest()[:16]
    cached = os.path.join(
        tempfile.gettempdir(), f"repro-native-{tag}-{digest}.so"
    )
    try:
        if os.path.exists(cached):
            return ctypes.CDLL(cached)
    except OSError:
        pass  # stale/corrupt cache entry: rebuild below
    build_dir = tempfile.mkdtemp(prefix=f"repro-native-{tag}-")
    src = os.path.join(build_dir, f"{tag}.c")
    lib = os.path.join(build_dir, f"{tag}.so")
    try:
        with open(src, "w") as fh:
            fh.write(source)
        subprocess.run(
            [cc, *CFLAGS, src, "-o", lib, "-lm"],
            check=True, capture_output=True, timeout=120,
        )
        try:
            os.replace(lib, cached)
            return ctypes.CDLL(cached)
        except OSError:
            # a loaded library stays mapped once its directory is gone
            return ctypes.CDLL(lib)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
