"""Native (C) acceleration for the tilize/pack layer.

The bfloat16 pack kernel — round-to-nearest-even truncation of the FP32
bit pattern, the exact integer twiddle
``(bits + (((bits >> 16) & 1) + 0x7FFF)) & 0xFFFF0000`` that
:func:`repro.wormhole.dtypes._round_to_bfloat16` performs with NumPy.
Pure integer arithmetic, so bit-identity is trivial; the win is one fused
pass instead of four full-array temporaries on the tilize path.  It is
compiled through :func:`repro.native.compile_library`, and
``REPRO_NATIVE=0`` turns it off with every other native kernel.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..native import compile_library, native_enabled

__all__ = ["native_bf16_round"]

_BF16_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Round-to-nearest-even bfloat16 truncation of fp32 bit patterns.
 * Integer-only: identical to the NumPy twiddle in repro.wormhole.dtypes
 * by construction. */
void bf16_round_f32(const float *in, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        uint32_t bits;
        memcpy(&bits, &in[i], sizeof bits);
        uint32_t bias = ((bits >> 16) & 1u) + 0x7FFFu;
        bits = (bits + bias) & 0xFFFF0000u;
        memcpy(&out[i], &bits, sizeof bits);
    }
}
"""

_lock = threading.Lock()
_bf16_fn = None
_bf16_attempted = False


def native_bf16_round(values: np.ndarray) -> np.ndarray | None:
    """bfloat16-round a float32 array natively; ``None`` when unavailable.

    Input must be a float32 ndarray; the result is a fresh float32 array
    bit-identical to the NumPy rounding path.
    """
    global _bf16_fn, _bf16_attempted
    if not native_enabled():
        return None
    if not _bf16_attempted:
        with _lock:
            if not _bf16_attempted:
                lib = compile_library(_BF16_SOURCE, "bf16pack")
                fn = getattr(lib, "bf16_round_f32", None) if lib else None
                if fn is not None:
                    fn.restype = None
                    fn.argtypes = [
                        ctypes.POINTER(ctypes.c_float),
                        ctypes.POINTER(ctypes.c_float),
                        ctypes.c_int64,
                    ]
                _bf16_fn = fn
                _bf16_attempted = True
    if _bf16_fn is None:
        return None
    flat = np.ascontiguousarray(values, dtype=np.float32)
    out = np.empty(flat.size, dtype=np.float32)
    _bf16_fn(
        flat.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
        ctypes.c_int64(flat.size),
    )
    return out.reshape(np.shape(values))
