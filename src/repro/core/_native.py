"""Optional C kernel behind :func:`repro.core.forces.potential_reference`.

The NumPy path of the potential materialises, for each ``block``-row
slab, a ``(block, n, 3)`` displacement array and several ``(block, n)``
float64 temporaries — at N=8192 that is ~50 MB per slab, swept a dozen
times — and that one function is most of a direct workload's set-up
(two virial scalings plus the energy diagnostics).  This module compiles
(via :func:`repro.native.compile_library`) one fused float64 kernel that
computes each slab's pair terms on the fly and sums them, never storing
more than a 128-element leaf of the summation tree.

The result is bit-identical to the NumPy path, not merely close: the
virial scaling multiplies every position by ``W / -0.5``, so a one-ulp
change in the potential would change every initial condition and,
through the block integrator's round-off-driven timestep levels, the
workload itself.  Bit-identity holds because

* every float64 op is the NumPy path's op, in its order:
  ``dr = pos_j - pos_i``; ``s = (dx*dx + dz*dz) + dy*dy + eps2`` (the
  order NumPy's ``einsum("ijk,ijk->ij")`` reduces a length-3 axis in);
  ``inv_r = 1 / sqrt(s)``, zero on the diagonal;
  ``pair = (m_i * m_j) * inv_r``;
* each slab is reduced with a transcription of NumPy's pairwise-summation
  tree over the slab's flat row-major order — the tree ``pair.sum()``
  applies to a contiguous array — and slab sums are added in order;
* the kernel is compiled with ``-ffp-contract=off`` and without
  ``-ffast-math``, and ``sqrt`` and division are correctly rounded.

Parts of that (the einsum lane order, the reduction tree) are properties
of the installed NumPy and the host's SIMD width rather than of IEEE-754,
so the kernel is **self-tested at load time** against the NumPy path on
seeded systems and disabled on any single-bit mismatch.  No compiler, a
failed self-test, or ``REPRO_NATIVE=0`` all leave the NumPy path in use.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..native import compile_library, native_enabled

__all__ = ["native_pair_sum"]

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define PW_BLOCKSIZE 128

/* One block-row slab of the pair-term matrix: rows row0.. of an (n x n)
 * matrix whose element (i, j) is (m_i * m_j) / sqrt(s_ij), zero on the
 * diagonal, laid out row-major. */
typedef struct {
    const double *x, *y, *z, *m;
    double eps2;
    int64_t n, row0;
} slab_t;

/* Flat elements [f, f + len) of the slab, computed into out[0..len).
 * Op for op the NumPy path of repro.core.forces.potential_reference:
 * dr = pos_j - pos_i; einsum's (dx*dx + dz*dz) + dy*dy, plus eps2;
 * inv_r = 1 / sqrt(s), zeroed on the diagonal; (m_i * m_j) * inv_r. */
static void pair_terms(const slab_t *s, int64_t f, int64_t len,
                       double *restrict out)
{
    const double *restrict x = s->x, *restrict y = s->y;
    const double *restrict z = s->z, *restrict m = s->m;
    const double eps2 = s->eps2;
    const int64_t n = s->n;
    int64_t i = s->row0 + f / n;
    int64_t j = f % n;
    for (int64_t t = 0; t < len; ++i, j = 0) {
        const int64_t seg = (n - j < len - t) ? n - j : len - t;
        const double xi = x[i], yi = y[i], zi = z[i], mi = m[i];
        double *restrict o = out + t;
        for (int64_t c = 0; c < seg; ++c) {
            const double dx = x[j + c] - xi;
            const double dy = y[j + c] - yi;
            const double dz = z[j + c] - zi;
            const double r2 = ((dx * dx + dz * dz) + dy * dy) + eps2;
            const double inv_r = 1.0 / sqrt(r2);
            o[c] = (mi * m[j + c]) * inv_r;
        }
        if (i >= j && i < j + seg) {
            o[i - j] = (mi * m[i]) * 0.0;
        }
        t += seg;
    }
}

/* NumPy's pairwise summation tree (pairwise_sum in
 * numpy/_core/src/umath/loops_utils.h.src), transcribed op for op over
 * the slab's flat elements [f, f + n): blocks of up to 128 elements run
 * the 8-accumulator unrolled loop and combine as
 * ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)); larger ranges split at
 * floor(n/2) rounded down to a multiple of 8 and recurse.  The float32
 * twin is pairwise_sum in repro.nbody_tt._native. */
static double pairwise_sum(const slab_t *s, int64_t f, int64_t n)
{
    if (n > PW_BLOCKSIZE) {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(s, f, n2) + pairwise_sum(s, f + n2, n - n2);
    }
    double a[PW_BLOCKSIZE];
    pair_terms(s, f, n, a);
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i) {
            res += a[i];
        }
        return res;
    }
    double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
    double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
    int64_t i;
    for (i = 8; i < n - (n % 8); i += 8) {
        r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
        r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
    }
    double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; i < n; ++i) {
        res += a[i];
    }
    return res;
}

/* Sum of every pair term (each pair counted twice), slab by slab of
 * `block` rows, slab sums added in ascending order. */
double potential_pair_sum_f64(
    const double *x, const double *y, const double *z, const double *m,
    int64_t n, double eps2, int64_t block)
{
    double total = 0.0;
    for (int64_t row0 = 0; row0 < n; row0 += block) {
        const int64_t rows = (n - row0 < block) ? n - row0 : block;
        const slab_t s = {x, y, z, m, eps2, n, row0};
        total += pairwise_sum(&s, 0, rows * n);
    }
    return total;
}
"""

_F64P = ctypes.POINTER(ctypes.c_double)

_lock = threading.Lock()
_kernel = None
_load_attempted = False


def _call(fn, pos: np.ndarray, mass: np.ndarray, eps2: float,
          block: int) -> float:
    cols = [np.ascontiguousarray(pos[:, k], dtype=np.float64)
            for k in range(3)]
    cols.append(np.ascontiguousarray(mass, dtype=np.float64))
    return fn(
        *[c.ctypes.data_as(_F64P) for c in cols],
        ctypes.c_int64(mass.shape[0]), ctypes.c_double(eps2),
        ctypes.c_int64(block),
    )


def _self_test(fn) -> bool:
    """Bitwise check of the kernel against the NumPy path.

    Seeded systems cover a single-element tree leaf, slabs shorter than
    one summation block, leaves that straddle rows, multi-level trees,
    a ragged last slab, both softening regimes, unequal masses and
    coordinates from 1e-3 to 1e3.
    """
    from .forces import _pair_sum_numpy

    rng = np.random.default_rng(20250601)
    cases = [(2, 256), (9, 7), (33, 4), (130, 64), (300, 256), (257, 100)]
    for trial, (n, block) in enumerate(cases):
        for eps2 in (0.0, 1e-4):
            pos = rng.standard_normal((n, 3)) * 10.0 ** (trial % 7 - 3)
            mass = rng.uniform(0.1, 2.0, n) / n
            want = _pair_sum_numpy(pos, mass, eps2, block)
            if _call(fn, pos, mass, eps2, block) != want:
                return False
    return True


def _load():
    global _kernel, _load_attempted
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            lib = compile_library(_C_SOURCE, "potential")
            fn = getattr(lib, "potential_pair_sum_f64", None) if lib else None
            if fn is not None:
                fn.restype = ctypes.c_double
                fn.argtypes = [_F64P] * 4 + [
                    ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
                ]
                if not _self_test(fn):
                    fn = None
            _kernel = fn
    return _kernel


def native_pair_sum(pos: np.ndarray, mass: np.ndarray, eps2: float,
                    block: int) -> float | None:
    """The potential's pair-term sum, bit-identical to the NumPy path;
    ``None`` when the kernel is disabled, unavailable or failed its
    load-time self-test.  ``pos``/``mass`` must be float64."""
    if not native_enabled():
        return None
    fn = _load()
    return None if fn is None else _call(fn, pos, mass, eps2, block)
