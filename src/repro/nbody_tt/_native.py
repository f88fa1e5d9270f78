"""Optional C acceleration for the batched block-dispatch engine.

The fp32 force math is ~35 IEEE-rounded elementwise passes per particle
pair.  NumPy executes each pass as a separate memory sweep, which caps the
functional simulator at a few Gelem/s on one host core.  This module
compiles (once per machine, cached on disk by source hash — see
:func:`repro.native.compile_library`) a family of fused kernels:

* ``nbody_chunk_f32`` — one fused elementwise pass over an
  (i-rows x j-stream) chunk, emitting the six per-pair product arrays the
  engine then reduces *with NumPy itself*;
* ``nbody_tile_f32`` — the chunk kernel with the reduction fused in: the
  products for each 1024-column j-tile stay in an L1-resident buffer and
  are reduced with a C transcription of **NumPy's own pairwise-summation
  tree**, then accumulated in ascending j-tile order — exactly the
  arithmetic of ``BatchedDispatchEngine._reduce_f32``.  This removes the
  dominant remaining cost of the fp32 path (writing and re-reading
  ~25 GB of product arrays per N=32k evaluation);
* ``nbody_ds_pairs_f64`` — the double-single ablation's pairwise product
  matrices, every primitive the same error-free transformation (Knuth
  two-sum, FMA two-product) in the same order as
  :mod:`repro.wormhole.double_single`.

Bit-identity is guaranteed rather than hoped for:

* every C operation is the same IEEE-754 op, in the same order, as the
  NumPy expression it replaces (left-associative sums, explicit
  parentheses);
* kernels are compiled with ``-ffp-contract=off`` (no FMA contraction
  outside explicit ``fmaf`` calls) and without ``-ffast-math``, so each
  op rounds once, exactly like NumPy;
* ``sqrtf`` and division are IEEE correctly-rounded on every target, so
  vectorisation cannot change results;
* the fused reduction replicates NumPy's pairwise tree (the 8-accumulator
  unrolled block of ``numpy/core/src/umath/loops.c.src``) and is
  **self-tested at load time** against ``np.sum`` — on any mismatch the
  fused kernel is disabled and the engine falls back to the chunk kernel
  with NumPy-owned reductions.

The dependency is soft: no compiler (or ``REPRO_NATIVE=0``) means every
caller silently falls back to its pure-NumPy path, which is slower but
equally bit-identical.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..native import compile_library, native_enabled

__all__ = [
    "native_force_kernel",
    "native_tile_kernel",
    "native_ds_kernel",
    "native_pairwise_sum",
    "native_available",
]

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define TILE 1024
#define PW_BLOCKSIZE 128

/* NumPy's pairwise summation tree (numpy/core/src/umath/loops.c.src,
 * pairwise_sum_@TYPE@), transcribed op for op: blocks of up to 128
 * elements run the 8-accumulator unrolled loop and combine as
 * ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)); larger inputs split at
 * floor(n/2) rounded down to a multiple of 8 and recurse.  The Python
 * side verifies this against np.sum bit-for-bit at load time. */
static float pairwise_sum(const float *a, int64_t n)
{
    if (n < 8) {
        float res = 0.0f;
        for (int64_t i = 0; i < n; ++i) {
            res += a[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        float r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        float r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        float res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; ++i) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

float pairwise_sum_f32(const float *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* One fused pass over a (rows x cols) chunk of the pairwise interaction
 * matrix.  Scalars per i-row, streams per j-column; writes the six product
 * arrays (acc x/y/z, jerk x/y/z) that the caller reduces along j.
 *
 * Operation order matches repro.nbody_tt.force_kernel._force_block_fp32
 * exactly; compiled with -ffp-contract=off so nothing fuses or reorders.
 * restrict is what lets gcc vectorise the inner loop (the 19 pointers are
 * provably distinct NumPy buffers); vector sqrt/div stay correctly rounded,
 * so lane-wise results are bit-identical to the scalar loop.
 * diag0 is the j-column of row 0's self-interaction (-1 when this chunk
 * holds no diagonal): those lanes are zeroed afterwards, mirroring the
 * reference's fill_diagonal(rinv, 0) which annihilates all six products.
 */
void nbody_chunk_f32(
    const float *restrict xi, const float *restrict yi,
    const float *restrict zi, const float *restrict vxi,
    const float *restrict vyi, const float *restrict vzi,
    const float *restrict mj, const float *restrict xj,
    const float *restrict yj, const float *restrict zj,
    const float *restrict vxj, const float *restrict vyj,
    const float *restrict vzj,
    float eps2, int64_t rows, int64_t cols, int64_t diag0,
    float *restrict ax, float *restrict ay, float *restrict az,
    float *restrict jx, float *restrict jy, float *restrict jz)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float xr = xi[r], yr = yi[r], zr = zi[r];
        const float vxr = vxi[r], vyr = vyi[r], vzr = vzi[r];
        float *axr = ax + r * cols, *ayr = ay + r * cols, *azr = az + r * cols;
        float *jxr = jx + r * cols, *jyr = jy + r * cols, *jzr = jz + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
            const float dx = xj[c] - xr;
            const float dy = yj[c] - yr;
            const float dz = zj[c] - zr;
            const float dvx = vxj[c] - vxr;
            const float dvy = vyj[c] - vyr;
            const float dvz = vzj[c] - vzr;
            const float r2 = ((dx * dx + dy * dy) + dz * dz) + eps2;
            const float rinv = 1.0f / sqrtf(r2);
            const float rinv2 = rinv * rinv;
            const float rinv3 = rinv2 * rinv;
            const float mr3 = mj[c] * rinv3;
            const float rv = (dx * dvx + dy * dvy) + dz * dvz;
            const float alpha = (3.0f * rv) * rinv2;
            axr[c] = mr3 * dx;
            ayr[c] = mr3 * dy;
            azr[c] = mr3 * dz;
            jxr[c] = mr3 * (dvx - alpha * dx);
            jyr[c] = mr3 * (dvy - alpha * dy);
            jzr[c] = mr3 * (dvz - alpha * dz);
        }
        if (diag0 >= 0) {
            const int64_t c = diag0 + r;
            if (c >= 0 && c < cols) {
                axr[c] = 0.0f; ayr[c] = 0.0f; azr[c] = 0.0f;
                jxr[c] = 0.0f; jyr[c] = 0.0f; jzr[c] = 0.0f;
            }
        }
    }
}

/* The chunk kernel with the per-tile reduction fused in.  Products for
 * each 1024-column j-tile stay in an L1-resident buffer and reduce with
 * pairwise_sum (NumPy's tree); partial sums accumulate into the caller's
 * per-row accumulators in ascending j-tile order — the arithmetic of
 * BatchedDispatchEngine._reduce_f32, without ever materialising the
 * (rows x cols) product matrices.  cols must be a multiple of 1024; the
 * six accumulators hold `rows` values and carry the running totals
 * (callers pass zeros). */
void nbody_tile_f32(
    const float *restrict xi, const float *restrict yi,
    const float *restrict zi, const float *restrict vxi,
    const float *restrict vyi, const float *restrict vzi,
    const float *restrict mj, const float *restrict xj,
    const float *restrict yj, const float *restrict zj,
    const float *restrict vxj, const float *restrict vyj,
    const float *restrict vzj,
    float eps2, int64_t rows, int64_t cols, int64_t diag0,
    float *restrict ax, float *restrict ay, float *restrict az,
    float *restrict jx, float *restrict jy, float *restrict jz)
{
    float bax[TILE], bay[TILE], baz[TILE];
    float bjx[TILE], bjy[TILE], bjz[TILE];
    for (int64_t r = 0; r < rows; ++r) {
        const float xr = xi[r], yr = yi[r], zr = zi[r];
        const float vxr = vxi[r], vyr = vyi[r], vzr = vzi[r];
        float sax = ax[r], say = ay[r], saz = az[r];
        float sjx = jx[r], sjy = jy[r], sjz = jz[r];
        for (int64_t t0 = 0; t0 < cols; t0 += TILE) {
            const float *mjt = mj + t0;
            const float *xjt = xj + t0, *yjt = yj + t0, *zjt = zj + t0;
            const float *vxjt = vxj + t0, *vyjt = vyj + t0, *vzjt = vzj + t0;
            for (int64_t c = 0; c < TILE; ++c) {
                const float dx = xjt[c] - xr;
                const float dy = yjt[c] - yr;
                const float dz = zjt[c] - zr;
                const float dvx = vxjt[c] - vxr;
                const float dvy = vyjt[c] - vyr;
                const float dvz = vzjt[c] - vzr;
                const float r2 = ((dx * dx + dy * dy) + dz * dz) + eps2;
                const float rinv = 1.0f / sqrtf(r2);
                const float rinv2 = rinv * rinv;
                const float rinv3 = rinv2 * rinv;
                const float mr3 = mjt[c] * rinv3;
                const float rv = (dx * dvx + dy * dvy) + dz * dvz;
                const float alpha = (3.0f * rv) * rinv2;
                bax[c] = mr3 * dx;
                bay[c] = mr3 * dy;
                baz[c] = mr3 * dz;
                bjx[c] = mr3 * (dvx - alpha * dx);
                bjy[c] = mr3 * (dvy - alpha * dy);
                bjz[c] = mr3 * (dvz - alpha * dz);
            }
            if (diag0 >= 0) {
                const int64_t dc = diag0 + r - t0;
                if (dc >= 0 && dc < TILE) {
                    bax[dc] = 0.0f; bay[dc] = 0.0f; baz[dc] = 0.0f;
                    bjx[dc] = 0.0f; bjy[dc] = 0.0f; bjz[dc] = 0.0f;
                }
            }
            sax = sax + pairwise_sum(bax, TILE);
            say = say + pairwise_sum(bay, TILE);
            saz = saz + pairwise_sum(baz, TILE);
            sjx = sjx + pairwise_sum(bjx, TILE);
            sjy = sjy + pairwise_sum(bjy, TILE);
            sjz = sjz + pairwise_sum(bjz, TILE);
        }
        ax[r] = sax; ay[r] = say; az[r] = saz;
        jx[r] = sjx; jy[r] = sjy; jz[r] = sjz;
    }
}

/* ---- double-single (compensated float32-pair) primitives -------------
 * Transcriptions of repro.wormhole.double_single: every intermediate is
 * the same IEEE fp32 op in the same order.  The FMA in ds_mul is the one
 * place an explicit fused op is *required*: fmaf(a, b, -p) equals the
 * NumPy module's float64 detour exactly (a*b is exact in double; the
 * error term rounds once either way). */

typedef struct { float hi, lo; } ds_t;

static inline ds_t ds_quick_two_sum(float a, float b)
{
    ds_t r;
    r.hi = a + b;
    r.lo = b - (r.hi - a);
    return r;
}

static inline ds_t ds_add(ds_t x, ds_t y)
{
    const float s = x.hi + y.hi;
    const float bb = s - x.hi;
    float err = (x.hi - (s - bb)) + (y.hi - bb);
    err = (err + x.lo) + y.lo;
    return ds_quick_two_sum(s, err);
}

static inline ds_t ds_neg(ds_t x)
{
    ds_t r;
    r.hi = -x.hi;
    r.lo = -x.lo;
    return r;
}

static inline ds_t ds_sub(ds_t x, ds_t y)
{
    return ds_add(x, ds_neg(y));
}

static inline ds_t ds_mul(ds_t x, ds_t y)
{
    const float p = x.hi * y.hi;
    float err = fmaf(x.hi, y.hi, -p);
    err = (err + x.hi * y.lo) + x.lo * y.hi;
    return ds_quick_two_sum(p, err);
}

static inline ds_t ds_from_f64(double v)
{
    ds_t r;
    r.hi = (float)v;
    r.lo = (float)(v - (double)r.hi);
    return r;
}

static inline ds_t ds_rsqrt(ds_t x)
{
    ds_t y;
    y.hi = 1.0f / sqrtf(x.hi);
    y.lo = 0.0f;
    const ds_t half = {0.5f, 0.0f};
    const ds_t three_half = {1.5f, 0.0f};
    const ds_t half_x = ds_mul(x, half);
    for (int k = 0; k < 2; ++k) {
        const ds_t y2 = ds_mul(y, y);
        const ds_t corr = ds_sub(three_half, ds_mul(half_x, y2));
        y = ds_mul(y, corr);
    }
    return y;
}

/* The DS ablation's pairwise chain (repro.nbody_tt.ds_variant), emitting
 * the six n x n float64 product matrices (to_float64 of each DS product);
 * the caller reduces them with NumPy's sum(axis=1), exactly as the
 * Python path does.  softened == 0 masks the diagonal on the seed
 * reciprocal, as the Python path does. */
void nbody_ds_pairs_f64(
    const double *restrict px, const double *restrict py,
    const double *restrict pz, const double *restrict vx,
    const double *restrict vy, const double *restrict vz,
    const double *restrict m,
    double eps2, int32_t softened, int64_t n,
    double *restrict pax, double *restrict pay, double *restrict paz,
    double *restrict pjx, double *restrict pjy, double *restrict pjz)
{
    const ds_t eps_ds = ds_from_f64(eps2);
    const ds_t three = {3.0f, 0.0f};
    for (int64_t i = 0; i < n; ++i) {
        const ds_t xi = ds_from_f64(px[i]), yi = ds_from_f64(py[i]);
        const ds_t zi = ds_from_f64(pz[i]);
        const ds_t vxi = ds_from_f64(vx[i]), vyi = ds_from_f64(vy[i]);
        const ds_t vzi = ds_from_f64(vz[i]);
        for (int64_t j = 0; j < n; ++j) {
            const ds_t dx = ds_sub(ds_from_f64(px[j]), xi);
            const ds_t dy = ds_sub(ds_from_f64(py[j]), yi);
            const ds_t dz = ds_sub(ds_from_f64(pz[j]), zi);
            const ds_t dvx = ds_sub(ds_from_f64(vx[j]), vxi);
            const ds_t dvy = ds_sub(ds_from_f64(vy[j]), vyi);
            const ds_t dvz = ds_sub(ds_from_f64(vz[j]), vzi);
            ds_t r2 = ds_add(
                ds_add(ds_mul(dx, dx), ds_mul(dy, dy)), ds_mul(dz, dz));
            if (softened) {
                r2 = ds_add(r2, eps_ds);
            } else if (i == j) {
                r2.hi = 1.0f;
            }
            ds_t rinv = ds_rsqrt(r2);
            if (!softened && i == j) {
                rinv.hi = 0.0f;
                rinv.lo = 0.0f;
            }
            const ds_t rinv2 = ds_mul(rinv, rinv);
            const ds_t rinv3 = ds_mul(rinv2, rinv);
            const ds_t mr3 = ds_mul(ds_from_f64(m[j]), rinv3);
            const ds_t rv = ds_add(
                ds_add(ds_mul(dx, dvx), ds_mul(dy, dvy)), ds_mul(dz, dvz));
            const ds_t alpha = ds_mul(ds_mul(rv, three), rinv2);
            const int64_t idx = i * n + j;
            ds_t t;
            t = ds_mul(mr3, dx);
            pax[idx] = (double)t.hi + (double)t.lo;
            t = ds_mul(mr3, dy);
            pay[idx] = (double)t.hi + (double)t.lo;
            t = ds_mul(mr3, dz);
            paz[idx] = (double)t.hi + (double)t.lo;
            t = ds_mul(mr3, ds_sub(dvx, ds_mul(alpha, dx)));
            pjx[idx] = (double)t.hi + (double)t.lo;
            t = ds_mul(mr3, ds_sub(dvy, ds_mul(alpha, dy)));
            pjy[idx] = (double)t.hi + (double)t.lo;
            t = ds_mul(mr3, ds_sub(dvz, ds_mul(alpha, dz)));
            pjz[idx] = (double)t.hi + (double)t.lo;
        }
    }
}
"""

_lock = threading.Lock()
_kernels: "_KernelSet | None" = None
_load_attempted = False

_F32P = ctypes.POINTER(ctypes.c_float)
_F64P = ctypes.POINTER(ctypes.c_double)


def _float_ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_F32P)


def _double_ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_F64P)


class _NativeKernel:
    """ctypes wrapper around the compiled fused chunk kernel."""

    def __init__(self, fn) -> None:
        fn.restype = None
        fn.argtypes = (
            [_F32P] * 13
            + [ctypes.c_float, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]
            + [_F32P] * 6
        )
        self._fn = fn

    def __call__(self, i_arrs, j_arrs, eps2, rows, cols, diag0, out_arrs):
        """i_arrs: 6 row-scalars; j_arrs: 7 column streams; out: 6 products."""
        self._fn(
            *[_float_ptr(a) for a in i_arrs],
            *[_float_ptr(a) for a in j_arrs],
            ctypes.c_float(eps2),
            ctypes.c_int64(rows), ctypes.c_int64(cols), ctypes.c_int64(diag0),
            *[_float_ptr(a) for a in out_arrs],
        )


class _TileKernel(_NativeKernel):
    """Same call shape as the chunk kernel; ``out_arrs`` are the six
    per-row accumulators (length ``rows``) instead of product matrices,
    and ``cols`` must be a multiple of 1024."""


class _DSKernel:
    """ctypes wrapper around the double-single pair-products kernel."""

    def __init__(self, fn) -> None:
        fn.restype = None
        fn.argtypes = (
            [_F64P] * 7
            + [ctypes.c_double, ctypes.c_int32, ctypes.c_int64]
            + [_F64P] * 6
        )
        self._fn = fn

    def __call__(self, pos, vel, mass, softening):
        """Six (n, n) float64 product matrices (ax, ay, az, jx, jy, jz)."""
        n = mass.shape[0]
        cols = [np.ascontiguousarray(pos[:, k], dtype=np.float64)
                for k in range(3)]
        cols += [np.ascontiguousarray(vel[:, k], dtype=np.float64)
                 for k in range(3)]
        cols.append(np.ascontiguousarray(mass, dtype=np.float64))
        outs = [np.empty((n, n), dtype=np.float64) for _ in range(6)]
        self._fn(
            *[_double_ptr(a) for a in cols],
            ctypes.c_double(softening * softening),
            ctypes.c_int32(1 if softening > 0.0 else 0),
            ctypes.c_int64(n),
            *[_double_ptr(a) for a in outs],
        )
        return outs


class _KernelSet:
    """All compiled entry points of the shared library."""

    def __init__(self, lib) -> None:
        self.chunk = _NativeKernel(lib.nbody_chunk_f32)
        self.ds = _DSKernel(lib.nbody_ds_pairs_f64)
        pw = lib.pairwise_sum_f32
        pw.restype = ctypes.c_float
        pw.argtypes = [_F32P, ctypes.c_int64]
        self.pairwise = pw
        #: the fused-reduction kernel is only trusted once the pairwise
        #: tree passes the load-time self-test against np.sum
        self.tile = (
            _TileKernel(lib.nbody_tile_f32)
            if _pairwise_matches_numpy(pw) else None
        )


def _pairwise_matches_numpy(pw, trials: int = 24) -> bool:
    """Bitwise self-test of the C pairwise tree against ``np.sum``.

    Exercises the exact reduction length the fused kernel uses (1024
    contiguous lanes) across sign mixes and magnitude spreads.  Any
    single-bit mismatch disables the fused kernel — the engine then keeps
    its NumPy-owned reduction, trading speed for certain bit-identity.
    """
    rng = np.random.default_rng(1234)
    for trial in range(trials):
        scale = 10.0 ** ((trial % 12) - 6)
        a = (rng.standard_normal(1024) * scale).astype(np.float32)
        if trial % 3 == 1:
            a = np.abs(a)
        if trial % 5 == 2:
            a[::7] *= np.float32(1e6)
        want = np.sum(a, dtype=np.float32)
        got = np.float32(pw(_float_ptr(a), ctypes.c_int64(a.size)))
        if not (got == want or (np.isnan(got) and np.isnan(want))):
            return False
    return True


def _load() -> "_KernelSet | None":
    global _kernels, _load_attempted
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            lib = compile_library(_C_SOURCE, "nbody")
            try:
                _kernels = _KernelSet(lib) if lib is not None else None
            except AttributeError:
                _kernels = None
    return _kernels


def native_force_kernel():
    """The fused fp32 chunk kernel, or None when unavailable/disabled."""
    if not native_enabled():
        return None
    kernels = _load()
    return kernels.chunk if kernels is not None else None


def native_tile_kernel():
    """The fused chunk+reduction kernel; None when unavailable, disabled,
    or the load-time pairwise self-test failed."""
    if not native_enabled():
        return None
    kernels = _load()
    return kernels.tile if kernels is not None else None


def native_ds_kernel():
    """The double-single pair-products kernel, or None."""
    if not native_enabled():
        return None
    kernels = _load()
    return kernels.ds if kernels is not None else None


def native_pairwise_sum(values: np.ndarray) -> float | None:
    """The C pairwise tree over a float32 vector (test hook); None when
    the native library is unavailable or disabled."""
    if not native_enabled():
        return None
    kernels = _load()
    if kernels is None:
        return None
    arr = np.ascontiguousarray(values, dtype=np.float32)
    return float(kernels.pairwise(_float_ptr(arr), ctypes.c_int64(arr.size)))


def native_available() -> bool:
    """True when the compiled fast path is usable in this process."""
    return native_force_kernel() is not None
