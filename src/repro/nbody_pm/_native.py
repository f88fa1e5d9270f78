"""Optional C kernel behind :func:`repro.nbody_pm.shortrange.near_field_correction`.

The NumPy path of the near field walks the 27 neighbour-cell offsets,
and for each one materialises every candidate pair, filters it, and
scatters the survivors with ``np.add.at`` — a dozen large temporaries
per offset, driven from Python.  This module compiles (via
:func:`repro.native.compile_library`) two float64 kernels that do the
same work pair by pair:

* ``near_pairs`` enumerates the pairs inside the cutoff in the NumPy
  path's order — offsets in :data:`~repro.nbody_pm.shortrange._OFFSETS`
  order, receivers ascending, sources in cell-sorted order — and writes
  each pair's exponent argument ``-x*x`` (``x = r / 2a``);
* NumPy computes the exponentials of those arguments;
* ``near_accumulate`` evaluates each pair's screened force and jerk and
  accumulates them in the enumeration order.

The result is bit-identical to the NumPy path, not merely close: a
leapfrog or Hermite run feeds every force back into the positions, so a
one-ulp change would change the whole trajectory.  Bit-identity holds
because

* every float64 op is the NumPy path's op, in its order: ``dr = pos_j -
  pos_i``; the length-3 dot products in the order NumPy's
  ``einsum("ij,ij->i")`` reduces them, ``(x*x + z*z) + y*y``; the A&S
  ``erfc`` of :mod:`repro.nbody_pm.splitting` op for op; the constants
  ``2a``, ``2/sqrt(pi)`` and ``2 a^3 sqrt(pi)`` computed by Python as
  the NumPy path computes them;
* a row's contributions are summed sequentially in pair order, which is
  what ``np.add.at`` does, and the pair order is the NumPy path's;
* the exponentials come from ``np.exp`` itself: NumPy's SIMD ``exp``
  and the C library's ``exp`` differ in the last bit on a few percent of
  the arguments a near field produces, so a kernel calling libm would
  not match;
* the kernels are compiled with ``-ffp-contract=off`` and without
  ``-ffast-math``, and ``sqrt`` and division are correctly rounded.

Parts of that (the einsum lane order, ``np.exp`` being a pure function
of its argument wherever it sits in an array) are properties of the
installed NumPy and the host rather than of IEEE-754, so the kernels are
**self-tested at load time** against the NumPy path on seeded systems
and disabled on any single-bit mismatch.  No compiler, a failed
self-test, or ``REPRO_NATIVE=0`` all leave the NumPy path in use.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..native import compile_library, native_enabled
from .splitting import _A1, _A2, _A3, _A4, _A5, _P

__all__ = ["native_near_field"]

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Position of cell `id` in the ascending unique ids, or -1. */
static int64_t find_cell(const int64_t *uniq, int64_t n_uniq, int64_t id)
{
    int64_t lo = 0, hi = n_uniq;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (uniq[mid] < id) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return (lo < n_uniq && uniq[lo] == id) ? lo : -1;
}

/* Pairs inside the cutoff, from `cursor` (offset, receiver, source
 * position; -1 = the receiver's first source) on, in the NumPy path's
 * order: the 27 offsets dx-major, receivers ascending (only those in
 * `mask` when it is not NULL), sources in cell-sorted order, the
 * receiver itself skipped.  Writes up to `cap` pairs and each pair's
 * exponent argument -x*x, x = sqrt(r2 + eps2) / two_a; returns the count
 * and leaves `cursor` where the next call resumes (offset 27: done). */
int64_t near_pairs(
    const double *pos, const int64_t *cell, const int64_t *dims,
    const int64_t *order, const int64_t *uniq, const int64_t *ustart,
    const int64_t *ucount, int64_t n_uniq, const uint8_t *mask, int64_t n,
    double r_cut2, double eps2, double two_a,
    int64_t *cursor, int64_t cap, int64_t *pi, int64_t *pj, double *arg)
{
    int64_t count = 0;
    int64_t off = cursor[0], i = cursor[1], p = cursor[2];
    for (; off < 27; ++off, i = 0) {
        const int64_t ox = off / 9 - 1, oy = (off / 3) % 3 - 1;
        const int64_t oz = off % 3 - 1;
        for (; i < n; ++i, p = -1) {
            if (mask && !mask[i]) {
                continue;
            }
            const int64_t cx = cell[3 * i] + ox;
            const int64_t cy = cell[3 * i + 1] + oy;
            const int64_t cz = cell[3 * i + 2] + oz;
            if (cx < 0 || cx >= dims[0] || cy < 0 || cy >= dims[1]
                    || cz < 0 || cz >= dims[2]) {
                continue;
            }
            const int64_t k = find_cell(
                uniq, n_uniq, (cx * dims[1] + cy) * dims[2] + cz);
            if (k < 0) {
                continue;
            }
            const int64_t end = ustart[k] + ucount[k];
            if (p < 0) {
                p = ustart[k];
            }
            const double xi = pos[3 * i], yi = pos[3 * i + 1];
            const double zi = pos[3 * i + 2];
            for (; p < end; ++p) {
                const int64_t j = order[p];
                if (j == i) {
                    continue;
                }
                const double dx = pos[3 * j] - xi;
                const double dy = pos[3 * j + 1] - yi;
                const double dz = pos[3 * j + 2] - zi;
                const double r2 = (dx * dx + dz * dz) + dy * dy;
                if (!(r2 < r_cut2)) {
                    continue;
                }
                if (count == cap) {
                    cursor[0] = off;
                    cursor[1] = i;
                    cursor[2] = p;
                    return count;
                }
                const double x = sqrt(r2 + eps2) / two_a;
                pi[count] = i;
                pj[count] = j;
                arg[count] = (-x) * x;
                ++count;
            }
        }
    }
    cursor[0] = 27;
    cursor[1] = 0;
    cursor[2] = -1;
    return count;
}

/* Screened force and jerk of `count` pairs, accumulated into rows pi[q]
 * in pair order.  `gauss` holds exp(-x*x) per pair; k holds the A&S
 * erfc constants P, A1..A5, then 2/sqrt(pi), 2 a^3 sqrt(pi) and G.  Op
 * for op the NumPy path of repro.nbody_pm.shortrange and
 * repro.nbody_pm.splitting. */
void near_accumulate(
    const double *pos, const double *vel, const double *mass,
    int64_t count, const int64_t *pi, const int64_t *pj,
    const double *gauss, double eps2, double two_a, const double *k,
    double *acc, double *jerk)
{
    const double P = k[0], A1 = k[1], A2 = k[2], A3 = k[3], A4 = k[4];
    const double A5 = k[5], c_s = k[6], sp_den = k[7], G = k[8];
    for (int64_t q = 0; q < count; ++q) {
        const int64_t i = pi[q], j = pj[q];
        const double dx = pos[3 * j] - pos[3 * i];
        const double dy = pos[3 * j + 1] - pos[3 * i + 1];
        const double dz = pos[3 * j + 2] - pos[3 * i + 2];
        const double r2 = ((dx * dx + dz * dz) + dy * dy) + eps2;
        const double r = sqrt(r2);
        const double x = r / two_a;
        const double g = gauss[q];
        const double z = fabs(x);
        const double t = 1.0 / (1.0 + P * z);
        const double poly = t * (A1 + t * (A2 + t * (A3 + t * (A4 + t * A5))));
        const double res = poly * g;
        const double erfc_x = (x >= 0.0) ? res : 2.0 - res;
        const double s = erfc_x + (c_s * x) * g;
        const double sp = (-(r * r) / sp_den) * g;
        const double inv_r3 = 1.0 / (r2 * r);
        const double gm = G * mass[j];
        const double coeff = (gm * s) * inv_r3;
        acc[3 * i] += coeff * dx;
        acc[3 * i + 1] += coeff * dy;
        acc[3 * i + 2] += coeff * dz;
        const double dvx = vel[3 * j] - vel[3 * i];
        const double dvy = vel[3 * j + 1] - vel[3 * i + 1];
        const double dvz = vel[3 * j + 2] - vel[3 * i + 2];
        const double rv = (dx * dvx + dz * dvz) + dy * dvy;
        const double radial = ((gm * ((sp * r) - (3.0 * s))) * rv)
                              / ((r2 * r2) * r);
        jerk[3 * i] += (coeff * dvx) + (radial * dx);
        jerk[3 * i + 1] += (coeff * dvy) + (radial * dy);
        jerk[3 * i + 2] += (coeff * dvz) + (radial * dz);
    }
}
"""

#: Pairs enumerated per call: bounds the pair buffers (24 B a pair) and
#: the exponential's temporaries, whatever the system's pair count.
_CHUNK = 1 << 18

_P64 = ctypes.c_void_p

_lock = threading.Lock()
_kernels = None
_load_attempted = False


def _ptr(array: np.ndarray):
    return array.ctypes.data_as(_P64)


def _call(kernels, pos, vel, mass, cells, target_mask, *, r_cut,
          split_scale, softening, G, acc, jerk, chunk=_CHUNK) -> int:
    """Run the two kernels over every chunk of pairs; the pair count.

    ``pos``/``vel``/``acc``/``jerk`` must be C-contiguous ``(n, 3)``
    float64 and ``mass`` contiguous float64.
    """
    near_pairs, near_accumulate = kernels
    cell, dims, order, uniq, start, counts = cells
    n = pos.shape[0]
    eps2 = softening * softening
    two_a = 2.0 * split_scale
    # the NumPy path's scalars, computed the way it computes them
    consts = np.array([
        _P, _A1, _A2, _A3, _A4, _A5,
        2.0 / np.sqrt(np.pi),
        2.0 * split_scale**3 * np.sqrt(np.pi),
        G,
    ], dtype=np.float64)
    mask = (
        None if target_mask is None
        else np.ascontiguousarray(target_mask, dtype=np.uint8)
    )
    cursor = np.array([0, 0, -1], dtype=np.int64)
    pi = np.empty(chunk, dtype=np.int64)
    pj = np.empty(chunk, dtype=np.int64)
    arg = np.empty(chunk, dtype=np.float64)
    pos_p, vel_p, mass_p = (_ptr(a) for a in (pos, vel, mass))
    cell_ps = [_ptr(a) for a in (cell, dims, order, uniq, start, counts)]
    pi_p, pj_p, arg_p, cursor_p = (_ptr(a) for a in (pi, pj, arg, cursor))
    mask_p = None if mask is None else _ptr(mask)
    consts_p, acc_p, jerk_p = (_ptr(a) for a in (consts, acc, jerk))
    n_pairs = 0
    while cursor[0] < 27:
        count = near_pairs(
            pos_p, *cell_ps, uniq.size, mask_p, n, r_cut * r_cut, eps2,
            two_a, cursor_p, chunk, pi_p, pj_p, arg_p,
        )
        if count:
            gauss = np.exp(arg[:count])
            near_accumulate(
                pos_p, vel_p, mass_p, count, pi_p, pj_p, _ptr(gauss), eps2,
                two_a, consts_p, acc_p, jerk_p,
            )
        n_pairs += count
    return n_pairs


def _self_test(kernels) -> bool:
    """Bitwise check of the kernels against the NumPy path.

    Seeded systems cover a lone pair, spheres with a dense core (crowded
    cells), receivers restricted to targets, softened and unsoftened
    pairs, and chunks of 1, 7 and 997 pairs, so that the enumeration
    resumes mid-cell.
    """
    from .shortrange import _bin_cells, _near_numpy

    rng = np.random.default_rng(20250927)
    for n, spread, r_cut, chunk in ((2, 0.01, 0.05, 1), (200, 1.0, 0.5, 7),
                                    (600, 0.05, 0.025, 997)):
        pos = rng.standard_normal((n, 3)) * spread
        pos[: n // 4] *= 0.05  # a dense core: crowded cells
        vel = rng.standard_normal((n, 3))
        mass = rng.uniform(0.5, 2.0, n) / n
        cells = _bin_cells(pos, r_cut)
        for softening in (0.0, 0.01):
            for mask in (None, np.arange(n) % 3 == 0):
                kw = dict(r_cut=r_cut, split_scale=r_cut / 5.0,
                          softening=softening, G=1.0)
                want_acc, want_jerk = np.zeros((n, 3)), np.zeros((n, 3))
                want = _near_numpy(pos, vel, mass, cells, mask,
                                   acc=want_acc, jerk=want_jerk, **kw)
                acc, jerk = np.zeros((n, 3)), np.zeros((n, 3))
                got = _call(kernels, pos, vel, mass, cells, mask,
                            acc=acc, jerk=jerk, chunk=chunk, **kw)
                if (got != want or not np.array_equal(acc, want_acc)
                        or not np.array_equal(jerk, want_jerk)):
                    return False
    return True


def _load():
    global _kernels, _load_attempted
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            lib = compile_library(_C_SOURCE, "near_field")
            kernels = None
            if lib is not None:
                pairs = getattr(lib, "near_pairs", None)
                accumulate = getattr(lib, "near_accumulate", None)
                if pairs is not None and accumulate is not None:
                    pairs.restype = ctypes.c_int64
                    pairs.argtypes = (
                        [_P64] * 7 + [ctypes.c_int64, _P64, ctypes.c_int64]
                        + [ctypes.c_double] * 3
                        + [_P64, ctypes.c_int64] + [_P64] * 3
                    )
                    accumulate.restype = None
                    accumulate.argtypes = (
                        [_P64] * 3 + [ctypes.c_int64] + [_P64] * 3
                        + [ctypes.c_double] * 2 + [_P64] * 3
                    )
                    kernels = (pairs, accumulate)
                    if not _self_test(kernels):
                        kernels = None
            _kernels = kernels
    return _kernels


def native_near_field(pos, vel, mass, cells, target_mask, *, r_cut,
                      split_scale, softening, G, acc, jerk) -> int | None:
    """Accumulate the near field into ``acc``/``jerk``, bit-identical to
    the NumPy path; the pair count, or ``None`` (nothing written) when the
    kernels are disabled, unavailable or failed their load-time
    self-test.  Arrays as :func:`_call` requires."""
    if not native_enabled():
        return None
    kernels = _load()
    if kernels is None:
        return None
    return _call(kernels, pos, vel, mass, cells, target_mask, r_cut=r_cut,
                 split_scale=split_scale, softening=softening, G=G,
                 acc=acc, jerk=jerk)
