"""Optional compiled kernels: match counts, the scheme reduction, the barrier model.

The hot quantity in every simulator is the per-(chunk, position, filter)
match count -- the popcount of the AND of two bit-packed masks. BLAS can
compute it as a float32 GEMM over the unpacked booleans, but that moves
``64x`` more data than the packed words need; a tiny C kernel doing
``popcount(window_word & filter_word)`` directly runs several times
faster. The same library reduces the counts to each scheme's per-position
barrier (see :mod:`repro.sim.reduce`), and evaluates the analytical
tier's order-statistics barrier (:func:`two_sided_barrier`, the inner
loop of :func:`repro.analytical.model._two_sided_barriers`).

The C source below is embedded and compiled on demand with the system C
compiler into a cache directory (``$REPRO_NATIVE_DIR``, else
``$XDG_CACHE_HOME/repro/native``), keyed by a hash of the source, the
compiler, the flag sets and the host CPU (``-march=native`` code must
never be loaded on a CPU that lacks its instructions, e.g. from a cache
shared over NFS or restored in CI), so rebuilds happen only when one of
them changes. Everything is best-effort: no compiler, a failed build, or
``$REPRO_NO_NATIVE`` being set all make every kernel return ``None`` and
the caller falls back to NumPy (the GEMM path for match counts). Both
paths are bit-identical, which the tests assert. The integer kernels get
there by exact small-integer arithmetic. The barrier kernel is float
arithmetic, and its identity rests on two things: ``-ffp-contract=off``
(in every flag set), so no multiply-add is fused into an FMA that would
move last bits, and its summation order -- each (chunk, group) slab is
summed in (chunk, group) order into a per-position partial before that
partial joins the total, exactly as the NumPy path's per-slab
``sum(axis=(0, 1))`` does. ``-fno-math-errno`` lets ``sqrt`` vectorise;
neither flag changes the integer and add-only kernels.

Data layout contract (all C-contiguous unless noted):

- windows: ``(n_chunks, words, n_sel)`` uint64, *word-major* packed masks,
  so the kernels' inner loop over positions streams consecutive memory.
- filters: ``(n_chunks, n_filters, words)`` uint64 packed masks.
- counts storage: ``(n_chunks, n_filters, n_sel)`` u8/u16/u32,
  *filter-major*; callers see it as the ``(n_chunks, n_sel, n_filters)``
  view ``storage.transpose(0, 2, 1)``, which is what :func:`match_counts`
  returns and what :func:`reduce_pairs` reads without copying.
- pos_sums out: ``(n_sel,)`` int64 -- total matches per position across
  all chunks and filters (the kernel accumulates them for free).

The reduction vectorises over positions: for uint8 counts on an AVX2 host
it handles 8 positions per lane group, with a scalar loop for the
remaining positions (and for every position with u16/u32 counts or
without AVX2).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import platform
import shutil
import subprocess
import tempfile

import numpy as np

from repro import config

__all__ = [
    "available",
    "load_error",
    "match_counts",
    "reduce_pairs",
    "two_sided_barrier",
]

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

/* Match counts for one layer, filter-major: counts[c][f][p] is the sum
   over the chunk's words k of popcount(win[c][k][p] & filt[c][f][k]),
   with windows stored word-major so every loop over positions is
   unit-stride. pos_sums[p] accumulates the per-position totals
   (match_sums). A count never exceeds the chunk size, so accumulating
   word by word in the count dtype is exact.

   uint8 counts (chunk_size <= 255) are the common case: one pass per word
   over a filter's row of positions, which gcc vectorises (VPOPCNTQ under
   -march=native where the host has it). Wider counts are rare and keep
   the word loop innermost; that form compiles in a fraction of the time,
   and the build runs on every fresh cache directory. */

void match_counts_u8(const uint64_t *restrict win,
                     const uint64_t *restrict filt,
                     uint8_t *restrict counts, int64_t *restrict pos_sums,
                     int64_t n_chunks, int64_t n_sel, int64_t n_filters,
                     int64_t words)
{
    for (int64_t c = 0; c < n_chunks; ++c) {
        const uint64_t *wc = win + c * words * n_sel;
        for (int64_t f = 0; f < n_filters; ++f) {
            const uint64_t *fw = filt + (c * n_filters + f) * words;
            uint8_t *out = counts + (c * n_filters + f) * n_sel;
            for (int64_t p = 0; p < n_sel; ++p)
                out[p] = (uint8_t)__builtin_popcountll(wc[p] & fw[0]);
            for (int64_t k = 1; k < words; ++k)
                for (int64_t p = 0; p < n_sel; ++p)
                    out[p] += (uint8_t)__builtin_popcountll(
                        wc[k * n_sel + p] & fw[k]);
            for (int64_t p = 0; p < n_sel; ++p)
                pos_sums[p] += (int64_t)out[p];
        }
    }
}

#define DEFINE_WIDE_MATCH_KERNEL(T, SUFFIX)                                    \
void match_counts_##SUFFIX(const uint64_t *restrict win,                       \
                           const uint64_t *restrict filt,                      \
                           T *restrict counts, int64_t *restrict pos_sums,     \
                           int64_t n_chunks, int64_t n_sel,                    \
                           int64_t n_filters, int64_t words)                   \
{                                                                              \
    for (int64_t c = 0; c < n_chunks; ++c) {                                   \
        const uint64_t *wc = win + c * words * n_sel;                          \
        for (int64_t f = 0; f < n_filters; ++f) {                              \
            const uint64_t *fw = filt + (c * n_filters + f) * words;           \
            T *out = counts + (c * n_filters + f) * n_sel;                     \
            for (int64_t p = 0; p < n_sel; ++p) {                              \
                uint64_t acc = 0;                                              \
                for (int64_t k = 0; k < words; ++k)                            \
                    acc += (uint64_t)__builtin_popcountll(                     \
                        wc[k * n_sel + p] & fw[k]);                            \
                out[p] = (T)acc;                                               \
                pos_sums[p] += (int64_t)acc;                                   \
            }                                                                  \
        }                                                                      \
    }                                                                          \
}

DEFINE_WIDE_MATCH_KERNEL(uint16_t, u16)
DEFINE_WIDE_MATCH_KERNEL(uint32_t, u32)

/* ---- scheme reductions -------------------------------------------------
   Per (chunk, position): gather each unit row's work as the sum of its
   (up to two) collocated filters' match counts, reduce groups of
   rows_per_group rows to a barrier (max over rows, optionally the
   list-scheduling bound max(ceil(sum/dyn_units), max), floored at 1 and
   at the per-(chunk, group) routing floor), and accumulate per-position
   barrier / busy / unhidden-permute totals. All quantities are exact
   small integers in float64 accumulators, so the result is bit-identical
   regardless of chunk/group/position iteration order.

   counts: (n_chunks, n_filters, n_sel), filter-major, so one filter's
   counts at consecutive positions are contiguous. pair_a/pair_b:
   (n_chunks, n_rows) when pair_per_chunk, else (1, n_rows); -1 marks an
   absent filter (idle unit slot). floors: (n_chunks, n_groups) or NULL.
   Outputs barrier/busy/permute: (n_sel,) float64, accumulated. */

#define REDUCE_PARAMS(T)                                                       \
    const T *restrict counts, const int64_t *restrict pair_a,                  \
    const int64_t *restrict pair_b, const double *restrict floors,             \
    double *restrict barrier_acc, double *restrict busy_acc,                   \
    double *restrict permute_acc, int64_t n_chunks, int64_t n_sel,             \
    int64_t n_filters, int64_t n_rows, int64_t rows_per_group,                 \
    int64_t pair_per_chunk, int64_t dyn_units

#define REDUCE_ARGS                                                            \
    counts, pair_a, pair_b, floors, barrier_acc, busy_acc, permute_acc,        \
    n_chunks, n_sel, n_filters, n_rows, rows_per_group, pair_per_chunk,        \
    dyn_units

/* Scalar reduction of positions [p_lo, n_sel): the whole kernel for u16/u32
   counts and hosts without AVX2, the tail of the vector block otherwise. */
#define DEFINE_REDUCE_SCALAR(T, SUFFIX)                                        \
static void reduce_scalar_##SUFFIX(REDUCE_PARAMS(T), int64_t p_lo)             \
{                                                                              \
    int64_t n_groups = n_rows / rows_per_group;                                \
    for (int64_t c = 0; c < n_chunks; ++c) {                                   \
        const T *cc = counts + c * n_filters * n_sel;                          \
        const int64_t *pa = pair_a + (pair_per_chunk ? c * n_rows : 0);        \
        const int64_t *pb = pair_b + (pair_per_chunk ? c * n_rows : 0);        \
        const double *fl = floors ? floors + c * n_groups : (const double *)0; \
        for (int64_t p = p_lo; p < n_sel; ++p) {                               \
            double bar = 0.0, busy = 0.0, perm = 0.0;                          \
            for (int64_t g = 0; g < n_groups; ++g) {                           \
                const int64_t *ga = pa + g * rows_per_group;                   \
                const int64_t *gb = pb + g * rows_per_group;                   \
                int64_t gmax = 0, gsum = 0;                                    \
                for (int64_t r = 0; r < rows_per_group; ++r) {                 \
                    int64_t w = 0;                                             \
                    if (ga[r] >= 0) w += (int64_t)cc[ga[r] * n_sel + p];       \
                    if (gb[r] >= 0) w += (int64_t)cc[gb[r] * n_sel + p];       \
                    gsum += w;                                                 \
                    if (w > gmax) gmax = w;                                    \
                }                                                              \
                int64_t bi = gmax;                                             \
                if (dyn_units > 0) {                                           \
                    int64_t lb = (gsum + dyn_units - 1) / dyn_units;           \
                    if (lb > bi) bi = lb;                                      \
                }                                                              \
                if (bi < 1) bi = 1;                                            \
                double bg = (double)bi;                                        \
                if (fl && fl[g] > bg) {                                        \
                    perm += fl[g] - bg;                                        \
                    bg = fl[g];                                                \
                }                                                              \
                bar += bg;                                                     \
                busy += (double)gsum;                                          \
            }                                                                  \
            barrier_acc[p] += bar;                                             \
            busy_acc[p] += busy;                                               \
            permute_acc[p] += perm;                                            \
        }                                                                      \
    }                                                                          \
}

DEFINE_REDUCE_SCALAR(uint8_t, u8)
DEFINE_REDUCE_SCALAR(uint16_t, u16)
DEFINE_REDUCE_SCALAR(uint32_t, u32)

/* u8 counts (chunk_size <= 255), 8 positions per AVX2 lane group. Per
   (chunk, group), the group's rows are split once into row pointers:
   single-filter rows and two-filter rows (rows with no filter contribute
   nothing to a sum or to a max that starts at 0, so they are dropped). Then, for each
   8-position block, each row's work is widened to int32 (at most 2 x 255,
   so a group of up to MAX_GROUP_ROWS rows sums far inside int32; larger
   groups are left to the scalar loop), the group's gsum/gmax stay in
   registers across its rows, and the dyn_units bound, the floor of 1 and
   the routing floor run in float64 lanes. floor((gsum + d - 1) / d) in
   float64 is exact for these magnitudes, so every lane matches the scalar
   int64 arithmetic. Returns the number of leading positions handled. */
#if defined(__AVX2__)
#define MAX_GROUP_ROWS 1024

static inline __m256i load8_u8(const uint8_t *p)
{
    return _mm256_cvtepu8_epi32(_mm_loadl_epi64((const __m128i *)p));
}

static int64_t reduce_avx2_u8(REDUCE_PARAMS(uint8_t))
{
    int64_t n_groups = n_rows / rows_per_group;
    int64_t head = n_sel - n_sel % 8;
    if (rows_per_group > MAX_GROUP_ROWS)
        return 0;
    const uint8_t *solo[MAX_GROUP_ROWS], *duo[MAX_GROUP_ROWS][2];
    const __m256d one = _mm256_set1_pd(1.0), zero = _mm256_setzero_pd();
    const __m256d dyn = _mm256_set1_pd((double)dyn_units);
    const __m256d dyn_m1 = _mm256_set1_pd((double)(dyn_units - 1));
    for (int64_t c = 0; c < n_chunks; ++c) {
        const uint8_t *cc = counts + c * n_filters * n_sel;
        const int64_t *pa = pair_a + (pair_per_chunk ? c * n_rows : 0);
        const int64_t *pb = pair_b + (pair_per_chunk ? c * n_rows : 0);
        const double *fl = floors ? floors + c * n_groups : (const double *)0;
        for (int64_t g = 0; g < n_groups; ++g) {
            int64_t n_solo = 0, n_duo = 0;
            for (int64_t r = g * rows_per_group; r < (g + 1) * rows_per_group;
                 ++r) {
                if (pa[r] >= 0 && pb[r] >= 0) {
                    duo[n_duo][0] = cc + pa[r] * n_sel;
                    duo[n_duo++][1] = cc + pb[r] * n_sel;
                } else if (pa[r] >= 0 || pb[r] >= 0) {
                    solo[n_solo++] = cc + (pa[r] >= 0 ? pa[r] : pb[r]) * n_sel;
                }
            }
            const __m256d f = _mm256_set1_pd(fl ? fl[g] : 0.0);
            for (int64_t p = 0; p < head; p += 8) {
                __m256i gmax = _mm256_setzero_si256();
                __m256i gsum = _mm256_setzero_si256();
                for (int64_t r = 0; r < n_solo; ++r) {
                    __m256i w = load8_u8(solo[r] + p);
                    gsum = _mm256_add_epi32(gsum, w);
                    gmax = _mm256_max_epi32(gmax, w);
                }
                for (int64_t r = 0; r < n_duo; ++r) {
                    __m256i w = _mm256_add_epi32(load8_u8(duo[r][0] + p),
                                                 load8_u8(duo[r][1] + p));
                    gsum = _mm256_add_epi32(gsum, w);
                    gmax = _mm256_max_epi32(gmax, w);
                }
                for (int h = 0; h < 2; ++h) {
                    __m128i m = h ? _mm256_extracti128_si256(gmax, 1)
                                  : _mm256_castsi256_si128(gmax);
                    __m128i s = h ? _mm256_extracti128_si256(gsum, 1)
                                  : _mm256_castsi256_si128(gsum);
                    __m256d bg = _mm256_cvtepi32_pd(m);
                    __m256d sd = _mm256_cvtepi32_pd(s);
                    double *bar = barrier_acc + p + 4 * h;
                    double *busy = busy_acc + p + 4 * h;
                    double *perm = permute_acc + p + 4 * h;
                    if (dyn_units > 0) {
                        __m256d lb = _mm256_floor_pd(
                            _mm256_div_pd(_mm256_add_pd(sd, dyn_m1), dyn));
                        bg = _mm256_max_pd(bg, lb);
                    }
                    bg = _mm256_max_pd(bg, one);
                    if (fl) {
                        __m256d over = _mm256_max_pd(_mm256_sub_pd(f, bg), zero);
                        _mm256_storeu_pd(
                            perm, _mm256_add_pd(_mm256_loadu_pd(perm), over));
                        bg = _mm256_max_pd(bg, f);
                    }
                    _mm256_storeu_pd(bar, _mm256_add_pd(_mm256_loadu_pd(bar), bg));
                    _mm256_storeu_pd(busy, _mm256_add_pd(_mm256_loadu_pd(busy), sd));
                }
            }
        }
    }
    return head;
}
#endif

void reduce_pairs_u8(REDUCE_PARAMS(uint8_t))
{
    int64_t p_lo = 0;
#if defined(__AVX2__)
    p_lo = reduce_avx2_u8(REDUCE_ARGS);
#endif
    reduce_scalar_u8(REDUCE_ARGS, p_lo);
}

void reduce_pairs_u16(REDUCE_PARAMS(uint16_t))
{
    reduce_scalar_u16(REDUCE_ARGS, 0);
}

void reduce_pairs_u32(REDUCE_PARAMS(uint32_t))
{
    reduce_scalar_u32(REDUCE_ARGS, 0);
}

/* ---- order-statistics barrier (analytical tier) -------------------------
   The expected barrier of one (chunk c, group g, position p): the heaviest
   unit row's work is two hypergeometric window intersections with loads
   a = wa[c][g] and b = wb[c][g] (b = 0 without collocation, which adds
   exact zeros), each part's mean and variance capped by the window count
   k = k[c][p]:
     qa = min(a r[p], 1), qb = min(b r[p], 1)
     est = (qa + qb) k + alpha[c][g] sqrt(((1 - qa) qa + (1 - qb) qb) kf[c][p])
     est = max(min(est, min(k, a) + min(k, b)), 1)
   Every operation is the NumPy slab loop's, in its order, so with
   contraction off (-ffp-contract=off) each element matches bit for bit. */
static inline double barrier_est(double a, double b, double al, double kk,
                                 double kfp, double rp)
{
    double qa = a * rp, qb = b * rp;
    qa = qa < 1.0 ? qa : 1.0;
    qb = qb < 1.0 ? qb : 1.0;
    double var = (1.0 - qa) * qa + (1.0 - qb) * qb;
    double cap = (kk < a ? kk : a) + (kk < b ? kk : b);
    double est = (qa + qb) * kk + sqrt(var * kfp) * al;
    est = est < cap ? est : cap;
    return est > 1.0 ? est : 1.0;
}

/* Per-position sums of max(est, fl) (barrier) and max(est, fl) - est
   (permute), fl the GB-H routing floor floors[c][g] (0 without floors).
   (chunk, group) slabs of cstep x gstep are each summed in (chunk, group)
   order into slab_bar / slab_perm before joining the totals: the order of
   NumPy's per-slab sum(axis=(0, 1)), which the bit-identity rests on. */
void two_sided_barrier(const double *restrict wa, const double *restrict wb,
                       const double *restrict alpha,
                       const double *restrict floors,
                       const double *restrict k, const double *restrict kf,
                       const double *restrict r, double *restrict barrier,
                       double *restrict permute, double *restrict slab_bar,
                       double *restrict slab_perm, int64_t n_chunks,
                       int64_t n_groups, int64_t n_sel, int64_t cstep,
                       int64_t gstep)
{
    for (int64_t c0 = 0; c0 < n_chunks; c0 += cstep) {
        int64_t c1 = c0 + cstep < n_chunks ? c0 + cstep : n_chunks;
        for (int64_t g0 = 0; g0 < n_groups; g0 += gstep) {
            int64_t g1 = g0 + gstep < n_groups ? g0 + gstep : n_groups;
            for (int64_t p = 0; p < n_sel; ++p)
                slab_bar[p] = slab_perm[p] = 0.0;
            for (int64_t c = c0; c < c1; ++c) {
                const double *kc = k + c * n_sel, *kfc = kf + c * n_sel;
                for (int64_t g = g0; g < g1; ++g) {
                    int64_t cg = c * n_groups + g;
                    double a = wa[cg], b = wb[cg], al = alpha[cg];
                    /* est >= 1, so a zero floor adds exact zeros. */
                    double fl = floors ? floors[cg] : 0.0;
                    for (int64_t p = 0; p < n_sel; ++p) {
                        double est = barrier_est(a, b, al, kc[p], kfc[p], r[p]);
                        double top = est > fl ? est : fl;
                        slab_perm[p] += top - est;
                        slab_bar[p] += top;
                    }
                }
            }
            for (int64_t p = 0; p < n_sel; ++p) {
                barrier[p] += slab_bar[p];
                permute[p] += slab_perm[p];
            }
        }
    }
}
"""

#: Compiler flag sets, tried in order until one builds. The first is
#: ``-O2`` plus the loop vectoriser rather than ``-O3 -funroll-loops``: the
#: kernels run as fast, and the build (which every fresh cache directory
#: pays) takes ~30 % less time. Both keep the barrier kernel bit-identical
#: to NumPy (no FMA contraction) and let its ``sqrt`` vectorise.
_FLOAT_FLAGS = ["-ffp-contract=off", "-fno-math-errno"]
_FLAG_SETS = (
    ["-O2", "-ftree-vectorize", "-march=native", *_FLOAT_FLAGS],
    ["-O3", *_FLOAT_FLAGS],
)

_lib: ctypes.CDLL | None = None
_tried = False
_error: str | None = None


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return shutil.which(cand)
    return None


def _cache_dir() -> pathlib.Path:
    override = config.current().native_dir
    if override:
        return pathlib.Path(override)
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return pathlib.Path(base).expanduser() / "repro" / "native"


def _cpu_identity() -> str:
    """The host CPU as ``-march=native`` sees it: arch plus feature flags."""
    flags = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    flags = line.split(":", 1)[-1].strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()} {flags}"


def _lib_path(cc: str) -> pathlib.Path:
    """Where the library for this source, compiler, flags and CPU lives."""
    key = "\0".join([_C_SOURCE, cc, repr(_FLAG_SETS), _cpu_identity()])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _cache_dir() / f"matchkernel-{digest}.so"


def _build(cc: str) -> ctypes.CDLL:
    lib_path = _lib_path(cc)
    cache = lib_path.parent
    cache.mkdir(parents=True, exist_ok=True)
    if not lib_path.exists():
        src_path = lib_path.with_suffix(".c")
        src_path.write_text(_C_SOURCE)
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
        os.close(fd)
        last = ""
        try:
            for flags in _FLAG_SETS:
                cmd = [cc, "-shared", "-fPIC", *flags, "-o", tmp, str(src_path)]
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=180
                )
                if proc.returncode == 0:
                    os.replace(tmp, lib_path)
                    break
                last = proc.stderr.strip()
            else:
                raise RuntimeError(f"compile failed: {last}")
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return _bind(ctypes.CDLL(str(lib_path)))


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the kernels' signatures on a loaded library."""
    args = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 4
    for name in ("match_counts_u8", "match_counts_u16", "match_counts_u32"):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = args
    reduce_args = [ctypes.c_void_p] * 7 + [ctypes.c_int64] * 7
    for name in ("reduce_pairs_u8", "reduce_pairs_u16", "reduce_pairs_u32"):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = reduce_args
    lib.two_sided_barrier.restype = None
    lib.two_sided_barrier.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_int64] * 5
    return lib


def _load() -> ctypes.CDLL | None:
    global _lib, _tried, _error
    if config.current().no_native:
        return None
    if _tried:
        return _lib
    _tried = True
    from repro import telemetry

    try:
        cc = _compiler()
        if cc is None:
            raise RuntimeError("no C compiler on PATH")
        with telemetry.span("native_build"):
            _lib = _build(cc)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, AttributeError) as exc:
        _error = str(exc)
        _lib = None
        telemetry.count("kernel.native_unavailable")
        telemetry.get_logger("native").warning(
            "native kernel unavailable, GEMM fallback %s",
            telemetry.kv(error=_error),
        )
    return _lib


def available() -> bool:
    """Whether the compiled kernel is usable right now."""
    return _load() is not None


def load_error() -> str | None:
    """The build/load failure message, if the native path is unavailable."""
    _load()
    return _error


def match_counts(
    win_words: np.ndarray,
    filt_words: np.ndarray,
    n_filters: int,
    count_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Run the compiled kernel; ``None`` when unavailable.

    Returns ``(counts, pos_sums)`` per the module's layout contract:
    *counts* is the ``(n_chunks, n_sel, n_filters)`` view of filter-major
    storage.
    """
    lib = _load()
    if lib is None:
        return None
    n_chunks, words, n_sel = win_words.shape
    assert win_words.flags.c_contiguous and win_words.dtype == np.uint64
    assert filt_words.flags.c_contiguous and filt_words.dtype == np.uint64
    assert filt_words.shape == (n_chunks, n_filters, words)
    dt = np.dtype(count_dtype)
    fn = {
        1: lib.match_counts_u8,
        2: lib.match_counts_u16,
        4: lib.match_counts_u32,
    }[dt.itemsize]
    storage = np.empty((n_chunks, n_filters, n_sel), dtype=dt)
    pos_sums = np.zeros(n_sel, dtype=np.int64)
    fn(
        _ptr(win_words),
        _ptr(filt_words),
        _ptr(storage),
        _ptr(pos_sums),
        n_chunks,
        n_sel,
        n_filters,
        words,
    )
    return storage.transpose(0, 2, 1), pos_sums


def _ptr(arr: np.ndarray | None) -> int | None:
    """*arr*'s buffer address for a ``c_void_p`` argument (None: NULL).

    The declared ``argtypes`` convert the plain integer without a
    ``ctypes`` pointer object per array.
    """
    return None if arr is None else arr.ctypes.data


def reduce_pairs(
    counts: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    floors: np.ndarray | None,
    rows_per_group: int,
    dyn_units: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Group-reduce a materialized counts tensor; ``None`` when unavailable.

    *counts* is ``(n_chunks, n_sel, F)``; the kernel reads it filter-major,
    which for the view :func:`match_counts` returns costs no copy (any
    other layout is copied once). Returns per-position ``(barrier, busy,
    permute)`` float64 arrays per the reduction contract documented in the
    C source.
    """
    lib = _load()
    if lib is None:
        return None
    counts = np.ascontiguousarray(counts.transpose(0, 2, 1))
    n_chunks, n_filters, n_sel = counts.shape
    n_rows = pair_a.shape[-1]
    assert pair_a.flags.c_contiguous and pair_a.dtype == np.int64
    assert pair_b.flags.c_contiguous and pair_b.dtype == np.int64
    assert pair_a.shape == pair_b.shape and n_rows % rows_per_group == 0
    per_chunk = pair_a.ndim == 2 and pair_a.shape[0] == n_chunks
    if floors is not None:
        assert floors.flags.c_contiguous and floors.dtype == np.float64
        assert floors.shape == (n_chunks, n_rows // rows_per_group)
    fn = {
        1: lib.reduce_pairs_u8,
        2: lib.reduce_pairs_u16,
        4: lib.reduce_pairs_u32,
    }[counts.dtype.itemsize]
    barrier = np.zeros(n_sel, dtype=np.float64)
    busy = np.zeros(n_sel, dtype=np.float64)
    permute = np.zeros(n_sel, dtype=np.float64)
    fn(
        _ptr(counts),
        _ptr(pair_a),
        _ptr(pair_b),
        _ptr(floors),
        _ptr(barrier),
        _ptr(busy),
        _ptr(permute),
        n_chunks,
        n_sel,
        n_filters,
        n_rows,
        rows_per_group,
        1 if per_chunk else 0,
        dyn_units,
    )
    return barrier, busy, permute


def two_sided_barrier(
    wa: np.ndarray,
    wb: np.ndarray | None,
    alpha: np.ndarray,
    floors: np.ndarray | None,
    k: np.ndarray,
    kf: np.ndarray,
    r: np.ndarray,
    cstep: int,
    gstep: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Order-statistics barrier sums of the analytical tier; ``None`` when
    unavailable.

    *wa*, *wb* (``None``: no collocated component), *alpha* and *floors*
    are ``(n_chunks, n_groups)`` float64; *k* and *kf* ``(n_chunks,
    n_sel)``; *r* ``(n_sel,)``. Returns per-position ``(barrier,
    permute)`` float64 sums over ``cstep x gstep`` (chunk, group) slabs,
    bit-identical to :func:`repro.analytical.model._barrier_slabs`.
    """
    lib = _load()
    if lib is None:
        return None
    wa, alpha, k, kf, r = (
        np.ascontiguousarray(a, dtype=np.float64) for a in (wa, alpha, k, kf, r)
    )
    wb = np.zeros_like(wa) if wb is None else np.ascontiguousarray(wb, np.float64)
    if floors is not None:
        floors = np.ascontiguousarray(floors, np.float64)
    n_chunks, n_groups = wa.shape
    n_sel = r.shape[0]
    assert wb.shape == alpha.shape == wa.shape
    assert k.shape == kf.shape == (n_chunks, n_sel)
    assert floors is None or floors.shape == wa.shape
    barrier = np.zeros(n_sel, dtype=np.float64)
    permute = np.zeros(n_sel, dtype=np.float64)
    slabs = np.empty((2, n_sel), dtype=np.float64)
    lib.two_sided_barrier(
        _ptr(wa),
        _ptr(wb),
        _ptr(alpha),
        _ptr(floors),
        _ptr(k),
        _ptr(kf),
        _ptr(r),
        _ptr(barrier),
        _ptr(permute),
        _ptr(slabs[0]),
        _ptr(slabs[1]),
        n_chunks,
        n_groups,
        n_sel,
        cstep,
        gstep,
    )
    return barrier, permute
