"""Optional compiled AND+popcount kernel for chunk match counts.

The hot quantity in every simulator is the per-(chunk, position, filter)
match count -- the popcount of the AND of two bit-packed masks. BLAS can
compute it as a float32 GEMM over the unpacked booleans, but that moves
``64x`` more data than the packed words need; a tiny C kernel doing
``popcount(window_word & filter_word)`` directly runs several times
faster, using AVX-512 ``VPOPCNTQ`` when the build machine supports it.

The C source below is embedded and compiled on demand with the system C
compiler into a cache directory (``$REPRO_NATIVE_DIR``, else
``$XDG_CACHE_HOME/repro/native``), keyed by a hash of the source and
compiler so rebuilds happen only when either changes. Everything is
best-effort: no compiler, a failed build, or ``$REPRO_NO_NATIVE`` being
set all make :func:`match_counts` return ``None`` and the caller falls
back to the GEMM path. Both paths are bit-identical (exact small-integer
arithmetic), which the tests assert.

Data layout contract (all C-contiguous):

- windows: ``(n_chunks, n_sel, words)`` uint64, row-major packed masks.
- filters: ``(n_chunks, words, n_filters)`` uint64, *word-major* so the
  inner loop over filters streams consecutive memory.
- counts out: ``(n_chunks, n_sel, n_filters)`` u8/u16/u32.
- pos_sums out: ``(n_sel,)`` int64 -- total matches per position across
  all chunks and filters (the kernel accumulates them for free).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile

import numpy as np

__all__ = [
    "available",
    "load_error",
    "match_counts",
    "reduce_pairs",
]

_C_SOURCE = r"""
#include <stdint.h>

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#define REPRO_AVX512_POPCNT 1
#endif

/* Match counts for one layer: counts[c][p][f] = popcount(win[c][p] & filt[c][f])
   with filters stored word-major (filt[c][k][f]) so the f loop is unit-stride.
   pos_sums[p] accumulates the row totals (match_sums) on the fly. */

#define DEFINE_SCALAR_KERNEL(T, SUFFIX)                                        \
void match_counts_##SUFFIX(const uint64_t *win, const uint64_t *filt,          \
                           T *counts, int64_t *pos_sums,                       \
                           int64_t n_chunks, int64_t n_sel,                    \
                           int64_t n_filters, int64_t words)                   \
{                                                                              \
    for (int64_t c = 0; c < n_chunks; ++c) {                                   \
        const uint64_t *fbase = filt + c * words * n_filters;                  \
        for (int64_t p = 0; p < n_sel; ++p) {                                  \
            const uint64_t *w = win + (c * n_sel + p) * words;                 \
            T *out = counts + (c * n_sel + p) * n_filters;                     \
            int64_t row_sum = 0;                                               \
            for (int64_t f = 0; f < n_filters; ++f) {                          \
                uint64_t acc = 0;                                              \
                for (int64_t k = 0; k < words; ++k)                            \
                    acc += (uint64_t)__builtin_popcountll(                     \
                        w[k] & fbase[k * n_filters + f]);                      \
                out[f] = (T)acc;                                               \
                row_sum += (int64_t)acc;                                       \
            }                                                                  \
            pos_sums[p] += row_sum;                                            \
        }                                                                      \
    }                                                                          \
}

DEFINE_SCALAR_KERNEL(uint16_t, u16)
DEFINE_SCALAR_KERNEL(uint32_t, u32)

/* ---- scheme reductions -------------------------------------------------
   Per (chunk, position): gather each unit row's work as the sum of its
   (up to two) collocated filters' match counts, reduce groups of
   rows_per_group rows to a barrier (max over rows, optionally the
   list-scheduling bound max(ceil(sum/dyn_units), max), floored at 1 and
   at the per-(chunk, group) routing floor), and accumulate per-position
   barrier / busy / unhidden-permute totals. All quantities are exact
   small integers in float64 accumulators, so the result is bit-identical
   regardless of chunk/group iteration order.

   pair_a/pair_b: (n_chunks, n_rows) when pair_per_chunk, else (1, n_rows);
   -1 marks an absent filter (idle unit slot). floors: (n_chunks, n_groups)
   or NULL. Outputs barrier/busy/permute: (n_sel,) float64, accumulated. */

#define DEFINE_REDUCE_KERNEL(T, SUFFIX)                                        \
void reduce_pairs_##SUFFIX(const T *counts, const int64_t *pair_a,             \
                           const int64_t *pair_b, const double *floors,        \
                           double *barrier_acc, double *busy_acc,              \
                           double *permute_acc,                                \
                           int64_t n_chunks, int64_t n_sel,                    \
                           int64_t n_filters, int64_t n_rows,                  \
                           int64_t rows_per_group, int64_t pair_per_chunk,     \
                           int64_t dyn_units)                                  \
{                                                                              \
    int64_t n_groups = n_rows / rows_per_group;                                \
    for (int64_t c = 0; c < n_chunks; ++c) {                                   \
        const int64_t *pa = pair_a + (pair_per_chunk ? c * n_rows : 0);        \
        const int64_t *pb = pair_b + (pair_per_chunk ? c * n_rows : 0);        \
        const double *fl = floors ? floors + c * n_groups : (const double *)0; \
        for (int64_t p = 0; p < n_sel; ++p) {                                  \
            const T *row = counts + (c * n_sel + p) * n_filters;               \
            double bar = 0.0, busy = 0.0, perm = 0.0;                          \
            for (int64_t g = 0; g < n_groups; ++g) {                           \
                const int64_t *ga = pa + g * rows_per_group;                   \
                const int64_t *gb = pb + g * rows_per_group;                   \
                int64_t gmax = 0, gsum = 0;                                    \
                for (int64_t r = 0; r < rows_per_group; ++r) {                 \
                    int64_t w = 0;                                             \
                    if (ga[r] >= 0) w += (int64_t)row[ga[r]];                  \
                    if (gb[r] >= 0) w += (int64_t)row[gb[r]];                  \
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

DEFINE_REDUCE_KERNEL(uint8_t, u8)
DEFINE_REDUCE_KERNEL(uint16_t, u16)
DEFINE_REDUCE_KERNEL(uint32_t, u32)

#ifdef REPRO_AVX512_POPCNT
/* uint8 counts are the common case (chunk_size <= 255): vectorise over 8
   filters at a time with VPOPCNTQ on the word-major filter rows. */
void match_counts_u8(const uint64_t *win, const uint64_t *filt,
                     uint8_t *counts, int64_t *pos_sums,
                     int64_t n_chunks, int64_t n_sel,
                     int64_t n_filters, int64_t words)
{
    for (int64_t c = 0; c < n_chunks; ++c) {
        const uint64_t *fbase = filt + c * words * n_filters;
        for (int64_t p = 0; p < n_sel; ++p) {
            const uint64_t *w = win + (c * n_sel + p) * words;
            uint8_t *out = counts + (c * n_sel + p) * n_filters;
            int64_t row_sum = 0;
            int64_t f = 0;
            __m512i vsum = _mm512_setzero_si512();
            for (; f + 8 <= n_filters; f += 8) {
                __m512i acc = _mm512_setzero_si512();
                for (int64_t k = 0; k < words; ++k) {
                    __m512i fv = _mm512_loadu_si512(
                        (const void *)(fbase + k * n_filters + f));
                    __m512i wv = _mm512_set1_epi64((long long)w[k]);
                    acc = _mm512_add_epi64(
                        acc, _mm512_popcnt_epi64(_mm512_and_si512(fv, wv)));
                }
                vsum = _mm512_add_epi64(vsum, acc);
                _mm_storel_epi64((__m128i *)(out + f),
                                 _mm512_cvtepi64_epi8(acc));
            }
            row_sum += (int64_t)_mm512_reduce_add_epi64(vsum);
            for (; f < n_filters; ++f) {
                uint64_t acc = 0;
                for (int64_t k = 0; k < words; ++k)
                    acc += (uint64_t)__builtin_popcountll(
                        w[k] & fbase[k * n_filters + f]);
                out[f] = (uint8_t)acc;
                row_sum += (int64_t)acc;
            }
            pos_sums[p] += row_sum;
        }
    }
}
#else
DEFINE_SCALAR_KERNEL(uint8_t, u8)
#endif
"""

#: Compiler flag sets, tried in order until one builds.
_FLAG_SETS = (
    ["-O3", "-march=native", "-funroll-loops"],
    ["-O3"],
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
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return pathlib.Path(override)
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return pathlib.Path(base).expanduser() / "repro" / "native"


def _build(cc: str) -> ctypes.CDLL:
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256((_C_SOURCE + cc).encode()).hexdigest()[:16]
    lib_path = cache / f"matchkernel-{digest}.so"
    if not lib_path.exists():
        src_path = cache / f"matchkernel-{digest}.c"
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
    return ctypes.CDLL(str(lib_path))


def _load() -> ctypes.CDLL | None:
    global _lib, _tried, _error
    if os.environ.get("REPRO_NO_NATIVE"):
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
            lib = _build(cc)
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
        _lib = lib
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

    Returns ``(counts, pos_sums)`` per the module's layout contract.
    """
    lib = _load()
    if lib is None:
        return None
    n_chunks, n_sel, words = win_words.shape
    assert win_words.flags.c_contiguous and win_words.dtype == np.uint64
    assert filt_words.flags.c_contiguous and filt_words.dtype == np.uint64
    assert filt_words.shape == (n_chunks, words, n_filters)
    dt = np.dtype(count_dtype)
    fn = {
        1: lib.match_counts_u8,
        2: lib.match_counts_u16,
        4: lib.match_counts_u32,
    }[dt.itemsize]
    counts = np.empty((n_chunks, n_sel, n_filters), dtype=dt)
    pos_sums = np.zeros(n_sel, dtype=np.int64)
    fn(
        win_words.ctypes.data_as(ctypes.c_void_p),
        filt_words.ctypes.data_as(ctypes.c_void_p),
        counts.ctypes.data_as(ctypes.c_void_p),
        pos_sums.ctypes.data_as(ctypes.c_void_p),
        n_chunks,
        n_sel,
        n_filters,
        words,
    )
    return counts, pos_sums


def _ptr(arr: np.ndarray | None) -> ctypes.c_void_p | None:
    return None if arr is None else arr.ctypes.data_as(ctypes.c_void_p)


def reduce_pairs(
    counts: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    floors: np.ndarray | None,
    rows_per_group: int,
    dyn_units: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Group-reduce a materialized counts tensor; ``None`` when unavailable.

    Returns per-position ``(barrier, busy, permute)`` float64 arrays per
    the reduction contract documented in the C source.
    """
    lib = _load()
    if lib is None:
        return None
    counts = np.ascontiguousarray(counts)
    n_chunks, n_sel, n_filters = counts.shape
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
