"""Vectorised chunk-level work kernels shared by the simulators.

The cycle models need, for every output position and every chunk of the
linearised filter/window vectors, the *match count* -- the number of
positions non-zero in both the input window chunk and a filter chunk.
That count is exactly the compute unit's busy cycles for that chunk
(one multiply-accumulate per matched pair), so the simulators reduce over
these arrays instead of walking the step-wise functional model; tests
assert both paths agree.

The key identity: the match count between a binary window row and a
binary filter row is their integer dot product -- equivalently the
popcount of the AND of the two bit-packed masks. The kernel pads the
input map *once*, splits each pixel's channels into storage-layout
chunks and packs them with :func:`np.packbits`; every window's packed
chunk bytes are then one ``np.take`` over ``(origin + kernel offset)``
pixel indices. No dense boolean im2col tensor is built. Then:

- ``input_pop`` gathers per-pixel chunk counts the same way, and
  ``filter_chunk_nnz`` sums the chunk-padded filter masks
  (:func:`count_true`, no float work at all);
- match counts come from the compiled AND+popcount kernel in
  :mod:`repro.sim.native` when it is available, else from a blocked
  float32 batched GEMM over the windows unpacked back to booleans. Both
  paths fill *filter-major* ``(n_chunks, F, n_sel)`` storage (positions
  innermost, so the native reduction streams them) and hand out the
  ``(n_chunks, n_sel, F)`` view ``storage.transpose(0, 2, 1)``: the shape
  every consumer indexes is unchanged, only the strides are;
- the ``need_counts=False`` branch unpacks the windows too and reduces
  them against the per-chunk filter column sums with one batched
  matvec, never materialising the ``(n_chunks, n_sel, F)`` tensor.

Every intermediate on every path is an exact small integer (far below
2**24, float32's exact-integer range), so all paths are bit-identical to
the original per-chunk loop; the tests pin that equivalence.

Positions can be *sampled* (evenly spaced within each cluster's slice,
with exact rescaling weights) to bound the cost of very large layers;
``position_sample=None`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.nets.synthesis import LayerMasks
from repro.sim import native
from repro.sim.config import HardwareConfig
from repro.tensor.sparsemap import padded_length
from repro.tensor.storage import even_slices

__all__ = [
    "PositionAssignment",
    "ChunkWork",
    "assign_positions",
    "batch_workloads",
    "compute_chunk_work",
    "count_dtype",
    "count_true",
]

#: float32 window elements per GEMM block in the fallback path (bounds
#: the temporary to a few MB regardless of layer size).
_GEMM_BLOCK_ELEMS = 4 << 20


def count_dtype(chunk_size: int) -> np.dtype:
    """Smallest unsigned dtype holding a full-chunk match count.

    A fully dense chunk matches ``chunk_size`` times, so uint8 only works
    up to 255 -- at ``chunk_size=256`` it would wrap 256 to 0.
    """
    if chunk_size <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if chunk_size <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def count_true(mask: np.ndarray, axis, n: int) -> np.ndarray:
    """True counts of a bool *mask* over *axis*, at most *n* per count.

    Sums the mask's bytes in ``count_dtype(n)``: exact, and about twice
    as fast as a bool sum, which widens every element first.
    """
    return mask.view(np.uint8).sum(axis=axis, dtype=count_dtype(n))


@dataclass(frozen=True)
class PositionAssignment:
    """Which output positions each cluster owns, and which are simulated.

    Attributes:
        indices: flat (row-major) output-position indices simulated.
        cluster_of: owning cluster of each simulated position.
        weight_of: rescale weight of each simulated position (1.0 when
            exact; cluster_positions/sampled when sampled).
        cluster_positions: true position counts per cluster.
    """

    indices: np.ndarray
    cluster_of: np.ndarray
    weight_of: np.ndarray
    cluster_positions: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_positions.size)


def assign_positions(
    n_positions: int, n_clusters: int, position_sample: int | None
) -> PositionAssignment:
    """Slice output positions across clusters; optionally sample each slice.

    Positions are row-major over the output map, sliced contiguously (the
    paper's X/Y output slicing); sampling takes evenly spaced positions
    within each slice so spatial structure is preserved. Because the
    picks are rounded then deduplicated with ``np.unique``, a cluster can
    end up with *fewer* than ``position_sample`` picks; the weights are
    computed from the actual pick count (``n / picks.size``), so each
    cluster's weights always sum exactly to its true position count.
    """
    if n_positions < 1:
        raise ValueError(f"need at least one output position, got {n_positions}")
    if position_sample is not None and position_sample < 1:
        raise ValueError(
            f"position_sample must be >= 1 or None, got {position_sample}"
        )
    slices = even_slices(n_positions, n_clusters)
    counts = np.array([hi - lo for lo, hi in slices], dtype=np.int64)
    index_blocks = []
    cluster_blocks = []
    weight_blocks = []
    for cluster, (lo, hi) in enumerate(slices):
        n = hi - lo
        if n == 0:
            continue
        if position_sample is not None and n > position_sample:
            picks = lo + np.unique(
                np.linspace(0, n - 1, position_sample).round().astype(np.int64)
            )
        else:
            picks = np.arange(lo, hi, dtype=np.int64)
        index_blocks.append(picks)
        cluster_blocks.append(np.full(picks.size, cluster, dtype=np.int64))
        weight_blocks.append(np.full(picks.size, n / picks.size, dtype=np.float64))
    return PositionAssignment(
        indices=np.concatenate(index_blocks),
        cluster_of=np.concatenate(cluster_blocks),
        weight_of=np.concatenate(weight_blocks),
        cluster_positions=counts,
    )


@dataclass(frozen=True)
class ChunkWork:
    """Per-chunk work counts at the simulated output positions.

    Attributes:
        counts: (n_chunks, n_sel, F) match counts, or ``None`` when only
            one-sided quantities were requested. The dtype is the
            smallest unsigned integer that can hold ``chunk_size`` (uint8
            up to 255, see :func:`count_dtype`). The storage is
            filter-major ``(n_chunks, F, n_sel)``; this is its
            ``transpose(0, 2, 1)`` view, so ``counts.transpose(0, 2, 1)``
            is C-contiguous.
        input_pop: (n_chunks, n_sel) non-zero input-window counts per
            chunk (one-sided work; identical for every compute unit).
        match_sums: (n_sel,) total matches across all chunks and filters
            (the layer's useful MACs at each position).
        assignment: the position assignment the arrays are indexed by.
        n_chunks: chunks per linearised filter/window vector.
        filter_chunk_nnz: (F, n_chunks) filter chunk non-zero counts
            (greedy balancing's density proxy).
    """

    counts: np.ndarray | None
    input_pop: np.ndarray
    match_sums: np.ndarray
    assignment: PositionAssignment
    n_chunks: int
    filter_chunk_nnz: np.ndarray

    def materialized_counts(self) -> np.ndarray:
        """The counts tensor, for consumers that need per-filter counts.

        Raises ``ValueError`` when the workload was computed with
        ``need_counts=False``.
        """
        if self.counts is None:
            raise ValueError(
                "workload carries no match counts (computed with "
                "need_counts=False)"
            )
        return self.counts


def compute_chunk_work(
    data: LayerMasks,
    cfg: HardwareConfig,
    need_counts: bool = True,
) -> ChunkWork:
    """Compute all chunk-level work arrays for one layer workload.

    Chunks follow the storage layout: Z-first, each kernel position's
    channels padded to whole chunks, so chunk
    ``(ky*k + kx) * cpc + cz`` covers channels ``[cz*n, (cz+1)*n)`` at
    kernel position (ky, kx).
    """
    spec = data.spec
    chunk = cfg.chunk_size
    padded_c = padded_length(spec.in_channels, chunk)
    cpc = padded_c // chunk
    kk = spec.kernel * spec.kernel
    n_chunks = kk * cpc

    assignment = assign_positions(
        spec.out_positions, cfg.n_clusters, cfg.position_sample
    )
    sel = assignment.indices
    n_sel = sel.size
    n_filters = spec.n_filters

    # Pack the zero-padded input map once, chunk by chunk along channels
    # (partial channel chunks carry zeros exactly like the storage
    # layout), and count each pixel's chunk non-zeros alongside.
    p = spec.padding
    hp, wp = spec.in_height + 2 * p, spec.in_width + 2 * p
    padded = np.zeros((hp, wp, cpc, chunk), dtype=bool)
    padded.reshape(hp, wp, padded_c)[
        p : p + spec.in_height, p : p + spec.in_width, : spec.in_channels
    ] = data.input_mask
    packed_map = np.packbits(padded, axis=-1).reshape(hp * wp, -1)
    pixel_pop = count_true(padded, -1, chunk).reshape(hp * wp, cpc).astype(np.int32)

    # Window w's kernel position (ky, kx) sits at padded pixel
    # origin[w] + ky*wp + kx; one gather per map fetches every window.
    ky, kx = np.divmod(np.arange(kk), spec.kernel)
    origin = (sel // spec.out_width) * (spec.stride * wp) + (
        sel % spec.out_width
    ) * spec.stride
    pixels = origin[:, None] + (ky * wp + kx)[None, :]  # (n_sel, kk)
    win_packed = np.take(packed_map, pixels, axis=0).reshape(n_sel, n_chunks, -1)
    input_pop = np.ascontiguousarray(
        np.take(pixel_pop, pixels, axis=0).reshape(n_sel, n_chunks).T
    )

    fmask = np.zeros((n_filters, n_chunks, chunk), dtype=bool)
    fmask.reshape(n_filters, kk, padded_c)[
        :, :, : spec.in_channels
    ] = data.filter_masks.reshape(n_filters, kk, spec.in_channels)
    filt_packed = np.packbits(fmask, axis=-1)  # (F, n_chunks, ceil(chunk/8))
    filter_chunk_nnz = count_true(fmask, -1, chunk).astype(np.int64)
    telemetry.count("kernel.positions_simulated", n_sel)
    telemetry.count("kernel.bytes_packed", win_packed.nbytes + filt_packed.nbytes)

    counts = None
    if need_counts:
        dtype = count_dtype(chunk)
        words = (chunk + 63) // 64
        # (n_chunks, words, n_sel) word-major window words; (n_chunks, F,
        # words) filter words -- the native kernel's layout contract.
        w64 = np.ascontiguousarray(_as_words(win_packed, words).transpose(1, 2, 0))
        f64 = np.ascontiguousarray(_as_words(filt_packed, words).transpose(1, 0, 2))
        got = native.match_counts(w64, f64, n_filters, dtype)
        if got is not None:
            telemetry.count("kernel.native_dispatch")
            counts, pos_sums = got
            match_sums = pos_sums.astype(np.float64)
        else:
            telemetry.count("kernel.gemm_dispatch")
            counts, match_sums = _match_counts_gemm(
                _unpack(win_packed, chunk), fmask, dtype
            )
    else:
        telemetry.count("kernel.matvec_dispatch")
        match_sums = _match_totals_gemm(_unpack(win_packed, chunk), fmask)

    return ChunkWork(
        counts=counts,
        input_pop=input_pop,
        match_sums=match_sums,
        assignment=assignment,
        n_chunks=n_chunks,
        filter_chunk_nnz=filter_chunk_nnz,
    )


def batch_workloads(
    spec,
    cfg: HardwareConfig,
    seed: int,
    data: LayerMasks | None,
    work: ChunkWork | None,
    need_counts: bool,
):
    """Yield each batch image's ``(data, work)``, memoised when possible.

    When *data* is supplied the caller owns the (single-image) workload
    and only missing chunk work is computed. Otherwise every image routes
    through :func:`repro.core.workload.get_workload`, so batched
    simulator runs hit the LRU and disk store exactly like the
    single-image comparison path does.
    """
    if data is not None:
        if work is None:
            work = compute_chunk_work(data, cfg, need_counts=need_counts)
        yield data, work
        return
    # Lazy import: repro.core.__init__ pulls in the simulators, which
    # import this module.
    from repro.core import workload

    for image in range(cfg.batch):
        yield workload.get_workload(spec, cfg, seed + image, need_counts=need_counts)


def _as_words(packed: np.ndarray, words: int) -> np.ndarray:
    """View packed mask bytes as uint64 words, zero-padding the tail."""
    nbytes = packed.shape[-1]
    if nbytes != words * 8:
        widened = np.zeros(packed.shape[:-1] + (words * 8,), dtype=np.uint8)
        widened[..., :nbytes] = packed
        packed = widened
    return packed.view(np.uint64)


def _unpack(packed: np.ndarray, chunk: int) -> np.ndarray:
    """Bool windows ``(..., chunk)`` from their packed chunk bytes."""
    return np.unpackbits(packed, axis=-1, count=chunk).view(bool)


def _match_counts_gemm(
    windows: np.ndarray, fmask: np.ndarray, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Fallback match counts: blocked batched float32 GEMM over the masks.

    Fills the same filter-major storage as the native kernel and returns
    its ``(n_chunks, n_sel, F)`` view. Exact because every product/sum is
    an integer below 2**24.
    """
    n_sel, n_chunks, chunk = windows.shape
    n_filters = fmask.shape[0]
    f = fmask.transpose(1, 0, 2).astype(np.float32)  # (n_chunks, F, chunk)
    storage = np.empty((n_chunks, n_filters, n_sel), dtype=dtype)
    match_sums = np.zeros(n_sel, dtype=np.float64)
    block = max(1, _GEMM_BLOCK_ELEMS // max(1, n_chunks * chunk))
    for lo in range(0, n_sel, block):
        hi = min(lo + block, n_sel)
        w = windows[lo:hi].transpose(1, 2, 0).astype(np.float32)
        blk = np.matmul(f, w).astype(dtype)  # (n_chunks, F, hi - lo)
        storage[:, :, lo:hi] = blk
        match_sums[lo:hi] = blk.sum(axis=(0, 1), dtype=np.int64)
    return storage.transpose(0, 2, 1), match_sums


def _match_totals_gemm(windows: np.ndarray, fmask: np.ndarray) -> np.ndarray:
    """Per-position match totals without the counts tensor (one matvec).

    Summing filters first is exact: per-chunk column sums are <= F, and
    the accumulation runs in float64 (every partial sum is an integer,
    far below 2**53). The chunk axis is flattened into the dot length so
    each block is a single large GEMV -- a batched ``(n_chunks, blk,
    chunk) @ (n_chunks, chunk, 1)`` degenerates into ``n_chunks`` tiny
    matvecs and runs an order of magnitude slower.
    """
    n_sel, n_chunks, chunk = windows.shape
    colsums = fmask.sum(axis=0, dtype=np.float64).reshape(-1)  # (n_chunks * chunk,)
    match_sums = np.empty(n_sel, dtype=np.float64)
    block = max(1, _GEMM_BLOCK_ELEMS // max(1, n_chunks * chunk))
    flat = windows.reshape(n_sel, n_chunks * chunk)
    for lo in range(0, n_sel, block):
        hi = min(lo + block, n_sel)
        match_sums[lo:hi] = flat[lo:hi].astype(np.float64) @ colsums
    return match_sums
