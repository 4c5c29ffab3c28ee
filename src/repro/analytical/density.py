"""Density statistics: the analytical tier's only input (besides config).

Sparseloop-style analytical models predict accelerator performance from
*density distributions* rather than from per-element simulation. This
module extracts exactly those distributions from the existing workload
cache at the ``need_counts=False`` depth -- the cheap path that computes
window/filter popcount histograms with one bit-packed popcount pass and
per-position match totals with one batched matvec, never materialising
the ``(n_chunks, n_sel, F)`` counts tensor:

- ``input_pop``        -- per-(chunk, position) window non-zero counts,
- ``filter_chunk_nnz`` -- per-(filter, chunk) weight non-zero counts
  (greedy balancing's density proxy),
- ``match_sums``       -- exact per-position useful-MAC totals (the
  calibration anchor: every analytical busy term is exact),
- per-channel input/filter histograms for the SCNN tiling model.

Workloads are memoised through :mod:`repro.core.workload`, so a sweep
that varies only reduction-side knobs (units, bisection width, variant)
extracts its statistics once and predicts every config from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerData
from repro.sim.config import HardwareConfig
from repro.sim.kernels import ChunkWork, PositionAssignment, compute_chunk_work
from repro.tensor.storage import even_slices

__all__ = [
    "DensityStats",
    "extract_density_stats",
    "regroup_stats",
    "stats_from_work",
]


@dataclass(frozen=True)
class DensityStats:
    """Per-filter/per-chunk density distributions of one layer workload.

    Attributes:
        spec: the layer the statistics describe.
        chunk_size: SparseMap chunk width the histograms are cut at.
        n_chunks: chunks per linearised filter/window vector.
        input_pop: (n_chunks, n_sel) window non-zero counts.
        filter_chunk_nnz: (F, n_chunks) filter chunk non-zero counts.
        match_sums: (n_sel,) exact per-position useful MACs (all chunks,
            all filters) -- the analytical model's calibration anchor.
        assignment: position-to-cluster assignment (with sample weights)
            the per-position arrays are indexed by.
        channel_input_nnz: (C,) input-map non-zeros per channel.
        filter_channel_nnz: (F, C) filter non-zeros per channel (summed
            over kernel positions) -- the SCNN weight distribution.
        input_integral: (H+1, W+1, C) int32 summed-area table of the
            input mask: non-zeros of any spatial rectangle in O(1), so
            exact tile histograms for *any* SCNN tile plan come from
            one cfg-agnostic statistic (real activations are spatially
            clustered, which no per-channel density can capture).
    """

    spec: ConvLayerSpec
    chunk_size: int
    n_chunks: int
    input_pop: np.ndarray
    filter_chunk_nnz: np.ndarray
    match_sums: np.ndarray
    assignment: PositionAssignment
    channel_input_nnz: np.ndarray
    filter_channel_nnz: np.ndarray
    input_integral: np.ndarray

    @property
    def n_filters(self) -> int:
        return int(self.filter_chunk_nnz.shape[0])

    @property
    def n_sel(self) -> int:
        return int(self.input_pop.shape[1])

    @property
    def filter_total_nnz(self) -> np.ndarray:
        """Whole-filter non-zero counts (F,) -- the GB sort key."""
        return self.filter_chunk_nnz.sum(axis=1)

    @property
    def total_filter_chunk_nnz(self) -> np.ndarray:
        """Per-chunk non-zeros summed over all filters (n_chunks,)."""
        return self.filter_chunk_nnz.sum(axis=0)

    def rect_nnz(
        self, y0: np.ndarray, y1: np.ndarray, x0: np.ndarray, x1: np.ndarray
    ) -> np.ndarray:
        """Exact per-channel non-zeros of rectangles [y0, y1) x [x0, x1).

        Broadcasts over the rectangle index arrays; returns
        ``(..., C)`` int64 via four summed-area-table lookups.
        """
        ii = self.input_integral
        return (
            ii[y1, x1].astype(np.int64)
            - ii[y0, x1]
            - ii[y1, x0]
            + ii[y0, x0]
        )


def stats_from_work(
    data: LayerData, work: ChunkWork, chunk_size: int
) -> DensityStats:
    """Build :class:`DensityStats` from an already-computed workload.

    Uses only the quantities present at the ``need_counts=False`` depth,
    so it never triggers count materialisation.
    """
    mask = data.input_mask
    integral = np.zeros(
        (mask.shape[0] + 1, mask.shape[1] + 1, mask.shape[2]), dtype=np.int32
    )
    np.cumsum(
        np.cumsum(mask, axis=0, dtype=np.int32), axis=1, out=integral[1:, 1:]
    )
    return DensityStats(
        spec=data.spec,
        chunk_size=int(chunk_size),
        n_chunks=work.n_chunks,
        input_pop=work.input_pop,
        filter_chunk_nnz=work.filter_chunk_nnz,
        match_sums=np.asarray(work.match_sums, dtype=np.float64),
        assignment=work.assignment,
        channel_input_nnz=mask.sum(axis=(0, 1)).astype(np.int64),
        filter_channel_nnz=data.filter_masks.sum(axis=(1, 2)).astype(np.int64),
        input_integral=integral,
    )


def regroup_stats(stats: DensityStats, cfg: HardwareConfig) -> DensityStats:
    """Re-slice *stats* onto a different cluster count, sharing the arrays.

    The per-position statistics (window popcounts, match totals) do not
    depend on the machine geometry -- only the position-to-cluster
    assignment does, and clusters own *contiguous* row-major slices of
    the output map. So statistics extracted once at a canonical geometry
    serve every cluster count in a sweep: each stat position is mapped to
    the cluster whose slice contains it, and its weight rescales the
    in-slice sample to the slice's true position count (the same
    estimator :func:`repro.sim.kernels.assign_positions` uses).

    Per-position arrays are shared (not copied) with the input, which is
    what lets the analytical model reuse group-level work across the
    cluster axis of a sweep. Raises ``ValueError`` when some cluster's
    slice contains no stat position (the sample is too sparse for the
    requested cluster count).
    """
    if cfg.n_clusters == stats.assignment.n_clusters:
        return stats
    n_positions = stats.spec.out_positions
    slices = even_slices(n_positions, cfg.n_clusters)
    starts = np.array([lo for lo, hi in slices], dtype=np.int64)
    counts = np.array([hi - lo for lo, hi in slices], dtype=np.int64)
    indices = stats.assignment.indices
    cluster_of = np.searchsorted(starts, indices, side="right") - 1
    owned = np.bincount(cluster_of, minlength=cfg.n_clusters)
    if np.any((owned == 0) & (counts > 0)):
        raise ValueError(
            f"cannot regroup {indices.size} stat positions onto "
            f"{cfg.n_clusters} clusters: some cluster slice holds no "
            f"sampled position (extract with a larger position sample)"
        )
    weight_of = counts[cluster_of] / np.maximum(owned[cluster_of], 1)
    assignment = PositionAssignment(
        indices=indices,
        cluster_of=cluster_of,
        weight_of=weight_of.astype(np.float64),
        cluster_positions=counts,
    )
    return replace(stats, assignment=assignment)


def extract_density_stats(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    data: LayerData | None = None,
) -> DensityStats:
    """Extract one image's density statistics, memoised via the workload cache.

    With *data* supplied (pipeline-measured workloads), the chunk work is
    computed directly at ``need_counts=False`` depth; otherwise the
    workload routes through :func:`repro.core.workload.get_workload`,
    sharing cache entries with the cycle-level simulators -- and the
    finished :class:`DensityStats` is itself memoised under the same
    content key, so a sweep whose points share a workload (varying only
    units/bisection/variant) extracts once and predicts many times.
    """
    telemetry.count("analytical.extract")
    if data is not None:
        work = compute_chunk_work(data, cfg, need_counts=False)
        return stats_from_work(data, work, cfg.chunk_size)
    # Lazy: repro.core imports the simulators which import us.
    from repro.core import workload

    key = ("density",) + workload.workload_key(spec, cfg, seed)
    stats = workload.cache_get(key)
    if stats is None:
        data, work = workload.get_workload(spec, cfg, seed, need_counts=False)
        stats = stats_from_work(data, work, cfg.chunk_size)
        workload.cache_put(key, stats, arrays=(stats.input_integral,))
    return stats
