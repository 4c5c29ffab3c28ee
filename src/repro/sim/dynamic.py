"""Dynamic filter dispatch: the alternative to GB the paper argues against.

Section 3.3: "instead of GB, dynamically dispatching filters to idle
compute units (1) would result in more filter movement (i.e., loss of
filter reuse) and (2) is unlikely to perform as well as GB which
statically collocates appropriate filter pairs."

This simulator quantifies both halves of that claim. Per (position,
chunk), an idealised dynamic scheduler assigns the group's filter chunks
to units to minimise the makespan; we model it with the standard
list-scheduling bounds, giving the *optimistic* end of what dynamic
dispatch could achieve:

    makespan >= max(ceil(total_work / units), max_single_work)

(the LPT guarantee puts real schedulers within 4/3 of this, so an actual
dynamic machine sits between this model and GB). The price is filter
movement: a unit's resident filter chunk changes almost every step, so
filter chunks stream per (position, chunk) instead of being fetched once
and reused across the whole output slice -- counted in
``extras["filter_refetch_bytes"]`` against the static scheme's
``extras["filter_resident_bytes"]``.
"""

from __future__ import annotations

import numpy as np

from repro import profiling, telemetry
from repro.arch.memory import layer_traffic
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerMasks
from repro.sim import reduce
from repro.sim.config import HardwareConfig
from repro.sim.kernels import ChunkWork, batch_workloads
from repro.sim.results import Breakdown, LayerResult, observability_extras

__all__ = ["simulate_dynamic_dispatch"]


def simulate_dynamic_dispatch(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    data: LayerMasks | None = None,
    work: ChunkWork | None = None,
    seed: int = 0,
) -> LayerResult:
    """Simulate idealised dynamic filter dispatch on the SparTen fabric.

    Uses the same chunk-level match counts as the SparTen simulator but
    replaces the static filter->unit assignment with the per-chunk
    makespan lower bound, and accounts the filter-movement traffic the
    paper warns about.
    """
    units = cfg.units_per_cluster
    n_clusters = cfg.n_clusters

    bins = profiling.timeline_bins()

    cluster_cycles = np.zeros(n_clusters, dtype=np.float64)
    nonzero = 0.0
    intra = 0.0
    refetch_bytes = 0.0
    busy_c = np.zeros(n_clusters, dtype=np.float64)
    wait_c = np.zeros(n_clusters, dtype=np.float64)
    tl_cycles = np.zeros((n_clusters, bins), dtype=np.float64) if bins else None
    tl_busy = np.zeros((n_clusters, bins), dtype=np.float64) if bins else None

    for img_data, img_work in batch_workloads(
        spec, cfg, seed, data, work, need_counts=True
    ):
        weights = img_work.assignment.weight_of
        cluster_of = img_work.assignment.cluster_of
        n_chunks = img_work.n_chunks
        n_filters = img_data.spec.n_filters

        # Same residency as GB's collocation: 2 x units filters per pass,
        # each pass bounded by the list-scheduling makespan
        # max(ceil(total / units), peak) and one cycle per broadcast.
        rspec = reduce.order_groups(
            np.arange(n_filters, dtype=np.int64), 2 * units, dyn_units=units
        )
        red = reduce.reduce_scheme(img_work, rspec)
        per_pos_barrier = red.barrier
        per_pos_busy = red.busy

        cluster_cycles += np.bincount(
            cluster_of, weights=per_pos_barrier * weights, minlength=n_clusters
        )
        nonzero += float(np.sum(per_pos_busy * weights))
        intra += float(np.sum((per_pos_barrier * units - per_pos_busy) * weights))
        busy_c += np.bincount(
            cluster_of, weights=per_pos_busy * weights, minlength=n_clusters
        )
        wait_c += np.bincount(
            cluster_of,
            weights=(per_pos_barrier * units - per_pos_busy) * weights,
            minlength=n_clusters,
        )
        if bins:
            img_tl_cycles, img_tl_busy = profiling.positional_timeline(
                cluster_of,
                per_pos_barrier * weights,
                per_pos_busy * weights,
                n_clusters,
                bins,
            )
            tl_cycles += img_tl_cycles
            tl_busy += img_tl_busy

        # Filter movement: every (position, chunk, unit-slot) fetches a
        # chunk's mask + values instead of holding it resident. Use the
        # mean filter-chunk payload.
        mean_chunk_values = float(img_work.filter_chunk_nnz.mean())
        chunk_payload = cfg.chunk_size / 8.0 + mean_chunk_values  # mask + values
        fetches = float(np.sum(weights)) * n_chunks * min(units, n_filters)
        refetch_bytes += fetches * chunk_payload * n_clusters / n_clusters

    layer_cycles = float(cluster_cycles.max())
    inter = float(np.sum((layer_cycles - cluster_cycles) * units))
    breakdown = Breakdown(
        nonzero_macs=nonzero, zero_macs=0.0, intra_loss=intra, inter_loss=inter
    )
    base_traffic = layer_traffic(spec, "two_sided", chunk_size=cfg.chunk_size)
    # What the static scheme moves for filters: each chunk fetched once.
    from repro.arch.memory import layer_traffic_detailed

    _inp, filter_t, _out = layer_traffic_detailed(
        spec, "two_sided", chunk_size=cfg.chunk_size
    )
    resident_bytes = filter_t.total_bytes
    extras = observability_extras(breakdown)
    telemetry.count("sim.sparten_dynamic.layers")
    telemetry.count("sim.sparten_dynamic.cycles", layer_cycles)
    telemetry.gauge("sim.sparten_dynamic.mac_utilization", extras["mac_utilization"])
    counters = profiling.CounterSet(
        scheme="sparten_dynamic",
        n_clusters=n_clusters,
        units_per_cluster=units,
        total_cycles=layer_cycles,
        busy=busy_c,
        filter_zero=np.zeros(n_clusters, dtype=np.float64),
        barrier_wait=wait_c,
        permute_stall=np.zeros(n_clusters, dtype=np.float64),
        imbalance_idle=(layer_cycles - cluster_cycles) * units,
        memory_stall=np.zeros(n_clusters, dtype=np.float64),
        timeline_cycles=tl_cycles,
        timeline_busy=tl_busy,
    )
    result = LayerResult(
        scheme="sparten_dynamic",
        layer_name=spec.name,
        cycles=layer_cycles,
        compute_cycles=layer_cycles,
        total_macs=cfg.total_macs,
        breakdown=breakdown,
        traffic=base_traffic,
        extras={
            **extras,
            "filter_refetch_bytes": refetch_bytes,
            "filter_resident_bytes": resident_bytes,
            "idealised": True,
        },
        counters=counters,
    )
    profiling.record_layer(result)
    return result
