"""The TPU-like dense accelerator baseline (paper Sections 4-5).

Every tensor element is multiplied -- zeros included -- so the simulator
"captures the zero computations, which provide opportunity for the sparse
architectures, without imposing sparse computation overheads". With equal
MAC counts (Table 2) and perfectly regular dataflow, a dense cluster's
time for one output cell and one filter is exactly the dot-product length
``k*k*C`` (padding zeros included, as an im2col systolic pipeline would
stream them); the only losses are inter-cluster (uneven position
partitioning, insufficient work) and idle units when a layer's filter
count is not a multiple of the cluster width.
"""

from __future__ import annotations

import numpy as np

from repro import profiling, telemetry
from repro.arch.memory import layer_traffic
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerMasks
from repro.sim.config import HardwareConfig
from repro.sim.kernels import ChunkWork, batch_workloads
from repro.sim.results import Breakdown, LayerResult, observability_extras

__all__ = ["simulate_dense"]


def simulate_dense(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    data: LayerMasks | None = None,
    work: ChunkWork | None = None,
    seed: int = 0,
    naive_buffers: bool = False,
) -> LayerResult:
    """Simulate one layer on the dense accelerator.

    ``naive_buffers`` tags the result as the Dense-naive configuration of
    Figure 13 (identical performance; the energy model charges SparTen's
    buffering instead of the dense 8 B/MAC).
    """
    units = cfg.units_per_cluster
    n_clusters = cfg.n_clusters
    dot_length = spec.kernel * spec.kernel * spec.in_channels
    n_groups = int(np.ceil(spec.n_filters / units))

    bins = profiling.timeline_bins()

    cluster_cycles = np.zeros(n_clusters, dtype=np.float64)
    nonzero = 0.0
    total_mult_slots = 0.0
    busy_c = np.zeros(n_clusters, dtype=np.float64)
    zero_c = np.zeros(n_clusters, dtype=np.float64)
    wait_c = np.zeros(n_clusters, dtype=np.float64)
    tl_cycles = np.zeros((n_clusters, bins), dtype=np.float64) if bins else None
    tl_busy = np.zeros((n_clusters, bins), dtype=np.float64) if bins else None

    for img_data, img_work in batch_workloads(
        spec, cfg, seed, data, work, need_counts=False
    ):
        assignment = img_work.assignment
        # Every owned position costs n_groups * dot_length cycles.
        img_cycles = (
            assignment.cluster_positions.astype(np.float64) * n_groups * dot_length
        )
        cluster_cycles += img_cycles
        nonzero += float(np.sum(img_work.match_sums * assignment.weight_of))
        # Multiplies actually issued: full dot products on every unit that
        # holds a filter (idle units in a partial last group issue none).
        total_mult_slots += float(
            assignment.cluster_positions.sum() * spec.n_filters * dot_length
        )
        weights = assignment.weight_of
        cluster_of = assignment.cluster_of
        issued_c = (
            assignment.cluster_positions.astype(np.float64)
            * spec.n_filters
            * dot_length
        )
        useful_c = np.bincount(
            cluster_of,
            weights=img_work.match_sums * weights,
            minlength=n_clusters,
        )
        busy_c += useful_c
        zero_c += issued_c - useful_c
        wait_c += img_cycles * units - issued_c
        if bins:
            per_pos = np.full(cluster_of.size, float(n_groups * dot_length))
            img_tl_cycles, img_tl_busy = profiling.positional_timeline(
                cluster_of,
                per_pos * weights,
                np.full(cluster_of.size, float(spec.n_filters * dot_length))
                * weights,
                n_clusters,
                bins,
            )
            tl_cycles += img_tl_cycles
            tl_busy += img_tl_busy

    layer_cycles = float(cluster_cycles.max())
    zero = total_mult_slots - nonzero
    # Idle units in the last filter group while their cluster is busy.
    busy_slots = float(cluster_cycles.sum()) * units
    intra = busy_slots - total_mult_slots
    inter = float(np.sum((layer_cycles - cluster_cycles) * units))
    breakdown = Breakdown(
        nonzero_macs=nonzero, zero_macs=zero, intra_loss=intra, inter_loss=inter
    )
    scheme = "dense_naive" if naive_buffers else "dense"
    extras = observability_extras(breakdown)
    telemetry.count(f"sim.{scheme}.layers")
    telemetry.count(f"sim.{scheme}.cycles", layer_cycles)
    telemetry.gauge(f"sim.{scheme}.mac_utilization", extras["mac_utilization"])
    counters = profiling.CounterSet(
        scheme=scheme,
        n_clusters=n_clusters,
        units_per_cluster=units,
        total_cycles=layer_cycles,
        busy=busy_c,
        filter_zero=zero_c,
        barrier_wait=wait_c,
        permute_stall=np.zeros(n_clusters, dtype=np.float64),
        imbalance_idle=(layer_cycles - cluster_cycles) * units,
        memory_stall=np.zeros(n_clusters, dtype=np.float64),
        timeline_cycles=tl_cycles,
        timeline_busy=tl_busy,
    )
    result = LayerResult(
        scheme=scheme,
        layer_name=spec.name,
        cycles=layer_cycles,
        compute_cycles=layer_cycles,
        total_macs=cfg.total_macs,
        breakdown=breakdown,
        traffic=layer_traffic(spec, scheme="dense", chunk_size=cfg.chunk_size),
        extras={
            **extras,
            "filter_groups": n_groups,
            "dot_length": dot_length,
        },
        counters=counters,
    )
    profiling.record_layer(result)
    return result
