"""The SparTen cycle-level simulator (paper Sections 3.2-3.3, 4).

Models a machine of ``n_clusters`` clusters of ``units_per_cluster``
asynchronous compute units. Output positions are sliced contiguously
across clusters; within a cluster, every filter group is processed for
every owned position, chunk by chunk, with an implicit barrier at each
input-chunk broadcast: the cluster's time for a chunk is the slowest
unit's match count (what greedy balancing equalises).

Variants (all through one code path, selected by arguments):

- ``sided="two"`` with ``variant`` in {"no_gb", "gb_s", "gb_h"} -- the
  SparTen family. GB-S/GB-H collocate filter pairs per unit (groups of
  ``2 x units``); GB-H re-pairs per chunk and pays the (hidable)
  permutation-network latency.
- ``sided="one"`` -- only the feature map is sparse (filters dense), the
  proxy for Cnvlutin / Cambricon-X / EIE idling: every unit's chunk work
  is the input chunk's non-zero count, so there is no imbalance, but
  filter zeros burn multiplies.

The simulator also captures residual load imbalance after GB (the paper's
"any residual load imbalance even after greedy balancing") because the
barrier maxima are computed from the *actual* per-position match counts,
while GB pairs by the offline density proxy.
"""

from __future__ import annotations

import numpy as np

from repro import profiling, telemetry
from repro.arch.memory import layer_traffic
from repro.arch.permute import PermutationNetwork
from repro.balance.greedy import (
    BalancePlan,
    collocation_helps,
    gb_h_plan,
    gb_s_plan,
    no_gb_plan,
)
from repro.nets.synthesis import LayerMasks
from repro.nets.layers import ConvLayerSpec
from repro.sim import reduce
from repro.sim.config import HardwareConfig
from repro.sim.kernels import ChunkWork, batch_workloads
from repro.sim.results import Breakdown, LayerResult, observability_extras

__all__ = [
    "simulate_sparten",
    "sparten_variant_plan",
    "two_sided_reduction_spec",
    "SCHEME_NAMES",
]

#: Scheme label per (sided, variant).
SCHEME_NAMES = {
    ("one", None): "one_sided",
    ("two", "no_gb"): "sparten_no_gb",
    ("two", "gb_s"): "sparten_gb_s",
    ("two", "gb_h"): "sparten",
}


def sparten_variant_plan(
    data: LayerMasks,
    cfg: HardwareConfig,
    variant: str,
    chunk_nnz: np.ndarray | None = None,
) -> BalancePlan:
    """Build the greedy-balancing plan for a variant.

    *chunk_nnz* is the workload's ``ChunkWork.filter_chunk_nnz``, which
    spares the GB plans a pass over the filter masks. Collocation is part of the GB plans regardless of filter count; the
    paper's static too-few-filters check is applied (optionally) by the
    simulator via ``auto_disable_collocation``, not here, so the plan
    always reflects the variant's mechanics.
    """
    units = cfg.units_per_cluster
    masks = data.filter_masks
    if variant == "no_gb":
        return no_gb_plan(masks, units)
    if variant not in ("gb_s", "gb_h"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "gb_s":
        return gb_s_plan(masks, units, chunk_nnz=chunk_nnz)
    return gb_h_plan(masks, units, chunk_size=cfg.chunk_size, chunk_nnz=chunk_nnz)


def simulate_sparten(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    variant: str = "gb_h",
    sided: str = "two",
    data: LayerMasks | None = None,
    work: ChunkWork | None = None,
    seed: int = 0,
    auto_disable_collocation: bool = False,
) -> LayerResult:
    """Simulate one layer on SparTen (or its one-sided configuration).

    Args:
        spec: the layer. A workload is synthesised from (spec, seed) per
            batch image unless *data*/*work* supply it (single image).
        cfg: hardware configuration; ``cfg.batch`` images are simulated
            and their cluster cycles accumulate (clusters process the
            batch's images back to back).
        variant: ``"no_gb"``, ``"gb_s"`` or ``"gb_h"`` (two-sided only).
        sided: ``"two"`` or ``"one"``.
        data / work: pre-synthesised workload and its chunk work (reuse
            across variants -- they share the expensive mask matmuls).
        seed: base image seed for the batch.
        auto_disable_collocation: apply the paper's *static check* and
            fall back to sorted-but-unpaired execution when the layer has
            too few filters for pairing (Section 3.3). The paper's own
            evaluation runs with the check off -- Figure 8's 5x5-reduce
            layers show the resulting half-idle clusters -- so the
            default here is ``False``; the ablation bench sweeps it.
    """
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided!r}")
    scheme = SCHEME_NAMES[(sided, variant if sided == "two" else None)]
    units = cfg.units_per_cluster
    n_clusters = cfg.n_clusters

    bins = profiling.timeline_bins()

    cluster_cycles = np.zeros(n_clusters, dtype=np.float64)
    nonzero = 0.0
    zero = 0.0
    intra = 0.0
    permute_total = 0.0
    barriers_total = 0.0
    busy_c = np.zeros(n_clusters, dtype=np.float64)
    zero_c = np.zeros(n_clusters, dtype=np.float64)
    wait_c = np.zeros(n_clusters, dtype=np.float64)
    permute_c = np.zeros(n_clusters, dtype=np.float64)
    hwm: dict[str, float] = {}
    tl_cycles = np.zeros((n_clusters, bins), dtype=np.float64) if bins else None
    tl_busy = np.zeros((n_clusters, bins), dtype=np.float64) if bins else None

    for img_data, img_work in batch_workloads(
        spec, cfg, seed, data, work, need_counts=(sided == "two")
    ):
        if sided == "two":
            stats = _two_sided_cluster_cycles(
                img_data, img_work, cfg, variant, auto_disable_collocation
            )
        else:
            stats = _one_sided_cluster_cycles(img_data, img_work, cfg)
        cluster_cycles += stats["cluster_cycles"]
        nonzero += stats["nonzero"]
        zero += stats["zero"]
        intra += stats["intra"]
        permute_total += stats.get("permute", 0.0)
        barriers_total += stats.get("barriers", 0.0)
        weights = img_work.assignment.weight_of
        cluster_of = img_work.assignment.cluster_of
        barrier = stats["per_pos_barrier"]
        slots = stats["per_pos_slots"]
        useful = stats["per_pos_useful"]
        permute_slots = stats["per_pos_permute"] * units
        busy_c += np.bincount(
            cluster_of, weights=useful * weights, minlength=n_clusters
        )
        zero_c += np.bincount(
            cluster_of, weights=(slots - useful) * weights, minlength=n_clusters
        )
        wait_c += np.bincount(
            cluster_of,
            weights=(barrier * units - slots - permute_slots) * weights,
            minlength=n_clusters,
        )
        permute_c += np.bincount(
            cluster_of, weights=permute_slots * weights, minlength=n_clusters
        )
        hwm_entries = {
            "input_chunk_values": float(img_work.input_pop.max(initial=0)),
            "filter_chunk_values": float(
                img_work.filter_chunk_nnz.max(initial=0)
            ),
            "output_collector_entries": float(
                2 * units if stats.get("collocated") else units
            ),
        }
        for key, value in hwm_entries.items():
            hwm[key] = max(hwm.get(key, value), value)
        if bins:
            img_tl_cycles, img_tl_busy = profiling.positional_timeline(
                cluster_of, barrier * weights, slots * weights, n_clusters, bins
            )
            tl_cycles += img_tl_cycles
            tl_busy += img_tl_busy

    layer_cycles = float(cluster_cycles.max())
    inter = float(np.sum((layer_cycles - cluster_cycles) * units))
    breakdown = Breakdown(
        nonzero_macs=nonzero, zero_macs=zero, intra_loss=intra, inter_loss=inter
    )
    traffic = layer_traffic(
        spec,
        scheme="one_sided" if sided == "one" else "two_sided",
        chunk_size=cfg.chunk_size,
    )
    # Per-simulator observability: utilization is useful MACs over all
    # MAC-cycles; the idle terms split the paper's intra/inter losses
    # (inter = the load-imbalance idle the greedy balancers target).
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
        permute_stall=permute_c,
        imbalance_idle=(layer_cycles - cluster_cycles) * units,
        memory_stall=np.zeros(n_clusters, dtype=np.float64),
        barriers=barriers_total,
        buffer_hwm=hwm,
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
        traffic=traffic,
        extras={
            **extras,
            "permute_cycles": permute_total,
            "barriers": barriers_total,
            "variant": variant if sided == "two" else None,
        },
        counters=counters,
    )
    profiling.record_layer(result)
    return result


def two_sided_reduction_spec(
    plan: BalancePlan, cfg: HardwareConfig, collocate: bool
) -> reduce.GroupReduction:
    """The reduction-engine spec for a SparTen variant's plan.

    GB-H routes partial sums through the thinned, pipelined network.
    A unit only ships its accumulated partials when its pair assignment
    *changes* for the next chunk (unchanged pairs accumulate locally);
    all 2 x units sums flush after the last chunk. Stage latency hides
    under the next chunk's compute; what cannot hide is *throughput*:
    about half the shipped values cross the bisection, so a chunk that
    ships ``m`` values needs ``ceil(m / 2 / bisection_width)`` cycles --
    the paper's "8 4-value batches" example for 32 values at width 4.
    Those per-(chunk, group) floors ride along in the spec; the shortfall
    below them stalls the whole cluster (unhidden permute cycles).
    """
    units = cfg.units_per_cluster
    if collocate and plan.variant == "gb_s":
        return reduce.static_pairs(plan.pairing, units)
    if collocate and plan.variant == "gb_h":
        floors = None
        if units >= 2:
            PermutationNetwork(units, bisection_width=cfg.bisection_width)  # validates
            floors = reduce.gb_h_route_floors(
                plan.chunk_pairing, units, cfg.bisection_width
            )
        return reduce.chunk_pairs(plan.chunk_pairing, units, floors)
    return reduce.order_groups(plan.order, units)


def _two_sided_cluster_cycles(
    data: LayerMasks,
    work: ChunkWork,
    cfg: HardwareConfig,
    variant: str,
    auto_disable_collocation: bool = False,
) -> dict:
    """Cluster cycle totals and breakdown terms for the SparTen variants."""
    units = cfg.units_per_cluster
    n_filters = data.spec.n_filters
    weights = work.assignment.weight_of  # (n_sel,)
    cluster_of = work.assignment.cluster_of

    plan = sparten_variant_plan(data, cfg, variant, work.filter_chunk_nnz)
    collocate = plan.collocated
    if auto_disable_collocation and not collocation_helps(n_filters, units):
        collocate = False

    # One engine pass per scheme: barrier = max unit work per filter
    # group per chunk (>= 1 cycle per broadcast, >= the GB-H routing
    # floor), accumulated per position over all chunks and groups.
    rspec = two_sided_reduction_spec(plan, cfg, collocate)
    red = reduce.reduce_scheme(work, rspec)
    per_pos_barrier = red.barrier  # sum over groups+chunks
    per_pos_busy = red.busy  # sum of unit work
    per_pos_permute = red.permute  # unhidden routing

    # Per-cluster wall cycles: weighted sum of per-position barriers.
    cluster_cycles = np.bincount(
        cluster_of, weights=per_pos_barrier * weights, minlength=cfg.n_clusters
    )
    nonzero = float(np.sum(per_pos_busy * weights))
    intra = float(np.sum((per_pos_barrier * units - per_pos_busy) * weights))

    return {
        "cluster_cycles": cluster_cycles,
        "nonzero": nonzero,
        "zero": 0.0,
        "intra": intra,
        "permute": float(per_pos_permute.sum()),
        "barriers": float(rspec.n_groups * work.n_chunks),
        "collocated": collocate,
        # Per-position views for the hardware counters: occupied slots
        # equal useful work (every two-sided multiply is effectual).
        "per_pos_barrier": per_pos_barrier,
        "per_pos_slots": per_pos_busy,
        "per_pos_useful": per_pos_busy,
        "per_pos_permute": per_pos_permute,
    }


def _one_sided_cluster_cycles(
    data: LayerMasks, work: ChunkWork, cfg: HardwareConfig
) -> dict:
    """Cluster cycle totals for the one-sided configuration.

    Every unit processes the input chunk's non-zero count regardless of
    its filter (filters are dense), so units are perfectly balanced; the
    cost is multiplying non-zero inputs with zero filter weights.
    """
    spec = data.spec
    units = cfg.units_per_cluster
    weights = work.assignment.weight_of
    cluster_of = work.assignment.cluster_of
    n_filters = spec.n_filters
    n_groups = int(np.ceil(n_filters / units))

    red = reduce.one_sided(work.input_pop, n_filters, units)
    per_pos_barrier = red.barrier
    per_pos_pop = red.busy

    cluster_cycles = np.bincount(
        cluster_of, weights=per_pos_barrier * weights, minlength=cfg.n_clusters
    )
    # Ops: each of the n_filters filters processes every input non-zero.
    total_ops = float(np.sum(per_pos_pop * weights)) * n_filters
    nonzero = float(np.sum(work.match_sums * weights))
    zero = total_ops - nonzero
    # Intra loss: idle units in the last (partial) filter group, plus the
    # min-1-cycle broadcast slots.
    busy = total_ops
    total_slots = float(np.sum(per_pos_barrier * weights)) * units
    intra = total_slots - busy
    n_chunks = work.n_chunks
    return {
        "cluster_cycles": cluster_cycles,
        "nonzero": nonzero,
        "zero": zero,
        "intra": intra,
        "barriers": float(n_groups * n_chunks),
        "collocated": False,
        # Per-position views for the hardware counters: every filter
        # processes every input non-zero, so occupied slots are
        # pop x n_filters and the useful subset is the match count.
        "per_pos_barrier": per_pos_barrier,
        "per_pos_slots": per_pos_pop * n_filters,
        "per_pos_useful": work.match_sums.astype(np.float64),
        "per_pos_permute": np.zeros_like(per_pos_barrier),
    }
