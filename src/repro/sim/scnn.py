"""The SCNN simulator (paper Sections 2.1, 2.1.1 and 4).

SCNN is *input stationary*: the input map is tiled in X-Y across a grid
of PEs (8x8 large, 4x4 small); each PE holds its tile for all channels.
Filters are broadcast in output groups (8 filters), channel by channel;
per channel, a PE's 4x4 multiplier array computes the Cartesian product
of the tile-channel's non-zero inputs with the group-channel's non-zero
weights -- 4 inputs x 4 weights per cycle, so a channel costs
``ceil(I/4) * ceil(W/4)`` cycles and wastes the fractional remainder
(intra-PE loss). Each broadcast imposes an inter-PE barrier, exposing
load imbalance from (1) varying tile sparsity, (2) truncated edge tiles,
and (3) the leftover tile remainder -- all reproduced here because tiles
are cut with the methodology's 6x6 cap and assigned round-robin.

Non-unit stride: the Cartesian product assumes every input meets every
weight, true only for stride 1. For stride s only ~1/s^2 of products land
on valid outputs; the rest are computed and discarded (counted as zero /
ineffectual computation), which is why SCNN collapses on AlexNet Layer 0.

Variants: ``two`` (SCNN proper), ``one`` (SCNN-one-sided: dense weights),
``dense`` (SCNN-dense: dense inputs and weights) -- the paper's sanity
checks that inherit SCNN's overheads.
"""

from __future__ import annotations

import numpy as np

from repro import profiling, telemetry
from repro.arch.memory import layer_traffic
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerMasks
from repro.sim.config import HardwareConfig
from repro.sim.kernels import count_true
from repro.sim.results import Breakdown, LayerResult, observability_extras

__all__ = ["simulate_scnn", "scnn_tile_plan", "scnn_closed_form"]


def scnn_tile_plan(
    spec: ConvLayerSpec, cfg: HardwareConfig
) -> tuple[int, int, int, int]:
    """SCNN's input tiling: (tile_h, tile_w, n_tiles_y, n_tiles_x).

    Tile side is the methodology's 6 (the best point of the paper's tile
    search under 1K accumulators and output-group 8), shrunk to
    ``ceil(extent / grid)`` on small maps so the PE grid stays coverable.
    """
    gh, gw = cfg.scnn_pe_grid
    tile_h = max(1, min(cfg.scnn_max_tile, int(np.ceil(spec.in_height / gh))))
    tile_w = max(1, min(cfg.scnn_max_tile, int(np.ceil(spec.in_width / gw))))
    n_ty = int(np.ceil(spec.in_height / tile_h))
    n_tx = int(np.ceil(spec.in_width / tile_w))
    return tile_h, tile_w, n_ty, n_tx


def simulate_scnn(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    variant: str = "two",
    data: LayerMasks | None = None,
    seed: int = 0,
) -> LayerResult:
    """Simulate one layer on SCNN (or its dense/one-sided variants)."""
    if variant not in ("two", "one", "dense"):
        raise ValueError(f"variant must be 'two', 'one' or 'dense', got {variant!r}")
    scheme = {"two": "scnn", "one": "scnn_one_sided", "dense": "scnn_dense"}[variant]

    cycles_total = 0.0
    useful = 0.0
    issued = 0.0
    inter = 0.0
    stride_waste = 0.0
    operand_zero = 0.0
    counters = None

    if data is not None:
        batch_items = [data]
    else:
        # Route per-image synthesis through the layer-mask memo so batched
        # runs share workloads with the other simulators.
        from repro.core import workload

        batch_items = [
            workload.get_layer_masks(spec, seed=seed + image)
            for image in range(cfg.batch)
        ]
    for img_data in batch_items:
        s = _scnn_image_stats(img_data, cfg, variant, scheme=scheme)
        cycles_total += s["cycles"]
        useful += s["useful"]
        issued += s["issued"]
        inter += s["inter"]
        stride_waste += s["stride_waste"]
        operand_zero += s["operand_zero"]
        counters = s["counters"] if counters is None else counters + s["counters"]

    intra = issued - useful - stride_waste - operand_zero
    breakdown = Breakdown(
        nonzero_macs=useful,
        zero_macs=stride_waste + operand_zero,
        intra_loss=intra,
        inter_loss=inter,
    )
    traffic_scheme = {"two": "two_sided", "one": "one_sided", "dense": "dense"}[variant]
    extras = observability_extras(breakdown)
    telemetry.count(f"sim.{scheme}.layers")
    telemetry.count(f"sim.{scheme}.cycles", cycles_total)
    telemetry.gauge(f"sim.{scheme}.mac_utilization", extras["mac_utilization"])
    result = LayerResult(
        scheme=scheme,
        layer_name=spec.name,
        cycles=cycles_total,
        compute_cycles=cycles_total,
        total_macs=cfg.scnn_n_pes * cfg.scnn_macs_per_pe,
        breakdown=breakdown,
        traffic=layer_traffic(spec, scheme=traffic_scheme, chunk_size=cfg.chunk_size),
        extras={
            **extras,
            "variant": variant,
        },
        counters=counters,
    )
    profiling.record_layer(result)
    return result


def _scnn_image_stats(
    data: LayerMasks,
    cfg: HardwareConfig,
    variant: str,
    scheme: str = "scnn",
) -> dict:
    """Cycle/work statistics for one image on SCNN.

    The per-tile histograms come from one pad-and-reshape sum over the
    input mask: zero padding to whole tiles adds no non-zeros, and the
    cell counts clip the edge tiles. All three SCNN variants read the
    same histograms, so they are built once per mask set and tile plan
    and memoised on the masks instance, as read-only arrays.
    """
    spec = data.spec
    plan = scnn_tile_plan(spec, cfg)
    memo = data.__dict__.setdefault("_scnn_histograms", {})
    if plan not in memo:
        tile_h, tile_w, n_ty, n_tx = plan
        h, w, c = spec.in_height, spec.in_width, spec.in_channels
        tiled = np.zeros((n_ty * tile_h, n_tx * tile_w, c), dtype=bool)
        tiled[:h, :w] = data.input_mask
        tile_nnz = count_true(
            tiled.reshape(n_ty, tile_h, n_tx, tile_w, c), (1, 3), tile_h * tile_w
        )
        heights = np.minimum(tile_h, h - np.arange(n_ty) * tile_h)
        widths = np.minimum(tile_w, w - np.arange(n_tx) * tile_w)
        histograms = (
            np.outer(heights, widths).reshape(-1),
            tile_nnz.reshape(n_ty * n_tx, c),
            count_true(data.filter_masks, (1, 2), spec.kernel * spec.kernel),
        )
        for arr in histograms:
            arr.setflags(write=False)
        memo[plan] = histograms
    return scnn_closed_form(spec, cfg, variant, *memo[plan], scheme=scheme)


def scnn_closed_form(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    variant: str,
    cells: np.ndarray,
    tile_nnz: np.ndarray,
    filter_channel_nnz: np.ndarray,
    scheme: str = "scnn",
) -> dict:
    """SCNN's cycle model, closed form in the tile and filter histograms.

    Args:
        cells: (n_tiles,) cells per input tile (edge tiles are clipped).
        tile_nnz: (n_tiles, C) non-zero inputs per tile and channel.
        filter_channel_nnz: (F, C) non-zero weights per filter and channel.

    The simulator and the analytical tier both call this, so the
    analytical SCNN prediction equals the simulator bit for bit. Every
    quantity is an exact integer count until the final floats. The
    per-PE counters ride along under ``"counters"``.
    """
    cells = np.asarray(cells, dtype=np.int64)
    tile_nnz = np.asarray(tile_nnz, dtype=np.int64)
    n_pes = cfg.scnn_n_pes
    mult_in = cfg.scnn_mult_rows
    mult_w = cfg.scnn_mult_cols
    macs_per_pe = mult_in * mult_w
    n_tiles, c = tile_nnz.shape
    group = cfg.scnn_output_group
    n_groups = -(-spec.n_filters // group)

    if variant == "dense":
        tile_counts = np.broadcast_to(cells[:, None], tile_nnz.shape)
    else:
        tile_counts = tile_nnz

    # Per-group, per-channel weight counts: filters padded to whole
    # groups with all-zero members.
    padded = np.zeros((n_groups * group, c), dtype=np.int64)
    padded[: spec.n_filters] = filter_channel_nnz
    group_w_nnz = padded.reshape(n_groups, group, c).sum(axis=1)
    if variant == "two":
        group_weights = group_w_nnz
    else:
        members = np.minimum(group, spec.n_filters - np.arange(n_groups) * group)
        group_weights = np.broadcast_to(
            (members * spec.kernel * spec.kernel)[:, None], (n_groups, c)
        )

    # Round-robin tile -> PE assignment: tile t lands on PE t % n_pes, so
    # padding the tiles to whole rounds of the PE grid and summing the
    # rounds gives each PE's load.
    def per_pe(per_tile: np.ndarray) -> np.ndarray:
        rounds = np.zeros((-(-n_tiles // n_pes) * n_pes, c), dtype=per_tile.dtype)
        rounds[:n_tiles] = per_tile
        return rounds.reshape(-1, n_pes, c).sum(axis=0)

    pe_ceil = per_pe(-(-tile_counts // mult_in))  # (PEs, C) ceil'd input work
    sum_ceil_w = (-(-group_weights // mult_w)).sum(axis=0)  # (C,)

    # Barrier per (group, channel): the weight factor is common to all
    # PEs, so the barrier maximum factorises.
    max_pe = pe_ceil.max(axis=0)  # (C,)
    pe_total = pe_ceil.sum(axis=0)
    cycles = float(np.dot(max_pe, sum_ceil_w))
    issued = float(np.dot(pe_total, sum_ceil_w)) * macs_per_pe
    inter = float(np.dot(n_pes * max_pe - pe_total, sum_ceil_w)) * macs_per_pe

    # Product counts (exact, before the multiplier-array ceil).
    in_total = tile_counts.sum(axis=0).astype(np.float64)  # (C,)
    in_nz_total = tile_nnz.sum(axis=0).astype(np.float64)
    w_total = group_weights.sum(axis=0).astype(np.float64)
    w_nz_total = group_w_nnz.sum(axis=0).astype(np.float64)
    products = float(np.dot(in_total, w_total))
    both_nz = float(np.dot(in_nz_total, w_nz_total))
    operand_zero = products - both_nz
    stride_factor = 1.0 / (spec.stride * spec.stride)
    useful = both_nz * stride_factor
    stride_waste = both_nz - useful

    stats = {
        "cycles": cycles,
        "useful": useful,
        "issued": issued,
        "inter": inter,
        "stride_waste": stride_waste,
        "operand_zero": operand_zero,
    }

    # Per-PE hardware counters. A PE issues for ``pe_ceil * ceil_w``
    # cycles of each (group, channel) broadcast and then waits for the
    # slowest PE, so its occupied slots, exact products and barrier math
    # all factorise over channels exactly like the global statistics.
    in_pe = per_pe(tile_counts).astype(np.float64)
    in_nz_pe = per_pe(tile_nnz).astype(np.float64)
    issued_slots = (pe_ceil * sum_ceil_w[None, :]).astype(np.float64)  # (PEs, C)
    issued_pe = issued_slots.sum(axis=1) * macs_per_pe
    products_pe = in_pe @ w_total
    both_nz_pe = in_nz_pe @ w_nz_total
    useful_pe = both_nz_pe * stride_factor
    timeline_cycles = timeline_busy = None
    bins = profiling.timeline_bins()
    if bins:
        # Channel-axis progress bins: every PE advances through the
        # channels in lockstep (the broadcast barrier), so the wall row
        # is shared and only the occupied slots differ per PE.
        bin_of = (np.arange(c) * bins) // max(c, 1)
        onehot = (bin_of[:, None] == np.arange(bins)[None, :]).astype(np.float64)
        wall_ch = (max_pe * sum_ceil_w).astype(np.float64)
        timeline_cycles = np.tile(wall_ch @ onehot, (n_pes, 1))
        timeline_busy = (issued_slots * macs_per_pe) @ onehot
    stats["counters"] = profiling.CounterSet(
        scheme=scheme,
        n_clusters=n_pes,
        units_per_cluster=macs_per_pe,
        total_cycles=cycles,
        busy=useful_pe,
        filter_zero=products_pe - useful_pe,
        barrier_wait=issued_pe - products_pe,
        permute_stall=np.zeros(n_pes, dtype=np.float64),
        imbalance_idle=cycles * macs_per_pe - issued_pe,
        memory_stall=np.zeros(n_pes, dtype=np.float64),
        barriers=float(n_groups * c),
        buffer_hwm={
            "input_tile_values": float(tile_nnz.max(initial=0)),
            "weight_group_values": float(group_weights.max(initial=0)),
        },
        timeline_cycles=timeline_cycles,
        timeline_busy=timeline_busy,
    )
    return stats
