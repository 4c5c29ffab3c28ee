"""The original loop kernels, kept verbatim as speed baselines.

``compute_chunk_work`` was rewritten around a single im2col gather plus a
bit-packed popcount kernel, and the per-scheme reductions moved from
Python group loops into the reduction engine (:mod:`repro.sim.reduce`); the
benchmarks time these frozen copies of the original loops to report the
speedups (and the tests keep their own copies to pin bit-identical
results).
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernels import ChunkWork, assign_positions
from repro.tensor.sparsemap import padded_length


def reference_chunk_work(data, cfg, need_counts: bool = True) -> ChunkWork:
    spec = data.spec
    chunk = cfg.chunk_size
    padded_c = padded_length(spec.in_channels, chunk)
    cpc = padded_c // chunk
    n_chunks = spec.kernel * spec.kernel * cpc

    assignment = assign_positions(
        spec.out_positions, cfg.n_clusters, cfg.position_sample
    )
    sel = assignment.indices
    oy = sel // spec.out_width
    ox = sel % spec.out_width

    in_mask = data.input_mask
    if spec.padding:
        p = spec.padding
        padded = np.zeros(
            (spec.in_height + 2 * p, spec.in_width + 2 * p, spec.in_channels),
            dtype=bool,
        )
        padded[p : p + spec.in_height, p : p + spec.in_width] = in_mask
    else:
        padded = in_mask

    filt = data.filter_masks  # (F, k, k, C)
    n_filters = spec.n_filters
    n_sel = sel.size

    counts = (
        np.zeros((n_chunks, n_sel, n_filters), dtype=np.uint8) if need_counts else None
    )
    input_pop = np.zeros((n_chunks, n_sel), dtype=np.int32)
    match_sums = np.zeros(n_sel, dtype=np.float64)
    filter_chunk_nnz = np.zeros((n_filters, n_chunks), dtype=np.int64)

    rows = oy * spec.stride
    cols = ox * spec.stride
    for ky in range(spec.kernel):
        for kx in range(spec.kernel):
            window = padded[rows + ky, cols + kx, :]  # (n_sel, C)
            for cz in range(cpc):
                lo = cz * chunk
                hi = min(lo + chunk, spec.in_channels)
                c_idx = (ky * spec.kernel + kx) * cpc + cz
                if lo >= spec.in_channels:
                    continue  # pure padding chunk: zero work
                a = window[:, lo:hi].astype(np.float32)
                b = filt[:, ky, kx, lo:hi].astype(np.float32)
                filter_chunk_nnz[:, c_idx] = b.sum(axis=1).astype(np.int64)
                input_pop[c_idx] = a.sum(axis=1).astype(np.int32)
                if need_counts:
                    counts[c_idx] = np.rint(a @ b.T).astype(np.uint8)
                    match_sums += counts[c_idx].sum(axis=1, dtype=np.int64)
                else:
                    match_sums += a @ b.sum(axis=0)

    return ChunkWork(
        counts=counts,
        input_pop=input_pop,
        match_sums=match_sums,
        assignment=assignment,
        n_chunks=n_chunks,
        filter_chunk_nnz=filter_chunk_nnz,
    )


def _gather_pair_work(
    counts: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray
) -> np.ndarray:
    n_chunks, n_sel, _ = counts.shape
    out = np.zeros((n_chunks, n_sel, a_idx.size), dtype=np.float64)
    valid_a = a_idx >= 0
    if np.any(valid_a):
        out[:, :, valid_a] += counts[:, :, a_idx[valid_a]]
    valid_b = b_idx >= 0
    if np.any(valid_b):
        out[:, :, valid_b] += counts[:, :, b_idx[valid_b]]
    return out


def reference_two_sided_reduction(
    counts: np.ndarray,
    plan,
    units: int,
    bisection_width: int,
    collocate: bool | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frozen copy of the original two-sided per-group reduction loops.

    The original ``_two_sided_cluster_cycles`` walked filter groups (and,
    for GB-H, every chunk) in Python, gathering pair work with fancy
    indexing; ``repro.sim.reduce`` replaced it with one engine call.
    Returns ``(per_pos_barrier, per_pos_busy, per_pos_permute)``.
    """
    n_chunks, n_sel, n_filters = counts.shape
    if collocate is None:
        collocate = plan.collocated
    use_gb_h_network = collocate and plan.variant == "gb_h" and units >= 2

    per_pos_barrier = np.zeros(n_sel, dtype=np.float64)
    per_pos_busy = np.zeros(n_sel, dtype=np.float64)
    per_pos_permute = np.zeros(n_sel, dtype=np.float64)

    if collocate and plan.variant == "gb_s":
        pair_a = plan.pairing[:, 0]
        pair_b = plan.pairing[:, 1]
        for base in range(0, plan.pairing.shape[0], units):
            a_idx = pair_a[base : base + units]
            b_idx = pair_b[base : base + units]
            group_work = _gather_pair_work(counts, a_idx, b_idx)
            barrier = np.maximum(group_work.max(axis=2), 1)
            per_pos_barrier += barrier.sum(axis=0)
            per_pos_busy += group_work.sum(axis=(0, 2))
    elif collocate and plan.variant == "gb_h":
        n_pairs = plan.chunk_pairing.shape[1]
        for base in range(0, n_pairs, units):
            pair_slice = plan.chunk_pairing[:, base : base + units, :]
            shipped = np.zeros(n_chunks, dtype=np.float64)
            if n_chunks > 1:
                changed = pair_slice[1:] != pair_slice[:-1]
                shipped[:-1] = changed.sum(axis=(1, 2))
            shipped[-1] = 2.0 * units
            route_floor = np.ceil(shipped / 2.0 / bisection_width)
            barrier = np.zeros((n_chunks, n_sel), dtype=np.float64)
            busy = np.zeros((n_chunks, n_sel), dtype=np.float64)
            for c in range(n_chunks):
                a_idx = pair_slice[c, :, 0]
                b_idx = pair_slice[c, :, 1]
                group_work = _gather_pair_work(counts[c : c + 1], a_idx, b_idx)[0]
                barrier[c] = np.maximum(group_work.max(axis=1), 1)
                busy[c] = group_work.sum(axis=1)
            if use_gb_h_network:
                floor = route_floor[:, None]
                unhidden = np.maximum(0.0, floor - barrier)
                per_pos_permute += unhidden.sum(axis=0)
                barrier = np.maximum(barrier, floor)
            per_pos_barrier += barrier.sum(axis=0)
            per_pos_busy += busy.sum(axis=0)
    else:
        order = plan.order
        for base in range(0, n_filters, units):
            group = order[base : base + units]
            group_work = counts[:, :, group].astype(np.float64)
            barrier = np.maximum(group_work.max(axis=2), 1)
            per_pos_barrier += barrier.sum(axis=0)
            per_pos_busy += group_work.sum(axis=2).sum(axis=0)

    return per_pos_barrier, per_pos_busy, per_pos_permute


def reference_dynamic_reduction(
    counts: np.ndarray, units: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen copy of the original dynamic-dispatch group sweep.

    Returns ``(per_pos_barrier, per_pos_busy)`` for the makespan
    lower-bound schedule over ``2 x units``-wide filter groups.
    """
    counts = counts.astype(np.float64)
    n_chunks, n_sel, n_filters = counts.shape
    per_pos_barrier = np.zeros(n_sel, dtype=np.float64)
    per_pos_busy = np.zeros(n_sel, dtype=np.float64)
    group_width = 2 * units
    for base in range(0, n_filters, group_width):
        group = counts[:, :, base : base + group_width]
        total = group.sum(axis=2)
        peak = group.max(axis=2)
        barrier = np.maximum(np.maximum(np.ceil(total / units), peak), 1.0)
        per_pos_barrier += barrier.sum(axis=0)
        per_pos_busy += total.sum(axis=0)
    return per_pos_barrier, per_pos_busy
