"""Oracle balancing: how much does the density proxy leave on the table?

Section 3.3: "While the true data-dependent estimate of work requires us
to count the work where both the feature map *and* the filter are
non-zero, we found that load-balancing based solely on the density of
filters is an effective proxy."

This module tests that claim. The *oracle* pairs filters per chunk by
their **measured mean match counts** over the actual input (the true
work, unavailable offline because inputs are computed online); the
*proxy* is GB-H's filter-chunk density. If the paper is right, the
oracle's cycles sit only slightly below the proxy's.
"""

from __future__ import annotations

import numpy as np

from repro.balance.greedy import BalancePlan
from repro.sim.kernels import ChunkWork

__all__ = ["oracle_plan", "proxy_vs_oracle"]


def oracle_plan(work: ChunkWork, n_units: int) -> BalancePlan:
    """A GB-H-shaped plan paired by *measured* per-chunk work.

    Group membership follows the whole-filter measured work (mirroring
    GB-H's whole-filter density sort); within each 2 x units group and
    per chunk, filters are ranked by their mean match count over the
    simulated positions and paired densest-with-sparsest. Everything the
    hardware would need to know ahead of time -- which it cannot -- so
    this is a bound, not a scheme.
    """
    # Mean true work per (filter, chunk) over positions.
    mean_work = work.materialized_counts().mean(axis=1).T  # (F, n_chunks)
    n_filters, n_chunks = mean_work.shape
    order = np.argsort(-mean_work.sum(axis=1), kind="stable").astype(np.int64)
    group_size = 2 * n_units
    blocks = []
    for base in range(0, n_filters, group_size):
        group = order[base : base + group_size]
        per_chunk = np.full((n_chunks, n_units, 2), -1, dtype=np.int64)
        for c in range(n_chunks):
            ranked = group[np.argsort(-mean_work[group, c], kind="stable")]
            m = ranked.size
            for i in range((m + 1) // 2):
                j = m - 1 - i
                per_chunk[c, i, 0] = ranked[i]
                if j > i:
                    per_chunk[c, i, 1] = ranked[j]
        blocks.append(per_chunk)
    chunk_pairing = np.concatenate(blocks, axis=1)
    return BalancePlan(
        variant="gb_h",
        order=order,
        pairing=None,
        chunk_pairing=chunk_pairing,
        n_units=n_units,
    )


def proxy_vs_oracle(
    work: ChunkWork, n_units: int, filter_masks: np.ndarray, chunk_size: int
) -> dict:
    """Barrier cycles under the density proxy vs the measured-work oracle.

    Evaluates both pairings on the same match counts (pure reduction, no
    simulator state) and returns the cycle totals plus the proxy's
    overhead over the oracle -- the number that validates (or refutes)
    Section 3.3's "effective proxy" claim.
    """
    from repro.balance.greedy import gb_h_plan

    counts = work.materialized_counts().astype(np.float64)
    proxy = gb_h_plan(filter_masks, n_units, chunk_size=chunk_size)
    oracle = oracle_plan(work, n_units)

    def barrier_cycles(plan: BalancePlan) -> float:
        total = 0.0
        n_pairs = plan.chunk_pairing.shape[1]
        weights = work.assignment.weight_of
        for base in range(0, n_pairs, n_units):
            for c in range(counts.shape[0]):
                pairs = plan.chunk_pairing[c, base : base + n_units]
                unit_work = np.zeros((counts.shape[1], n_units))
                for u, (fa, fb) in enumerate(pairs):
                    if fa >= 0:
                        unit_work[:, u] += counts[c, :, fa]
                    if fb >= 0:
                        unit_work[:, u] += counts[c, :, fb]
                total += float(
                    np.sum(np.maximum(unit_work.max(axis=1), 1.0) * weights)
                )
        return total

    proxy_cycles = barrier_cycles(proxy)
    oracle_cycles = barrier_cycles(oracle)
    return {
        "proxy_cycles": proxy_cycles,
        "oracle_cycles": oracle_cycles,
        "proxy_overhead": proxy_cycles / oracle_cycles - 1.0,
    }
