"""Greedy-balancing plan construction (paper Section 3.3, Figure 6).

A *plan* describes, for one layer, how filters map onto compute units:

- **no-GB**: original filter order, one filter per unit, groups of
  ``n_units`` filters processed back to back.
- **GB-S** (software-only): sort the layer's filters by *whole-filter*
  density so the filters concurrently resident in a cluster are similar
  in density, then collocate pairs -- the group's densest with its
  sparsest, second densest with second sparsest, and so on (Figure 6's
  pairing at whole-filter granularity). The resulting output-channel
  shuffle is undone statically by rewriting the next layer's weights
  (:mod:`repro.balance.unshuffle`).
- **GB-H** (hybrid): same group formation, but the dense/sparse pairing
  is re-derived *per chunk* from per-chunk filter densities; the partial
  sums are unshuffled at runtime by the permutation network.

Group size is ``2 * n_units`` filters when collocation is on (each unit
holds a pair), else ``n_units``. The paper turns collocation off when a
layer has too few filters for pairing to help; :func:`collocation_helps`
implements that static check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.sparsemap import padded_length

__all__ = [
    "BalancePlan",
    "no_gb_plan",
    "gb_s_plan",
    "gb_h_plan",
    "gb_h_chunk_pairing",
    "greedy_order",
    "pair_groups",
    "filter_chunk_densities",
    "collocation_helps",
]


@dataclass(frozen=True)
class BalancePlan:
    """How one layer's filters map onto a cluster's compute units.

    Attributes:
        variant: ``"no_gb"``, ``"gb_s"`` or ``"gb_h"``.
        order: filter processing order (permutation of range(F)); for
            GB variants this is the density sort, and equals the output
            channel shuffle GB-S must statically undo.
        pairing: (n_pairs, 2) collocated filter pairs in unit order
            (-1 second element = unpaired); ``None`` when collocation is
            off (no-GB).
        chunk_pairing: (n_chunks, n_pairs, 2) per-chunk pairs for GB-H;
            ``None`` otherwise.
        n_units: compute units per cluster the plan was built for.
    """

    variant: str
    order: np.ndarray
    pairing: np.ndarray | None
    chunk_pairing: np.ndarray | None
    n_units: int

    @property
    def collocated(self) -> bool:
        return self.pairing is not None or self.chunk_pairing is not None

    @property
    def n_filters(self) -> int:
        return int(self.order.size)


def whole_filter_densities(filter_masks: np.ndarray) -> np.ndarray:
    """Per-filter density from a boolean (F, ...) mask array."""
    masks = np.asarray(filter_masks).astype(bool)
    if masks.ndim < 2:
        raise ValueError(f"expected (F, ...) masks, got shape {masks.shape}")
    flat = masks.reshape(masks.shape[0], -1)
    return flat.mean(axis=1)


def filter_chunk_densities(
    filter_masks: np.ndarray, chunk_size: int = 128
) -> np.ndarray:
    """Per-chunk non-zero counts of each filter: (F, n_chunks) ints.

    Filters are linearised Z-first with per-kernel-position channel
    padding (the storage layout), so chunk ``(ky*k + kx) * cpc + cz``
    covers channels ``[cz*chunk, ...)`` at kernel position (ky, kx).
    """
    masks = np.asarray(filter_masks).astype(bool)
    if masks.ndim != 4:
        raise ValueError(f"expected (F, k, k, C) masks, got shape {masks.shape}")
    n_filters, k1, k2, c = masks.shape
    padded = np.zeros((n_filters, k1 * k2, padded_length(c, chunk_size)), dtype=bool)
    padded[:, :, :c] = masks.reshape(n_filters, k1 * k2, c)
    return padded.reshape(n_filters, -1, chunk_size).sum(axis=-1, dtype=np.int64)


def greedy_order(filter_nnz: np.ndarray) -> np.ndarray:
    """The greedy-balance filter sort: densest first, stable on ties.

    Whole-filter density is a filter's non-zero count over a constant
    element count, so sorting the counts orders the filters exactly as
    sorting :func:`whole_filter_densities` does.
    """
    return np.argsort(-np.asarray(filter_nnz), kind="stable").astype(np.int64)


def pair_groups(ranked: np.ndarray, n_units: int) -> np.ndarray:
    """Pair each ranked group: densest with sparsest, inward.

    *ranked* is ``(..., F)`` filter ids, densest first within each
    consecutive group of ``2 * n_units``. Returns ``(..., n_groups *
    n_units, 2)`` unit rows padded with -1 (idle units / unpaired
    filters).
    """
    n_filters = ranked.shape[-1]
    base = np.arange(0, n_filters, 2 * n_units)[:, None]  # group's first slot
    m = np.minimum(2 * n_units, n_filters - base)  # group sizes
    i = np.arange(n_units)[None, :]
    j = m - 1 - i  # unit i's partner slot within its group
    slots = np.stack(
        [np.where(i <= j, base + i, -1), np.where(j > i, base + j, -1)], axis=-1
    ).reshape(-1, 2)
    return np.where(slots >= 0, ranked[..., slots], -1)


def gb_h_chunk_pairing(
    chunk_nnz: np.ndarray, order: np.ndarray, n_units: int
) -> np.ndarray:
    """GB-H's per-chunk pairs ``(n_chunks, n_pairs, 2)`` within sorted groups.

    One stable argsort ranks every chunk of every group at once: a short
    last group's empty slots carry a key above every member's, so they
    sort last, after the members, which keep their stable order.
    """
    n_filters, n_chunks = chunk_nnz.shape
    size = 2 * n_units
    slots = -(-n_filters // size) * size
    keys = np.ones((slots, n_chunks), dtype=np.int64)
    keys[:n_filters] = -chunk_nnz[order]
    rank = np.argsort(keys.reshape(-1, size, n_chunks), axis=1, kind="stable")
    ranked = (rank + np.arange(0, slots, size)[:, None, None]).reshape(slots, -1)
    return pair_groups(order[ranked[:n_filters].T], n_units)


def no_gb_plan(filter_masks: np.ndarray, n_units: int) -> BalancePlan:
    """The baseline: original order, no collocation."""
    n_filters = np.asarray(filter_masks).shape[0]
    return BalancePlan(
        variant="no_gb",
        order=np.arange(n_filters, dtype=np.int64),
        pairing=None,
        chunk_pairing=None,
        n_units=n_units,
    )


def gb_s_plan(
    filter_masks: np.ndarray,
    n_units: int,
    chunk_nnz: np.ndarray | None = None,
) -> BalancePlan:
    """GB-S: whole-filter density sort plus whole-filter collocation.

    *chunk_nnz* is the filters' per-chunk non-zero counts
    (``ChunkWork.filter_chunk_nnz``) when the caller already has them;
    their row sums are the whole-filter counts.
    """
    if chunk_nnz is None:
        masks = np.asarray(filter_masks)
        filter_nnz = masks.reshape(masks.shape[0], -1).sum(axis=1, dtype=np.int64)
    else:
        filter_nnz = chunk_nnz.sum(axis=1)
    order = greedy_order(filter_nnz)
    return BalancePlan(
        variant="gb_s",
        order=order,
        pairing=pair_groups(order, n_units),
        chunk_pairing=None,
        n_units=n_units,
    )


def gb_h_plan(
    filter_masks: np.ndarray,
    n_units: int,
    chunk_size: int = 128,
    chunk_nnz: np.ndarray | None = None,
) -> BalancePlan:
    """GB-H: per-chunk density sort within each 2x group, paired per chunk.

    Group membership follows the whole-filter sort (so groups are
    density-homogeneous); within each group and for each chunk, filters
    are re-ranked by that chunk's density and paired densest-with-sparsest
    (Figure 6(a)'s per-chunk ranks). *chunk_nnz* is
    ``filter_chunk_densities(filter_masks, chunk_size)`` when the caller
    already has it (``ChunkWork.filter_chunk_nnz``).
    """
    if chunk_nnz is None:
        chunk_nnz = filter_chunk_densities(filter_masks, chunk_size=chunk_size)
    order = greedy_order(chunk_nnz.sum(axis=1))
    return BalancePlan(
        variant="gb_h",
        order=order,
        pairing=None,
        chunk_pairing=gb_h_chunk_pairing(chunk_nnz, order, n_units),
        n_units=n_units,
    )


def collocation_helps(n_filters: int, n_units: int) -> bool:
    """Static check: does pairing improve utilisation for this layer?

    With fewer than ``2 * n_units`` filters, pairing leaves compute units
    entirely idle for the whole (lengthened) pass, which costs more than
    the imbalance it removes (the paper's GoogLeNet 5x5-reduce case:
    16 or 48 filters on 32-unit clusters). The paper detects this
    statically and turns GB off.
    """
    if n_filters <= 0 or n_units <= 0:
        raise ValueError("filter and unit counts must be positive")
    return n_filters >= 2 * n_units
