"""The scheme-reduction engine shared by the cycle simulators.

Every two-sided scheme reduces per-(chunk, position, filter) match counts
to three per-position arrays: ``barrier`` (the cluster's wall cycles --
the slowest unit per filter group per chunk, floored at one cycle per
broadcast and at the GB-H routing floor), ``busy`` (occupied MAC slots)
and ``permute`` (unhidden routing cycles). The schemes differ only in how
filters map onto unit rows:

- **no-GB / sorted**: one filter per row, groups of ``units`` rows in a
  fixed order (:func:`order_groups`).
- **GB-S**: one static collocated pair per row (:func:`static_pairs`).
- **GB-H**: pairs re-derived per chunk, plus per-(chunk, group) routing
  floors from the permutation network (:func:`chunk_pairs`,
  :func:`gb_h_route_floors`).
- **dynamic dispatch**: groups of ``2 x units`` filters with the
  list-scheduling makespan bound ``max(ceil(sum/units), max)``
  (:func:`order_groups` with ``dyn_units``).
- **one-sided**: no counts at all -- every unit does the input chunk's
  popcount (:func:`one_sided`).

:class:`GroupReduction` captures that mapping as index tensors; one
engine (:func:`reduce_scheme`) then evaluates any of them over the
workload's materialized ``(n_chunks, n_sel, F)`` counts tensor through
two interchangeable, bit-identical paths:

1. native ``reduce_pairs`` (:mod:`repro.sim.native`), which reads the
   counts in their filter-major storage (``counts.transpose(0, 2, 1)``
   is C-contiguous for every :class:`~repro.sim.kernels.ChunkWork`) and
   streams positions: for uint8 counts on an AVX2 host, 8 positions per
   vector lane group with each group's sum/max kept in registers, a
   scalar loop for the remaining positions and the other dtypes;
2. a blocked NumPy fallback (gather via ``np.take_along_axis``, reshape
   to ``(.., n_groups, rows_per_group)``, max/sum), used when the native
   kernel is unavailable (no C compiler, or ``REPRO_NO_NATIVE``).

Exactness: match counts are <= ``chunk_size`` and every group sum is far
below 2**53, so all arithmetic is exact integer math in int64 or float64
-- accumulation order cannot change a ULP, which is what lets the two
paths promise byte-identical figures.

Dispatches are observable as ``kernel.reduce_native_dispatch`` /
``kernel.reduce_fallback_dispatch`` telemetry counters, and a native
call that had to copy a position-major input into the filter-major
layout first counts ``kernel.reduce_relayout`` (zero on every path that
uses :func:`repro.sim.kernels.compute_chunk_work`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.sim import native

__all__ = [
    "GroupReduction",
    "Reduction",
    "order_groups",
    "static_pairs",
    "chunk_pairs",
    "gb_h_route_floors",
    "reduce_scheme",
    "one_sided",
]

#: Gathered unit-work elements per NumPy fallback block (bounds the
#: temporary to ~32 MB of int64 regardless of layer size).
_BLOCK_ELEMS = 4 << 20


@dataclass(frozen=True)
class GroupReduction:
    """A scheme's filter-to-unit-row mapping, as index tensors.

    Attributes:
        pair_a: (1, n_rows) or (n_chunks, n_rows) int64 first-filter
            index per unit row; -1 = absent (idle slot).
        pair_b: same shape; the collocated second filter, -1 = none.
        rows_per_group: unit rows sharing one barrier (a filter group).
        floors: (n_chunks, n_groups) float64 per-(chunk, group) barrier
            floors (GB-H routing throughput), or ``None``.
        dyn_units: when > 0, each group's barrier is additionally bounded
            below by ``ceil(group_sum / dyn_units)`` (the dynamic-dispatch
            makespan bound).
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    rows_per_group: int
    floors: np.ndarray | None = None
    dyn_units: int = 0

    @property
    def n_rows(self) -> int:
        return int(self.pair_a.shape[-1])

    @property
    def n_groups(self) -> int:
        return self.n_rows // self.rows_per_group

    @property
    def per_chunk(self) -> bool:
        return self.pair_a.shape[0] > 1

    def __post_init__(self) -> None:
        if self.pair_a.shape != self.pair_b.shape:
            raise ValueError("pair_a/pair_b shapes differ")
        if self.n_rows % self.rows_per_group:
            raise ValueError(
                f"{self.n_rows} rows not a multiple of group {self.rows_per_group}"
            )
        if self.floors is not None and self.floors.shape[-1] != self.n_groups:
            raise ValueError("floors last dim must be n_groups")


@dataclass(frozen=True)
class Reduction:
    """Per-position reduction outputs (all float64, exact integers)."""

    barrier: np.ndarray
    busy: np.ndarray
    permute: np.ndarray


def order_groups(
    order: np.ndarray, rows_per_group: int, dyn_units: int = 0
) -> GroupReduction:
    """One filter per row in *order*, padded with -1 to whole groups."""
    order = np.asarray(order, dtype=np.int64)
    n = order.size
    n_rows = -(-n // rows_per_group) * rows_per_group
    pair_a = np.full((1, n_rows), -1, dtype=np.int64)
    pair_a[0, :n] = order
    pair_b = np.full((1, n_rows), -1, dtype=np.int64)
    return GroupReduction(pair_a, pair_b, rows_per_group, None, dyn_units)


def static_pairs(pairing: np.ndarray, units: int) -> GroupReduction:
    """GB-S: one (n_pairs, 2) pairing shared by every chunk."""
    pairing = np.asarray(pairing, dtype=np.int64)
    pair_a = np.ascontiguousarray(pairing[None, :, 0])
    pair_b = np.ascontiguousarray(pairing[None, :, 1])
    return GroupReduction(pair_a, pair_b, units)


def chunk_pairs(
    chunk_pairing: np.ndarray, units: int, floors: np.ndarray | None = None
) -> GroupReduction:
    """GB-H: per-chunk (n_chunks, n_pairs, 2) pairing, optional floors."""
    chunk_pairing = np.asarray(chunk_pairing, dtype=np.int64)
    pair_a = np.ascontiguousarray(chunk_pairing[:, :, 0])
    pair_b = np.ascontiguousarray(chunk_pairing[:, :, 1])
    return GroupReduction(pair_a, pair_b, units, floors)


def gb_h_route_floors(
    chunk_pairing: np.ndarray, units: int, bisection_width: int
) -> np.ndarray:
    """Per-(chunk, group) routing-throughput floors for GB-H.

    A unit ships its two accumulated partials only when its pair
    assignment changes before the next chunk; all ``2 x units`` sums
    flush after the last chunk. About half the shipped values cross the
    bisection, so a chunk shipping ``m`` values needs
    ``ceil(m / 2 / bisection_width)`` cycles of network throughput.
    Vectorised over all chunks and groups at once (the pre-engine code
    recomputed this per group inside a Python loop).
    """
    n_chunks, n_pairs, _ = chunk_pairing.shape
    n_groups = n_pairs // units
    cp = chunk_pairing.reshape(n_chunks, n_groups, units, 2)
    shipped = np.zeros((n_chunks, n_groups), dtype=np.float64)
    if n_chunks > 1:
        changed = cp[1:] != cp[:-1]
        shipped[:-1] = changed.sum(axis=(2, 3))
    shipped[-1] = 2.0 * units
    return np.ascontiguousarray(np.ceil(shipped / 2.0 / bisection_width))


def one_sided(input_pop: np.ndarray, n_filters: int, units: int) -> Reduction:
    """The one-sided scheme: every unit does the input chunk's popcount.

    ``barrier`` is the per-position wall cycles across all filter-group
    passes; ``busy`` is the per-position input non-zero total (the
    occupied slots are ``busy x n_filters``, which the caller owns).
    """
    pop = input_pop.astype(np.float64)
    n_groups = int(np.ceil(n_filters / units))
    barrier = np.maximum(pop, 1).sum(axis=0) * n_groups
    busy = pop.sum(axis=0)
    return Reduction(barrier, busy, np.zeros_like(barrier))


def reduce_scheme(work, rspec: GroupReduction) -> Reduction:
    """Evaluate one scheme's reduction over a workload's chunk work.

    *work* is a :class:`repro.sim.kernels.ChunkWork` carrying counts
    (computed with ``need_counts=True``). Both paths are bit-identical.
    """
    if work.counts is None:
        raise ValueError("workload carries no match counts")
    got = native.reduce_pairs(
        work.counts,
        rspec.pair_a,
        rspec.pair_b,
        rspec.floors,
        rspec.rows_per_group,
        rspec.dyn_units,
    )
    if got is not None:
        telemetry.count("kernel.reduce_native_dispatch")
        if not work.counts.transpose(0, 2, 1).flags.c_contiguous:
            telemetry.count("kernel.reduce_relayout")
        return Reduction(*got)
    telemetry.count("kernel.reduce_fallback_dispatch")
    return _reduce_counts_numpy(work.counts, rspec)


def _reduce_counts_numpy(counts: np.ndarray, rspec: GroupReduction) -> Reduction:
    """Blocked NumPy reduction over a materialized counts tensor."""
    n_chunks, n_sel, _ = counts.shape
    barrier = np.zeros(n_sel, dtype=np.float64)
    busy = np.zeros(n_sel, dtype=np.float64)
    permute = np.zeros(n_sel, dtype=np.float64)
    # Chunks per block, so the gathered temporary stays bounded.
    step = max(1, _BLOCK_ELEMS // max(1, n_sel * rspec.n_rows))
    for lo in range(0, n_chunks, step):
        hi = min(lo + step, n_chunks)
        cb = counts[lo:hi]
        idx_a = rspec.pair_a[lo:hi] if rspec.per_chunk else rspec.pair_a
        idx_b = rspec.pair_b[lo:hi] if rspec.per_chunk else rspec.pair_b
        w = _gather_rows(cb, idx_a) + _gather_rows(cb, idx_b)
        w = w.reshape(hi - lo, n_sel, rspec.n_groups, rspec.rows_per_group)
        gsum = w.sum(axis=3)
        bi = w.max(axis=3)
        if rspec.dyn_units > 0:
            np.maximum(bi, (gsum + rspec.dyn_units - 1) // rspec.dyn_units, out=bi)
        np.maximum(bi, 1, out=bi)
        bg = bi.astype(np.float64)
        if rspec.floors is not None:
            fl = rspec.floors[lo:hi, None, :]
            permute += np.maximum(0.0, fl - bg).sum(axis=(0, 2))
            np.maximum(bg, fl, out=bg)
        barrier += bg.sum(axis=(0, 2))
        busy += gsum.sum(axis=(0, 2), dtype=np.float64)
    return Reduction(barrier, busy, permute)


def _gather_rows(cb: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """counts[..., idx] as int64 with -1 indices contributing zero."""
    gathered = np.take_along_axis(
        cb, np.maximum(idx, 0)[:, None, :], axis=2
    ).astype(np.int64)
    gathered *= idx[:, None, :] >= 0
    return gathered

