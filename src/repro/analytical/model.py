"""Analytical cycle/stall/energy prediction (no cycle-level machine).

Predicts, for every scheme the cycle simulators cover (dense, one-sided,
the SparTen variants, SCNN and its variants), per-layer cycles and the
four-way breakdown *from density statistics alone*
(:class:`repro.analytical.density.DensityStats`) -- the Sparseloop
observation that sparse-accelerator performance is a functional of the
operand density distributions, not of individual non-zero placements.

How each family is modelled:

- **dense** -- closed form, exact: every position costs
  ``n_groups * k*k*C`` cycles regardless of sparsity.
- **one-sided** -- exact: the barrier is the input chunk's popcount
  (every unit does identical work), and ``input_pop`` is in the stats.
- **two-sided SparTen** -- the per-(chunk, group) barrier is the *max*
  over unit rows of a hypergeometric match count. The unit-row weight
  loads are reconstructed exactly from ``filter_chunk_nnz`` through the
  same greedy-balance pairing the machine uses (vectorised over chunks,
  no per-chunk Python loops); the match-count maximum is approximated
  with order statistics: ``E[max] ~= mu_max + alpha(m) * sigma_max``
  where ``alpha(m)`` is the Blom expected-maximum coefficient of the
  ``m`` near-maximal rows and ``sigma`` the hypergeometric standard
  deviation. A per-position correlation factor ``rho`` anchors the mean
  term on the *exact* ``match_sums``, so total useful MACs are exact and
  only the imbalance spread is estimated. GB-H routing floors are exact
  (the pairing reconstruction feeds
  :func:`repro.sim.reduce.gb_h_route_floors`), so permute stalls use the
  stall model's own floor math. The position-independent group
  summaries are NumPy; the per-(chunk, group, position) arithmetic runs
  in the native library's ``two_sided_barrier`` kernel, bit-identical to
  the NumPy slab loop that serves as its fallback
  (``REPRO_NO_NATIVE``, no compiler).
- **SCNN** -- exact: the barrier factorises over channels
  (``max_pe . sum_ceil_w``), weight-side ceilings come from the
  per-channel filter histograms and input-side per-PE work from exact
  tile histograms (four summed-area-table lookups per tile against the
  statistics' input integral image -- activations are spatially
  clustered, so no per-channel density summary could stand in; the
  image is built on the first SCNN prediction, so a SparTen sweep never
  builds it).

Energy rides for free: analytical results carry the same breakdown and
traffic a simulated :class:`~repro.sim.results.LayerResult` does, so
:func:`repro.sim.energy.layer_energy` and
:func:`repro.sim.fpga.apply_roofline` apply unchanged. Counters satisfy
the conservation law by construction, so ``repro estimate`` renders the
same attribution tables as ``repro profile``.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from repro import profiling, telemetry
from repro.arch.memory import layer_traffic
from repro.balance.greedy import gb_h_chunk_pairing, greedy_order, pair_groups
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerMasks
from repro.sim import native, reduce
from repro.sim.config import HardwareConfig
from repro.sim.energy import layer_energy
from repro.sim.results import Breakdown, LayerResult, observability_extras
from repro.sim.scnn import scnn_closed_form, scnn_tile_plan

from repro.analytical.density import (
    DensityStats,
    extract_density_stats,
    regroup_stats,
)

__all__ = [
    "ANALYTICAL_SCHEMES",
    "GRID_SCHEMES",
    "GridPoint",
    "predict_grid",
    "predict_layer",
    "predict_network",
    "predict_layer_energy",
    "expected_max_coefficient",
    "gb_order",
    "two_sided_row_loads",
]

#: Every scheme the analytical tier predicts (the simulator set plus the
#: dense-naive energy configuration).
ANALYTICAL_SCHEMES = (
    "dense",
    "dense_naive",
    "one_sided",
    "sparten_no_gb",
    "sparten_gb_s",
    "sparten",
    "scnn",
    "scnn_one_sided",
    "scnn_dense",
)

#: A unit row counts as a contender for the group maximum when its chunk
#: weight load is within ``max(ABS, REL * max)`` of the heaviest row --
#: the ``m`` that selects the Blom coefficient. Calibrated against the
#: cycle simulator on the validation grid.
_NEARMAX_ABS = 1.0
_NEARMAX_REL = 0.05

#: Global scale on the order-statistics fluctuation term. Unit rows
#: sharing one input chunk are weakly negatively correlated (their
#: matches draw from the same window non-zeros), which shrinks the true
#: spread below the independent-rows estimate; calibrated on the
#: validation grid.
_MAX_COEF_SCALE = 0.85

_NORMAL = NormalDist()

#: Blom coefficients indexed by ``m``, grown on demand (``m`` never
#: exceeds a group's unit count).
_BLOM = np.zeros(2, dtype=np.float64)


def _blom_table(m_max: int) -> np.ndarray:
    """The coefficient table, covering every ``m <= m_max``."""
    global _BLOM
    if m_max >= _BLOM.size:
        _BLOM = np.array(
            [
                _NORMAL.inv_cdf((v - 0.375) / (v + 0.25)) if v > 1 else 0.0
                for v in range(m_max + 1)
            ],
            dtype=np.float64,
        )
    return _BLOM


def expected_max_coefficient(m: int | np.ndarray) -> np.ndarray:
    """Blom's expected maximum of ``m`` iid standard normals.

    ``E[max] ~= Phi^-1((m - 0.375) / (m + 0.25))``; 0 for ``m <= 1``
    (a single contender has no selection inflation).
    """
    m_arr = np.maximum(np.asarray(m, dtype=np.int64), 0)
    table = _blom_table(int(m_arr.max(initial=0)))
    out = table[m_arr]
    return out if np.ndim(m) else float(out)


# -- two-sided SparTen -------------------------------------------------------


def gb_order(stats: DensityStats) -> np.ndarray:
    """The greedy-balance filter sort (densest first, stable on ties).

    :func:`repro.balance.greedy.greedy_order` of the whole-filter counts,
    exactly the order the simulator's plans use. Sorted once per
    extraction (read-only, shared by every regrouped copy): a sweep asks
    for it once per (units, variant) point.
    """
    order = stats._memo.get("gb_order")
    if order is None:
        order = greedy_order(stats.filter_total_nnz)
        order.flags.writeable = False
        stats._memo["gb_order"] = order
    return order


def _gather_loads(fc: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Row chunk loads for one side of a pairing; -1 contributes zero.

    *pair* is (n_rows,) or (n_chunks, n_rows); returns (n_chunks, n_rows)
    float64.
    """
    safe = np.maximum(pair, 0)
    if pair.ndim == 1:
        loads = fc[safe].T.astype(np.float64)
        loads *= pair[None, :] >= 0
        return loads
    loads = np.take_along_axis(fc.T, safe, axis=1).astype(np.float64)
    loads *= pair >= 0
    return loads


def two_sided_row_loads(
    stats: DensityStats, cfg: HardwareConfig, variant: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-unit-row chunk weight loads for a SparTen variant.

    Returns ``(loads_a, loads_b, floors)``: each load array is
    ``(n_chunks, n_rows)`` -- the row's first / collocated-second filter
    non-zero weight count in every chunk (``loads_b`` all-zero without
    collocation), rows grouped in blocks of ``units`` sharing one
    barrier -- and ``floors`` the exact per-(chunk, group) GB-H routing
    floors (``None`` otherwise). The two components stay separate
    because a collocated row's work is the *sum of two* window
    intersections: each part is capped by the window count ``k``
    individually, so the pair's mean and variance do not follow from
    the combined load. This is the ``GroupReduction`` mapping evaluated
    on density statistics instead of match counts.
    """
    units = cfg.units_per_cluster
    fc = stats.filter_chunk_nnz
    n_filters = stats.n_filters
    if variant == "no_gb":
        n_rows = -(-n_filters // units) * units
        padded = np.full(n_rows, -1, dtype=np.int64)
        padded[:n_filters] = np.arange(n_filters, dtype=np.int64)
        loads_a = _gather_loads(fc, padded)
        return loads_a, np.zeros_like(loads_a), None
    if variant == "gb_s":
        pairing = pair_groups(gb_order(stats), units)
        return (
            _gather_loads(fc, pairing[:, 0]),
            _gather_loads(fc, pairing[:, 1]),
            None,
        )
    if variant != "gb_h":
        raise ValueError(f"unknown variant {variant!r}")
    chunk_pairing = gb_h_chunk_pairing(fc, gb_order(stats), units)
    loads_a = _gather_loads(fc, chunk_pairing[:, :, 0])
    loads_b = _gather_loads(fc, chunk_pairing[:, :, 1])
    floors = None
    if units >= 2:
        # Same validation + floor math as the cycle machine's reduction
        # spec; the pairing is exact, so the floors are too.
        from repro.arch.permute import PermutationNetwork

        PermutationNetwork(units, bisection_width=cfg.bisection_width)
        floors = reduce.gb_h_route_floors(
            chunk_pairing, units, cfg.bisection_width
        )
    return loads_a, loads_b, floors


#: Elements per slab of the barrier kernel's (chunks, groups, positions)
#: temporaries. Small enough to stay cache-resident, and far under the
#: ~8M-double bound that keeps small-unit machines (many groups) from
#: blowing memory.
_SLAB = 1 << 15


def _two_sided_barriers(
    stats: DensityStats, cfg: HardwareConfig, variant: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expected per-position barrier/permute cycles and the group count.

    Order-statistics model over the per-unit filter assignment: per
    (chunk, group), the barrier is ``E[max over rows]`` of hypergeometric
    match counts whose row means are anchored on the exact per-position
    match totals. Independent of the cluster assignment: clusters only
    regroup the finished per-position arrays.
    """
    units = cfg.units_per_cluster
    chunk = float(stats.chunk_size)
    loads_a, loads_b, floors = two_sided_row_loads(stats, cfg, variant)
    n_chunks, n_rows = loads_a.shape
    n_groups = n_rows // units
    # Without collocation the second component is all zero: the NumPy
    # path skips it, the native kernel adds its exact zeros.
    collocated = variant != "no_gb"
    ga = loads_a.reshape(n_chunks, n_groups, units)
    gb = loads_b.reshape(n_chunks, n_groups, units) if collocated else None
    combined = ga + gb if collocated else ga

    # Group-level load summaries (independent of position): the heaviest
    # row by combined load (the barrier candidate -- row means share one
    # positive per-position factor, so the load order is the mean order),
    # split into its two collocated components, and the near-max
    # contender count that selects the Blom coefficient.
    heaviest = np.argmax(combined, axis=2)[:, :, None]  # (n_chunks, n_groups, 1)
    wmax = np.take_along_axis(combined, heaviest, axis=2)[:, :, 0]
    wa = np.take_along_axis(ga, heaviest, axis=2)[:, :, 0] if collocated else wmax
    wb = np.take_along_axis(gb, heaviest, axis=2)[:, :, 0] if collocated else None
    near = np.maximum(_NEARMAX_ABS, _NEARMAX_REL * wmax)
    contenders = (combined >= (wmax - near)[:, :, None]).sum(axis=2)
    alpha = _MAX_COEF_SCALE * expected_max_coefficient(contenders)

    # Per-position correlation factor rho: independence predicts
    # sum_c k_cp * (total chunk nnz / chunk) matches at position p; the
    # measured total is match_sums. rho re-anchors every row mean so the
    # busy term stays exact.
    k = stats.input_pop.astype(np.float64)  # (n_chunks, n_sel)
    totq = stats.total_filter_chunk_nnz.astype(np.float64) / chunk
    predicted = k.T @ totq  # (n_sel,)
    rho = np.divide(
        stats.match_sums,
        predicted,
        out=np.ones_like(stats.match_sums),
        where=predicted > 0,
    )

    # Position-only terms, hoisted out of the 3-D arithmetic: the
    # per-unit-load hit probability and the finite-population-corrected
    # variance prefactor.
    n_sel = k.shape[1]
    r = rho / chunk
    kf = k * np.clip((chunk - k) / max(chunk - 1.0, 1.0), 0.0, 1.0)
    # (chunk, group) slabs of ~_SLAB elements: whole chunks when a chunk's
    # groups fit, else group runs inside one chunk.
    gstep = max(1, min(n_groups, _SLAB // max(n_sel, 1)))
    cstep = max(1, _SLAB // (gstep * max(n_sel, 1))) if gstep == n_groups else 1
    got = native.two_sided_barrier(wa, wb, alpha, floors, k, kf, r, cstep, gstep)
    if got is not None:
        telemetry.count("kernel.barrier_native_dispatch")
        return got[0], got[1], n_groups
    telemetry.count("kernel.barrier_fallback_dispatch")
    barrier, permute = _barrier_slabs(wa, wb, alpha, floors, k, kf, r, cstep, gstep)
    return barrier, permute, n_groups


def _barrier_slabs(
    wa: np.ndarray,
    wb: np.ndarray | None,
    alpha: np.ndarray,
    floors: np.ndarray | None,
    k: np.ndarray,
    kf: np.ndarray,
    r: np.ndarray,
    cstep: int,
    gstep: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The barrier kernel's NumPy path (``REPRO_NO_NATIVE``, no compiler).

    Per-position sums over (chunk, group) slabs of ``cstep x gstep``;
    :func:`repro.sim.native.two_sided_barrier` does the same arithmetic
    in the same order, bit for bit. *wb* ``None`` skips the collocated
    component (it would add exact zeros).
    """
    n_chunks, n_groups = wa.shape
    n_sel = r.shape[0]
    barrier = np.zeros(n_sel, dtype=np.float64)
    permute = np.zeros(n_sel, dtype=np.float64)
    for c0 in range(0, n_chunks, cstep):
        c1 = min(c0 + cstep, n_chunks)
        k3 = k[c0:c1, None, :]
        kf3 = kf[c0:c1, None, :]
        for g0 in range(0, n_groups, gstep):
            g1 = min(g0 + gstep, n_groups)
            # The heaviest row's work is the sum of two window
            # intersections (hypergeometric parts); mean, variance and
            # cap are per part -- the pair total can reach 2k, never
            # min(k, w_a + w_b).
            wa3 = wa[c0:c1, g0:g1, None]
            qa = wa3 * r
            np.minimum(qa, 1.0, out=qa)
            var = 1.0 - qa
            var *= qa
            cap = np.minimum(k3, wa3)
            if wb is not None:
                wb3 = wb[c0:c1, g0:g1, None]
                qb = wb3 * r
                np.minimum(qb, 1.0, out=qb)
                qa += qb
                var_b = 1.0 - qb
                var_b *= qb
                var += var_b
                cap += np.minimum(k3, wb3, out=qb)
            var *= kf3
            np.sqrt(var, out=var)
            var *= alpha[c0:c1, g0:g1, None]
            est = np.multiply(qa, k3, out=qa)
            est += var
            np.minimum(est, cap, out=est)
            np.maximum(est, 1.0, out=est)
            if floors is not None:
                # max(fl, est) - est == max(0, fl - est), bit for bit.
                np.maximum(est, floors[c0:c1, g0:g1, None], out=cap)
                np.subtract(cap, est, out=var)
                permute += var.sum(axis=(0, 1))
                est = cap
            barrier += est.sum(axis=(0, 1))
    return barrier, permute


class _ClusterAxis(NamedTuple):
    """Position-to-cluster assignments of one stat sample, stacked.

    Assignment ``k`` (one machine's cluster count) owns the cluster ids
    from ``starts[k]`` on, so one weighted bincount reduces a
    per-position array onto the clusters of every stacked machine at
    once. A single assignment is the one-machine case.
    """

    cluster_of: np.ndarray  # (K * n_sel,) offset cluster ids
    weight_of: np.ndarray  # (K * n_sel,) sample weights
    cluster_positions: np.ndarray  # (total clusters,) true positions
    starts: np.ndarray  # (K,) first cluster id of each assignment

    @classmethod
    def stack(cls, assignments) -> "_ClusterAxis":
        sizes = [a.cluster_positions.size for a in assignments]
        starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        return cls(
            cluster_of=np.concatenate(
                [a.cluster_of + off for a, off in zip(assignments, starts)]
            ),
            weight_of=np.concatenate([a.weight_of for a in assignments]),
            cluster_positions=np.concatenate(
                [a.cluster_positions for a in assignments]
            ),
            starts=starts,
        )

    def sum(self, per_position: np.ndarray) -> np.ndarray:
        """Weighted per-cluster sums of *per_position*, for every machine."""
        reps = self.cluster_of.size // per_position.size
        return np.bincount(
            self.cluster_of,
            weights=np.tile(per_position, reps) * self.weight_of,
            minlength=self.cluster_positions.size,
        )


def _cluster_rollup(
    axis: _ClusterAxis,
    cluster_cycles: np.ndarray,
    occupied: np.ndarray,
    useful: np.ndarray,
    units: int,
) -> tuple[np.ndarray, list[Breakdown], np.ndarray]:
    """Layer cycles and breakdown of every machine on *axis*.

    Identical cluster reduction to the cycle simulators: layer cycles =
    slowest cluster, inter loss = the other clusters' idle slots, intra
    loss = wall slots the occupied ones leave idle, zero MACs =
    occupied-but-useless slots. Inputs are per-cluster sums; returns the
    per-machine layer cycles, breakdowns and the per-cluster idle slots.
    """
    starts = axis.starts
    layer_cycles = np.maximum.reduceat(cluster_cycles, starts)
    machine_of = np.repeat(
        np.arange(starts.size), np.diff(starts, append=cluster_cycles.size)
    )
    idle = (layer_cycles[machine_of] - cluster_cycles) * units
    nonzero = np.add.reduceat(useful, starts)
    occupied_slots = np.add.reduceat(occupied, starts)
    zero = occupied_slots - nonzero
    intra = np.add.reduceat(cluster_cycles, starts) * units - occupied_slots
    inter = np.add.reduceat(idle, starts)
    breakdowns = [
        Breakdown(nonzero_macs=n, zero_macs=z, intra_loss=a, inter_loss=e)
        for n, z, a, e in zip(
            nonzero.tolist(), zero.tolist(), intra.tolist(), inter.tolist()
        )
    ]
    return layer_cycles, breakdowns, idle


def _dense_cluster_sums(
    spec: ConvLayerSpec, cluster_positions: np.ndarray, units: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense per-cluster (wall cycles, issued MAC slots): exact closed form."""
    dot_length = spec.kernel * spec.kernel * spec.in_channels
    n_groups = -(-spec.n_filters // units)
    positions = cluster_positions.astype(np.float64)
    return (
        positions * (n_groups * dot_length),
        positions * (spec.n_filters * dot_length),
    )


def _positional_result(
    stats: DensityStats,
    cfg: HardwareConfig,
    scheme: str,
    per_pos_barrier: np.ndarray,
    per_pos_slots: np.ndarray,
    per_pos_useful: np.ndarray,
    per_pos_permute: np.ndarray,
    barriers: float,
    variant: str | None,
    traffic_scheme: str,
    buffer_hwm: dict | None = None,
) -> LayerResult:
    """Assemble a cluster-machine LayerResult from per-position arrays.

    Weighted bincount per cluster, then :func:`_cluster_rollup`.
    Counters (and timelines) come from the same arrays, so the
    conservation law holds by construction.
    """
    spec = stats.spec
    units = cfg.units_per_cluster
    n_clusters = cfg.n_clusters
    weights = stats.assignment.weight_of
    cluster_of = stats.assignment.cluster_of

    axis = _ClusterAxis.stack([stats.assignment])
    cluster_cycles = axis.sum(per_pos_barrier)
    busy_c = axis.sum(per_pos_useful)
    occupied_c = (
        busy_c if per_pos_slots is per_pos_useful else axis.sum(per_pos_slots)
    )
    (layer_cycles,), (breakdown,), idle = _cluster_rollup(
        axis, cluster_cycles, occupied_c, busy_c, units
    )
    layer_cycles = float(layer_cycles)

    permute_slots = per_pos_permute * units
    zero_c = np.bincount(
        cluster_of,
        weights=(per_pos_slots - per_pos_useful) * weights,
        minlength=n_clusters,
    )
    permute_c = np.bincount(
        cluster_of, weights=permute_slots * weights, minlength=n_clusters
    )
    wait_c = np.bincount(
        cluster_of,
        weights=(per_pos_barrier * units - per_pos_slots - permute_slots)
        * weights,
        minlength=n_clusters,
    )
    bins = profiling.timeline_bins()
    tl_cycles = tl_busy = None
    if bins:
        tl_cycles, tl_busy = profiling.positional_timeline(
            cluster_of,
            per_pos_barrier * weights,
            per_pos_slots * weights,
            n_clusters,
            bins,
        )
    counters = profiling.CounterSet(
        scheme=scheme,
        n_clusters=n_clusters,
        units_per_cluster=units,
        total_cycles=layer_cycles,
        busy=busy_c,
        filter_zero=zero_c,
        barrier_wait=wait_c,
        permute_stall=permute_c,
        imbalance_idle=idle,
        memory_stall=np.zeros(n_clusters, dtype=np.float64),
        barriers=barriers,
        buffer_hwm=dict(buffer_hwm or {}),
        timeline_cycles=tl_cycles,
        timeline_busy=tl_busy,
    )

    extras = observability_extras(breakdown)
    return LayerResult(
        scheme=scheme,
        layer_name=spec.name,
        cycles=layer_cycles,
        compute_cycles=layer_cycles,
        total_macs=cfg.total_macs,
        breakdown=breakdown,
        traffic=layer_traffic(
            spec, scheme=traffic_scheme, chunk_size=cfg.chunk_size
        ),
        extras={
            **extras,
            "fidelity": "analytical",
            "permute_cycles": float(per_pos_permute.sum()),
            "barriers": barriers,
            "variant": variant,
        },
        counters=counters,
    )


#: SparTen balancing variant <-> scheme name.
_TWO_SIDED_SCHEME = {
    "no_gb": "sparten_no_gb",
    "gb_s": "sparten_gb_s",
    "gb_h": "sparten",
}
_TWO_SIDED_VARIANT = {scheme: variant for variant, scheme in _TWO_SIDED_SCHEME.items()}


def _predict_two_sided(
    stats: DensityStats, cfg: HardwareConfig, variant: str
) -> LayerResult:
    barrier, permute, n_groups = _two_sided_barriers(stats, cfg, variant)
    useful = stats.match_sums  # occupied slots == useful (two-sided)
    collocated = variant in ("gb_s", "gb_h")
    hwm = {
        "input_chunk_values": float(stats.input_pop.max(initial=0)),
        "filter_chunk_values": float(stats.filter_chunk_nnz.max(initial=0)),
        "output_collector_entries": float(
            2 * cfg.units_per_cluster if collocated else cfg.units_per_cluster
        ),
    }
    return _positional_result(
        stats,
        cfg,
        _TWO_SIDED_SCHEME[variant],
        per_pos_barrier=barrier,
        per_pos_slots=useful,
        per_pos_useful=useful,
        per_pos_permute=permute,
        barriers=float(n_groups * stats.n_chunks),
        variant=variant,
        traffic_scheme="two_sided",
        buffer_hwm=hwm,
    )


def _predict_one_sided(stats: DensityStats, cfg: HardwareConfig) -> LayerResult:
    """Exact: replicates the one-sided cycle model term for term."""
    spec = stats.spec
    n_filters = spec.n_filters
    n_groups = int(np.ceil(n_filters / cfg.units_per_cluster))
    red = reduce.one_sided(stats.input_pop, n_filters, cfg.units_per_cluster)
    hwm = {
        "input_chunk_values": float(stats.input_pop.max(initial=0)),
        "filter_chunk_values": float(stats.filter_chunk_nnz.max(initial=0)),
        "output_collector_entries": float(cfg.units_per_cluster),
    }
    return _positional_result(
        stats,
        cfg,
        "one_sided",
        per_pos_barrier=red.barrier,
        per_pos_slots=red.busy * n_filters,
        per_pos_useful=stats.match_sums,
        per_pos_permute=np.zeros_like(red.barrier),
        barriers=float(n_groups * stats.n_chunks),
        variant=None,
        traffic_scheme="one_sided",
        buffer_hwm=hwm,
    )


def _predict_dense(
    stats: DensityStats, cfg: HardwareConfig, naive_buffers: bool = False
) -> LayerResult:
    """Exact closed form: mirrors :func:`repro.sim.dense.simulate_dense`."""
    spec = stats.spec
    units = cfg.units_per_cluster
    n_clusters = cfg.n_clusters
    dot_length = spec.kernel * spec.kernel * spec.in_channels
    n_groups = int(np.ceil(spec.n_filters / units))
    assignment = stats.assignment
    weights = assignment.weight_of
    cluster_of = assignment.cluster_of

    axis = _ClusterAxis.stack([assignment])
    cluster_cycles, issued_c = _dense_cluster_sums(
        spec, assignment.cluster_positions, units
    )
    useful_c = axis.sum(stats.match_sums)
    (layer_cycles,), (breakdown,), idle = _cluster_rollup(
        axis, cluster_cycles, issued_c, useful_c, units
    )
    layer_cycles = float(layer_cycles)
    scheme = "dense_naive" if naive_buffers else "dense"

    bins = profiling.timeline_bins()
    tl_cycles = tl_busy = None
    if bins:
        per_pos = np.full(cluster_of.size, float(n_groups * dot_length))
        tl_cycles, tl_busy = profiling.positional_timeline(
            cluster_of,
            per_pos * weights,
            np.full(cluster_of.size, float(spec.n_filters * dot_length))
            * weights,
            n_clusters,
            bins,
        )
    counters = profiling.CounterSet(
        scheme=scheme,
        n_clusters=n_clusters,
        units_per_cluster=units,
        total_cycles=layer_cycles,
        busy=useful_c,
        filter_zero=issued_c - useful_c,
        barrier_wait=cluster_cycles * units - issued_c,
        permute_stall=np.zeros(n_clusters, dtype=np.float64),
        imbalance_idle=idle,
        memory_stall=np.zeros(n_clusters, dtype=np.float64),
        timeline_cycles=tl_cycles,
        timeline_busy=tl_busy,
    )
    extras = observability_extras(breakdown)
    return LayerResult(
        scheme=scheme,
        layer_name=spec.name,
        cycles=layer_cycles,
        compute_cycles=layer_cycles,
        total_macs=cfg.total_macs,
        breakdown=breakdown,
        traffic=layer_traffic(spec, scheme="dense", chunk_size=cfg.chunk_size),
        extras={
            **extras,
            "fidelity": "analytical",
            "filter_groups": n_groups,
            "dot_length": dot_length,
        },
        counters=counters,
    )


# -- SCNN --------------------------------------------------------------------


def _scnn_tile_nnz(
    stats: DensityStats, cfg: HardwareConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-tile cell and non-zero histograms for the cfg's tiling.

    Returns ``(cells, tile_nnz)`` of shapes ``(n_tiles,)`` and
    ``(n_tiles, C)``. Four summed-area-table lookups per tile replace
    the simulator's per-tile mask slicing; spatial clustering of the
    activations (which per-channel densities cannot see) is captured
    exactly.
    """
    spec = stats.spec
    tile_h, tile_w, n_ty, n_tx = scnn_tile_plan(spec, cfg)
    y0 = np.arange(n_ty) * tile_h
    y1 = np.minimum(y0 + tile_h, spec.in_height)
    x0 = np.arange(n_tx) * tile_w
    x1 = np.minimum(x0 + tile_w, spec.in_width)
    cells = np.outer(y1 - y0, x1 - x0).reshape(-1).astype(np.int64)
    yy0 = np.repeat(y0, n_tx)
    yy1 = np.repeat(y1, n_tx)
    xx0 = np.tile(x0, n_ty)
    xx1 = np.tile(x1, n_ty)
    return cells, stats.rect_nnz(yy0, yy1, xx0, xx1)


def _predict_scnn(
    stats: DensityStats, cfg: HardwareConfig, variant: str
) -> LayerResult:
    """SCNN prediction from density statistics -- exact.

    SCNN's cycle model is closed-form given per-(tile, channel) input
    histograms and per-(filter, channel) weight histograms; both are in
    the density statistics (the tile histograms via the input integral
    image), and the simulator's own closed form turns them into the
    result, so the prediction reproduces the simulator bit for bit.
    """
    spec = stats.spec
    scheme = {"two": "scnn", "one": "scnn_one_sided", "dense": "scnn_dense"}[
        variant
    ]
    cells, tile_nnz = _scnn_tile_nnz(stats, cfg)
    s = scnn_closed_form(
        spec,
        cfg,
        variant,
        cells,
        tile_nnz,
        stats.filter_channel_nnz,
        scheme=scheme,
    )
    breakdown = Breakdown(
        nonzero_macs=s["useful"],
        zero_macs=s["stride_waste"] + s["operand_zero"],
        intra_loss=s["issued"] - s["useful"] - s["stride_waste"] - s["operand_zero"],
        inter_loss=s["inter"],
    )
    traffic_scheme = {"two": "two_sided", "one": "one_sided", "dense": "dense"}[
        variant
    ]
    extras = observability_extras(breakdown)
    return LayerResult(
        scheme=scheme,
        layer_name=spec.name,
        cycles=s["cycles"],
        compute_cycles=s["cycles"],
        total_macs=cfg.scnn_n_pes * cfg.scnn_macs_per_pe,
        breakdown=breakdown,
        traffic=layer_traffic(
            spec, scheme=traffic_scheme, chunk_size=cfg.chunk_size
        ),
        extras={**extras, "fidelity": "analytical", "variant": variant},
        counters=s["counters"],
    )


# -- entry points ------------------------------------------------------------


def _predict_image(
    scheme: str, stats: DensityStats, cfg: HardwareConfig
) -> LayerResult:
    if scheme == "dense":
        return _predict_dense(stats, cfg)
    if scheme == "dense_naive":
        return _predict_dense(stats, cfg, naive_buffers=True)
    if scheme == "one_sided":
        return _predict_one_sided(stats, cfg)
    if scheme in _TWO_SIDED_VARIANT:
        return _predict_two_sided(stats, cfg, _TWO_SIDED_VARIANT[scheme])
    if scheme == "scnn":
        return _predict_scnn(stats, cfg, "two")
    if scheme == "scnn_one_sided":
        return _predict_scnn(stats, cfg, "one")
    if scheme == "scnn_dense":
        return _predict_scnn(stats, cfg, "dense")
    raise ValueError(f"unknown scheme {scheme!r} (have {ANALYTICAL_SCHEMES})")


def _accumulate(a: LayerResult, b: LayerResult) -> LayerResult:
    """Fold a batch image into the running result (sims do the same)."""
    counters = None
    if a.counters is not None and b.counters is not None:
        counters = a.counters + b.counters
    breakdown = a.breakdown + b.breakdown
    return replace(
        a,
        cycles=a.cycles + b.cycles,
        compute_cycles=a.compute_cycles + b.compute_cycles,
        breakdown=breakdown,
        extras={**a.extras, **observability_extras(breakdown)},
        counters=counters,
    )


def predict_layer(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    scheme: str = "sparten",
    seed: int = 0,
    stats: DensityStats | None = None,
    data: LayerMasks | None = None,
) -> LayerResult:
    """Predict one layer's cycles/breakdown/traffic analytically.

    Mirrors the cycle simulators' batching: ``cfg.batch`` images (seeds
    ``seed .. seed+batch-1``) accumulate, exactly like the simulators
    compose single-image results. *stats*/*data* short-circuit
    extraction for pre-computed (or pipeline-measured) workloads --
    single image only.
    """
    telemetry.count("analytical.predict")
    telemetry.count(f"analytical.{scheme}.layers")
    if stats is not None:
        result = _predict_image(scheme, regroup_stats(stats, cfg), cfg)
    elif data is not None:
        result = _predict_image(
            scheme, extract_density_stats(spec, cfg, seed, data=data), cfg
        )
    else:
        result = None
        for image in range(cfg.batch):
            img_stats = extract_density_stats(spec, cfg, seed + image)
            img_result = _predict_image(scheme, img_stats, cfg)
            result = (
                img_result if result is None else _accumulate(result, img_result)
            )
        assert result is not None
    telemetry.count(f"analytical.{scheme}.cycles", result.cycles)
    profiling.record_layer(result)
    return result


class GridPoint(NamedTuple):
    """One scored machine of :func:`predict_grid`: cycles and breakdown."""

    cycles: float
    breakdown: Breakdown


#: Schemes :func:`predict_grid` scores (the cluster machines a sweep ranks).
GRID_SCHEMES = ("dense",) + tuple(_TWO_SIDED_VARIANT)


def predict_grid(
    stats: DensityStats,
    cfgs: Sequence[HardwareConfig],
    schemes: Sequence[str] = GRID_SCHEMES,
) -> list[dict[str, GridPoint]]:
    """Score many machines on one layer's statistics in one batched pass.

    The design-sweep twin of ``predict_layer(..., stats=stats)`` for
    every cfg: the statistics are regrouped once per distinct cluster
    count, each SparTen variant's per-position barrier model is
    evaluated once per distinct (units, bisection width) -- it does not
    depend on the cluster assignment -- and one offset bincount reduces
    it onto every cluster count at once. Cycles and breakdowns are
    bit-identical to the per-machine path (both run
    :func:`_cluster_rollup`). Returns, per cfg, ``{scheme: GridPoint}``.

    Grid machines are hypothetical, so nothing is folded into the
    ``profile.*`` stall counters; ``analytical.predict`` counts every
    (cfg, scheme) point scored.
    """
    for scheme in schemes:
        if scheme not in GRID_SCHEMES:
            raise ValueError(
                f"predict_grid scores {GRID_SCHEMES}, got {scheme!r}"
            )
    if not cfgs:
        return []
    regrouped: dict[int, DensityStats] = {}
    for cfg in cfgs:
        if cfg.n_clusters not in regrouped:
            regrouped[cfg.n_clusters] = regroup_stats(stats, cfg)
    machine_of = {n: k for k, n in enumerate(regrouped)}
    axis = _ClusterAxis.stack([r.assignment for r in regrouped.values()])
    useful_c = axis.sum(stats.match_sums)
    # Cluster count aside, a machine's barrier depends on its units and
    # (GB-H floors) bisection width only.
    by_units: dict[tuple[int, int], list[int]] = {}
    for i, cfg in enumerate(cfgs):
        key = (cfg.units_per_cluster, cfg.bisection_width)
        by_units.setdefault(key, []).append(i)

    out: list[dict[str, GridPoint]] = [{} for _ in cfgs]
    for (units, _), members in by_units.items():
        for scheme in schemes:
            if scheme == "dense":
                cluster_cycles, occupied_c = _dense_cluster_sums(
                    stats.spec, axis.cluster_positions, units
                )
            else:
                barrier, _, _ = _two_sided_barriers(
                    stats, cfgs[members[0]], _TWO_SIDED_VARIANT[scheme]
                )
                cluster_cycles, occupied_c = axis.sum(barrier), useful_c
            cycles, breakdowns, _ = _cluster_rollup(
                axis, cluster_cycles, occupied_c, useful_c, units
            )
            for i in members:
                k = machine_of[cfgs[i].n_clusters]
                out[i][scheme] = GridPoint(float(cycles[k]), breakdowns[k])
    telemetry.count("analytical.predict", len(cfgs) * len(schemes))
    return out


def predict_network(
    network,
    cfg: HardwareConfig,
    scheme: str = "sparten",
    seed: int = 0,
) -> list[LayerResult]:
    """Predict every layer of a network spec under one scheme."""
    return [
        predict_layer(layer, cfg, scheme=scheme, seed=seed)
        for layer in network.layers
    ]


def predict_layer_energy(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    scheme: str = "sparten",
    seed: int = 0,
):
    """Analytical energy: the shared energy model over a predicted result."""
    result = predict_layer(spec, cfg, scheme=scheme, seed=seed)
    return layer_energy(result, spec, batch=cfg.batch, chunk_size=cfg.chunk_size)
