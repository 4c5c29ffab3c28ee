"""Per-cluster hardware counters: the machine's MAC-cycle ledger.

Every simulated layer occupies ``total_cycles x units`` MAC-cycle slots
per cluster. :class:`CounterSet` splits those slots, per cluster, into
the buckets the paper's evaluation reasons about:

- ``busy``           -- useful multiplies (both operands non-zero, the
  product lands on a valid output).
- ``filter_zero``    -- occupied multiplier slots wasted on zero
  operands (one-sided / dense) or on products that cannot contribute
  (SCNN's non-unit-stride discard and cross-term waste).
- ``barrier_wait``   -- units idle inside a busy cluster: the implicit
  barrier at each chunk broadcast (SparTen), idle units in a partial
  filter group, SCNN's fractional multiplier-array use.
- ``permute_stall``  -- whole-cluster stalls when GB-H's permutation
  network cannot hide partial-sum routing under the next chunk.
- ``imbalance_idle`` -- the cluster idle while the slowest cluster
  finishes the layer (what greedy balancing reclaims).
- ``memory_stall``   -- roofline-bound cycles where the whole machine
  waits on memory bandwidth (the FPGA model).

The buckets satisfy a conservation law the simulators must uphold and
tests/CI assert:

    busy + filter_zero + barrier_wait + permute_stall
        + imbalance_idle + memory_stall  ==  total_cycles * units

per cluster (up to float summation order; see
:meth:`CounterSet.check_conservation`). In the coarse grouping of the
acceptance criteria, *idle* = ``barrier_wait + imbalance_idle`` and
*stall* = ``permute_stall + memory_stall``.

Timelines (the ``timeline`` and ``trace`` fidelity rungs) down-sample
each cluster's execution into a fixed number of progress bins
(:data:`repro.profiling.TIMELINE_BINS`) -- ``timeline_cycles``
holds wall cycles per bin (rows sum to the cluster's cycles) and
``timeline_busy`` the occupied MAC-cycle slots per bin -- so profiling
cost stays O(clusters x bins), never O(cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BUCKETS",
    "CounterSet",
    "zero_counters",
    "positional_timeline",
]

#: Bucket names, in conservation-law order.
BUCKETS = (
    "busy",
    "filter_zero",
    "barrier_wait",
    "permute_stall",
    "imbalance_idle",
    "memory_stall",
)


@dataclass
class CounterSet:
    """Per-cluster MAC-cycle counters for one simulated layer.

    Array fields are float64 of shape ``(n_clusters,)`` in MAC-cycles
    (one multiplier for one cycle). ``total_cycles`` is the layer's wall
    cycles; every cluster owns ``total_cycles * units_per_cluster``
    slots, the shortfall of slower-to-finish clusters being
    ``imbalance_idle``. Adding two sets (``__add__``) accumulates batch
    images exactly like :class:`repro.sim.results.Breakdown` does.
    """

    scheme: str
    n_clusters: int
    units_per_cluster: int
    total_cycles: float
    busy: np.ndarray
    filter_zero: np.ndarray
    barrier_wait: np.ndarray
    permute_stall: np.ndarray
    imbalance_idle: np.ndarray
    memory_stall: np.ndarray
    barriers: float = 0.0
    buffer_hwm: dict = field(default_factory=dict)
    timeline_cycles: np.ndarray | None = None
    timeline_busy: np.ndarray | None = None

    # -- views ---------------------------------------------------------------

    def bucket(self, name: str) -> np.ndarray:
        if name not in BUCKETS:
            raise KeyError(f"unknown counter bucket {name!r} (have {BUCKETS})")
        return getattr(self, name)

    def totals(self) -> dict[str, float]:
        """Machine-wide MAC-cycle total per bucket."""
        return {name: float(self.bucket(name).sum()) for name in BUCKETS}

    def per_cluster_total(self) -> np.ndarray:
        """Sum of all buckets per cluster (should equal the capacity)."""
        out = np.zeros(self.n_clusters, dtype=np.float64)
        for name in BUCKETS:
            out += self.bucket(name)
        return out

    def capacity(self) -> float:
        """MAC-cycle slots per cluster: ``total_cycles * units``."""
        return float(self.total_cycles) * self.units_per_cluster

    def utilization(self) -> float:
        """Useful MACs over the whole machine's MAC-cycle capacity."""
        cap = self.capacity() * self.n_clusters
        return float(self.busy.sum()) / cap if cap > 0 else 0.0

    # -- the conservation law ------------------------------------------------

    def conservation_residual(self) -> np.ndarray:
        """Per-cluster ``sum(buckets) - total_cycles * units``."""
        return self.per_cluster_total() - self.capacity()

    def check_conservation(self, rtol: float = 1e-6) -> float:
        """Assert busy+idle+stall == total cycles per cluster.

        Returns the maximum relative residual; raises ``ValueError`` when
        any cluster's buckets do not sum to its slot capacity within
        *rtol* (relative to the capacity, floor 1 slot for empty layers).
        """
        cap = max(self.capacity(), 1.0)
        rel = np.abs(self.conservation_residual()) / cap
        worst = float(rel.max()) if rel.size else 0.0
        if worst > rtol:
            cluster = int(np.argmax(rel))
            raise ValueError(
                f"cycle conservation violated for scheme {self.scheme!r}: "
                f"cluster {cluster} buckets sum to "
                f"{self.per_cluster_total()[cluster]:.6g} MAC-cycles but "
                f"capacity is {self.capacity():.6g} "
                f"(relative residual {worst:.3g} > rtol {rtol:g})"
            )
        return worst

    # -- accumulation / transforms -------------------------------------------

    def __add__(self, other: "CounterSet") -> "CounterSet":
        if (
            self.scheme != other.scheme
            or self.n_clusters != other.n_clusters
            or self.units_per_cluster != other.units_per_cluster
        ):
            raise ValueError(
                "cannot add counters from different machines: "
                f"({self.scheme}, {self.n_clusters}x{self.units_per_cluster}) "
                f"vs ({other.scheme}, {other.n_clusters}x{other.units_per_cluster})"
            )
        hwm = dict(self.buffer_hwm)
        for key, value in other.buffer_hwm.items():
            hwm[key] = max(hwm.get(key, value), value)
        both_timelines = (
            self.timeline_cycles is not None and other.timeline_cycles is not None
        )
        return CounterSet(
            scheme=self.scheme,
            n_clusters=self.n_clusters,
            units_per_cluster=self.units_per_cluster,
            total_cycles=self.total_cycles + other.total_cycles,
            busy=self.busy + other.busy,
            filter_zero=self.filter_zero + other.filter_zero,
            barrier_wait=self.barrier_wait + other.barrier_wait,
            permute_stall=self.permute_stall + other.permute_stall,
            imbalance_idle=self.imbalance_idle + other.imbalance_idle,
            memory_stall=self.memory_stall + other.memory_stall,
            barriers=self.barriers + other.barriers,
            buffer_hwm=hwm,
            timeline_cycles=(
                self.timeline_cycles + other.timeline_cycles
                if both_timelines
                else None
            ),
            timeline_busy=(
                self.timeline_busy + other.timeline_busy if both_timelines else None
            ),
        )

    def with_memory_stall(self, stall_cycles: float) -> "CounterSet":
        """Roofline bound applied: the whole machine idles on memory.

        Extends the layer by *stall_cycles* wall cycles and charges the
        added ``stall * units`` slots of every cluster to the
        ``memory_stall`` bucket, preserving the conservation law. The
        timeline (if any) gains the stall spread uniformly across bins,
        mirroring a bandwidth-bound layer's stretched execution.
        """
        if stall_cycles <= 0:
            return self
        added = np.full(self.n_clusters, stall_cycles * self.units_per_cluster)
        tl_cycles = self.timeline_cycles
        if tl_cycles is not None:
            tl_cycles = tl_cycles + stall_cycles / tl_cycles.shape[1]
        return CounterSet(
            scheme=self.scheme,
            n_clusters=self.n_clusters,
            units_per_cluster=self.units_per_cluster,
            total_cycles=self.total_cycles + stall_cycles,
            busy=self.busy.copy(),
            filter_zero=self.filter_zero.copy(),
            barrier_wait=self.barrier_wait.copy(),
            permute_stall=self.permute_stall.copy(),
            imbalance_idle=self.imbalance_idle.copy(),
            memory_stall=self.memory_stall + added,
            barriers=self.barriers,
            buffer_hwm=dict(self.buffer_hwm),
            timeline_cycles=tl_cycles,
            timeline_busy=(
                self.timeline_busy.copy() if self.timeline_busy is not None else None
            ),
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-able form (``profile.json``, manifests)."""
        out: dict = {
            "scheme": self.scheme,
            "n_clusters": self.n_clusters,
            "units_per_cluster": self.units_per_cluster,
            "total_cycles": float(self.total_cycles),
            "barriers": float(self.barriers),
            "utilization": self.utilization(),
            "buffer_hwm": {k: float(v) for k, v in self.buffer_hwm.items()},
            "totals": self.totals(),
            "per_cluster": {
                name: [float(v) for v in self.bucket(name)] for name in BUCKETS
            },
        }
        if self.timeline_cycles is not None and self.timeline_busy is not None:
            out["timeline"] = {
                "bins": int(self.timeline_cycles.shape[1]),
                "cycles": self.timeline_cycles.tolist(),
                "busy": self.timeline_busy.tolist(),
            }
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "CounterSet":
        per_cluster = payload["per_cluster"]
        arrays = {name: np.asarray(per_cluster[name], dtype=np.float64) for name in BUCKETS}
        timeline = payload.get("timeline")
        return cls(
            scheme=payload["scheme"],
            n_clusters=int(payload["n_clusters"]),
            units_per_cluster=int(payload["units_per_cluster"]),
            total_cycles=float(payload["total_cycles"]),
            barriers=float(payload.get("barriers", 0.0)),
            buffer_hwm=dict(payload.get("buffer_hwm", {})),
            timeline_cycles=(
                np.asarray(timeline["cycles"], dtype=np.float64)
                if timeline
                else None
            ),
            timeline_busy=(
                np.asarray(timeline["busy"], dtype=np.float64) if timeline else None
            ),
            **arrays,
        )


def zero_counters(
    scheme: str,
    n_clusters: int,
    units_per_cluster: int,
    timeline_bins: int = 0,
) -> CounterSet:
    """An all-zero :class:`CounterSet` ready for accumulation."""
    zeros = lambda: np.zeros(n_clusters, dtype=np.float64)  # noqa: E731
    tl = (
        np.zeros((n_clusters, timeline_bins), dtype=np.float64)
        if timeline_bins > 0
        else None
    )
    return CounterSet(
        scheme=scheme,
        n_clusters=n_clusters,
        units_per_cluster=units_per_cluster,
        total_cycles=0.0,
        busy=zeros(),
        filter_zero=zeros(),
        barrier_wait=zeros(),
        permute_stall=zeros(),
        imbalance_idle=zeros(),
        memory_stall=zeros(),
        timeline_cycles=tl,
        timeline_busy=tl.copy() if tl is not None else None,
    )


def positional_timeline(
    cluster_of: np.ndarray,
    wall: np.ndarray,
    busy: np.ndarray,
    n_clusters: int,
    bins: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Down-sample per-position costs into per-cluster progress bins.

    Positions are processed in order within their cluster, so a
    position's progress fraction is its rank over the cluster's position
    count; *wall* (cycles) and *busy* (occupied MAC-cycle slots) are
    accumulated into ``rank * bins // count``. Returns
    ``(timeline_cycles, timeline_busy)`` of shape ``(n_clusters, bins)``
    where each cycles row sums to its cluster's wall cycles.
    """
    counts = np.bincount(cluster_of, minlength=n_clusters)
    order = np.argsort(cluster_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.empty(cluster_of.size, dtype=np.int64)
    rank[order] = np.arange(cluster_of.size) - starts[cluster_of[order]]
    bin_idx = (rank * bins) // np.maximum(counts[cluster_of], 1)
    tl_cycles = np.zeros((n_clusters, bins), dtype=np.float64)
    tl_busy = np.zeros((n_clusters, bins), dtype=np.float64)
    np.add.at(tl_cycles, (cluster_of, bin_idx), wall)
    np.add.at(tl_busy, (cluster_of, bin_idx), busy)
    return tl_cycles, tl_busy
