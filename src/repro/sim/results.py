"""Result records: cycles plus the four-way execution-time breakdown.

Figures 10-12 decompose each architecture's execution time into
(a) non-zero computation, (b) zero computation, (c) intra-cluster
(intra-PE) loss, and (d) inter-cluster (inter-PE) loss. We account in
*MAC-cycles*: one MAC-cycle is one multiplier for one cycle, so a layer
occupies ``cycles x total_macs`` MAC-cycles that split exactly into the
four components. Normalising by the dense architecture's total yields the
paper's stacked bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, log
from typing import TYPE_CHECKING

from repro.arch.memory import Traffic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (profiling -> sim)
    from repro.profiling.counters import CounterSet

__all__ = [
    "Breakdown",
    "LayerResult",
    "NetworkResult",
    "geomean",
    "observability_extras",
]


@dataclass(frozen=True)
class Breakdown:
    """MAC-cycle decomposition of one layer's execution.

    Attributes:
        nonzero_macs: useful multiplies (both operands non-zero and the
            product contributes to an output).
        zero_macs: multiplies wasted on zero operands (dense/one-sided)
            or on products that cannot contribute (SCNN with non-unit
            stride).
        intra_loss: MAC-cycles idle inside busy clusters/PEs (barrier
            imbalance, missing filters, fractional multiplier-array use).
        inter_loss: MAC-cycles of clusters/PEs idle while the slowest
            one finishes the layer.
    """

    nonzero_macs: float
    zero_macs: float
    intra_loss: float
    inter_loss: float

    @property
    def total(self) -> float:
        return self.nonzero_macs + self.zero_macs + self.intra_loss + self.inter_loss

    def scaled(self, factor: float) -> "Breakdown":
        return Breakdown(
            nonzero_macs=self.nonzero_macs * factor,
            zero_macs=self.zero_macs * factor,
            intra_loss=self.intra_loss * factor,
            inter_loss=self.inter_loss * factor,
        )

    def __add__(self, other: "Breakdown") -> "Breakdown":
        return Breakdown(
            nonzero_macs=self.nonzero_macs + other.nonzero_macs,
            zero_macs=self.zero_macs + other.zero_macs,
            intra_loss=self.intra_loss + other.intra_loss,
            inter_loss=self.inter_loss + other.inter_loss,
        )


@dataclass(frozen=True)
class LayerResult:
    """One (layer, scheme) simulation outcome.

    Attributes:
        scheme: architecture label (``dense``, ``one_sided``,
            ``sparten_no_gb``, ``sparten_gb_s``, ``sparten``, ``scnn``,
            ``scnn_one_sided``, ``scnn_dense``).
        layer_name: the simulated layer.
        cycles: layer latency in cycles (compute-bound unless a roofline
            bound was applied; then the bounded value).
        compute_cycles: the unbounded compute latency.
        total_macs: multipliers in the machine (cycles x total_macs =
            breakdown total, up to sampling rescale rounding).
        breakdown: the four-way MAC-cycle decomposition.
        traffic: off-chip traffic for the layer (per image, filters
            amortised over the batch).
        extras: model-specific diagnostics (permute cycles, barrier
            counts, utilisation, ...).
        counters: per-cluster hardware counters
            (:class:`repro.profiling.counters.CounterSet`), attached by
            every simulator and analytical prediction. Excluded from
            equality: counters are observability, never figure values.
    """

    scheme: str
    layer_name: str
    cycles: float
    compute_cycles: float
    total_macs: int
    breakdown: Breakdown
    traffic: Traffic
    extras: dict = field(default_factory=dict)
    counters: "CounterSet | None" = field(default=None, compare=False)

    def speedup_over(self, baseline: "LayerResult") -> float:
        """Speedup of this result relative to *baseline* (same layer)."""
        if self.layer_name != baseline.layer_name:
            raise ValueError(
                f"layer mismatch: {self.layer_name} vs {baseline.layer_name}"
            )
        if self.cycles <= 0:
            raise ValueError("cannot compute speedup with non-positive cycles")
        return baseline.cycles / self.cycles


@dataclass(frozen=True)
class NetworkResult:
    """All layer results of one network under one scheme."""

    scheme: str
    network_name: str
    layers: tuple[LayerResult, ...]

    def layer(self, name: str) -> LayerResult:
        for result in self.layers:
            if result.layer_name == name:
                return result
        raise KeyError(f"no result for layer {name!r}")

    def counters(self) -> "CounterSet | None":
        """Whole-network counter aggregate: the per-layer sets summed.

        ``None`` when any layer carries no counters (a result built
        by hand) or the network has no layers.
        """
        per_layer = [result.counters for result in self.layers]
        if not per_layer or any(c is None for c in per_layer):
            return None
        total = per_layer[0]
        for counter_set in per_layer[1:]:
            total = total + counter_set
        return total

    def geomean_speedup_over(
        self, baseline: "NetworkResult", exclude: tuple[str, ...] = ()
    ) -> float:
        """Geometric-mean per-layer speedup, optionally excluding layers."""
        if len(self.layers) != len(baseline.layers):
            raise ValueError(
                f"no layers can be paired: network {self.network_name!r} "
                f"({self.scheme}) has {len(self.layers)} layers but baseline "
                f"{baseline.network_name!r} ({baseline.scheme}) has "
                f"{len(baseline.layers)}"
            )
        speedups = [
            mine.speedup_over(base)
            for mine, base in zip(self.layers, baseline.layers)
            if mine.layer_name not in exclude
        ]
        if not speedups:
            raise ValueError(
                f"no layers left after exclusions on network "
                f"{self.network_name!r}: layers "
                f"{[r.layer_name for r in self.layers]} are all excluded by "
                f"{sorted(exclude)}"
            )
        return geomean(speedups)


def observability_extras(breakdown: Breakdown) -> dict:
    """The extras keys every simulator emits, derived from a breakdown.

    One schema across Dense/SparTen/SCNN/dynamic so reports can compare
    schemes column-for-column: utilisation plus the zero/intra/inter
    MAC-cycle splits (inter is the load-imbalance idle the greedy
    balancers target).
    """
    total = breakdown.total
    return {
        "mac_utilization": breakdown.nonzero_macs / total if total > 0 else 0.0,
        "zero_mac_cycles": breakdown.zero_macs,
        "imbalance_idle_mac_cycles": breakdown.inter_loss,
        "intra_idle_mac_cycles": breakdown.intra_loss,
    }


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return exp(sum(log(v) for v in values) / len(values))
