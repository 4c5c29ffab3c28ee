"""Cross-simulator invariants: one workload, many machines, one truth.

The architectures differ in *when* and *where* they multiply, never in
*what*: for a given workload the useful multiply-accumulates are fixed by
the data. This module checks those conservation laws across the
simulators — the deepest consistency check the reproduction has, used by
the test suite and available to users who modify a model:

1. useful MACs agree between Dense, One-sided, and every SparTen variant
   (identical by construction: all derive from the same match counts);
2. SCNN's useful MACs bound them from above at unit stride (its
   Cartesian product adds tile-halo products but misses nothing);
3. each result's breakdown components sum to ``cycles x total MACs``;
4. no scheme beats the workload's two-sided density bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerMasks, synthesize_masks
from repro.sim.config import HardwareConfig
from repro.sim.dense import simulate_dense
from repro.sim.kernels import ChunkWork, compute_chunk_work
from repro.sim.results import LayerResult
from repro.sim.scnn import simulate_scnn
from repro.sim.sparten import simulate_sparten

__all__ = ["ValidationReport", "validate_layer"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the cross-simulator invariant checks on one workload."""

    layer_name: str
    checks: dict[str, bool]
    details: dict[str, str]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def validate_layer(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    data: LayerMasks | None = None,
    work: ChunkWork | None = None,
    seed: int = 0,
    rel_tol: float = 1e-6,
) -> ValidationReport:
    """Run every simulator on one workload and check the invariants."""
    if data is None:
        data = synthesize_masks(spec, seed=seed)
    if work is None:
        work = compute_chunk_work(data, cfg, need_counts=True)

    results: dict[str, LayerResult] = {
        "dense": simulate_dense(spec, cfg, data=data, work=work),
        "one_sided": simulate_sparten(spec, cfg, sided="one", data=data, work=work),
        "sparten_no_gb": simulate_sparten(
            spec, cfg, variant="no_gb", data=data, work=work
        ),
        "sparten_gb_s": simulate_sparten(
            spec, cfg, variant="gb_s", data=data, work=work
        ),
        "sparten": simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work),
        "scnn": simulate_scnn(spec, cfg, variant="two", data=data),
    }

    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    # 1. Useful-MAC conservation across the match-count-based schemes.
    reference = results["dense"].breakdown.nonzero_macs
    for name in ("one_sided", "sparten_no_gb", "sparten_gb_s", "sparten"):
        value = results[name].breakdown.nonzero_macs
        ok = np.isclose(value, reference, rtol=rel_tol)
        checks[f"macs_conserved[{name}]"] = bool(ok)
        details[f"macs_conserved[{name}]"] = f"{value:.0f} vs {reference:.0f}"

    # 2. SCNN covers at least the true matches at unit stride.
    if spec.stride == 1:
        scnn_macs = results["scnn"].breakdown.nonzero_macs
        checks["scnn_covers_matches"] = bool(scnn_macs >= reference * (1 - rel_tol))
        details["scnn_covers_matches"] = f"{scnn_macs:.0f} >= {reference:.0f}"

    # 3. Breakdown identity per scheme.
    for name, result in results.items():
        lhs = result.breakdown.total
        rhs = result.cycles * result.total_macs
        ok = np.isclose(lhs, rhs, rtol=1e-9)
        checks[f"breakdown_identity[{name}]"] = bool(ok)
        details[f"breakdown_identity[{name}]"] = f"{lhs:.0f} vs {rhs:.0f}"

    # 4. No scheme beats the two-sided density bound (+ one barrier slack
    #    cycle per chunk for the min-1-cycle broadcast floor).
    dense_cycles = results["dense"].cycles
    weights = work.assignment.weight_of
    useful = float(np.sum(work.match_sums * weights))
    if useful > 0:
        bound = dense_cycles * useful / results["dense"].breakdown.total
        for name in ("sparten_no_gb", "sparten_gb_s", "sparten"):
            cycles = results[name].cycles
            ok = cycles >= bound * (1 - rel_tol)
            checks[f"density_bound[{name}]"] = bool(ok)
            details[f"density_bound[{name}]"] = f"{cycles:.0f} >= {bound:.0f}"

    return ValidationReport(layer_name=spec.name, checks=checks, details=details)
