"""Architecture comparison: the paper's eight schemes on one workload.

Figures 7-12 compare Dense, One-sided, SparTen-no-GB, SparTen-GB-S,
SparTen (GB-H), SCNN, SCNN-one-sided and SCNN-dense. This module runs any
subset of those on a layer or network, sharing the expensive mask work
across schemes, and returns normalised speedups plus the execution-time
breakdowns.

Workloads and finished per-layer results are memoised through
:mod:`repro.core.workload`, so repeated figure regenerations (and the
runners in :mod:`repro.eval.experiments` that reuse the same layers) skip
both the mask work and the simulators. Layers fan out across processes
via :mod:`repro.core.parallel` when ``REPRO_JOBS`` (or the ``jobs``
argument) asks for it; results are merged in layer order, so parallel
runs are byte-identical to serial ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from repro import telemetry
from repro.core import parallel, workload
from repro.nets.layers import ConvLayerSpec
from repro.nets.models import NetworkSpec
from repro.sim.config import HardwareConfig, LARGE_CONFIG, config_for
from repro.sim.dense import simulate_dense
from repro.sim.results import LayerResult, geomean
from repro.sim.scnn import simulate_scnn
from repro.sim.sparten import simulate_sparten

__all__ = [
    "ALL_SCHEMES",
    "ArchitectureComparison",
    "compare_architectures",
    "run_scheme_cached",
]

#: Every scheme of Figures 7-9, in the paper's plotting order.
ALL_SCHEMES = (
    "dense",
    "one_sided",
    "sparten_no_gb",
    "sparten_gb_s",
    "sparten",
    "scnn",
    "scnn_one_sided",
    "scnn_dense",
)


@dataclass
class ArchitectureComparison:
    """Results of one comparison run.

    ``results[scheme][layer_name]`` holds the :class:`LayerResult`;
    speedups are relative to the ``dense`` scheme (present whenever any
    speedup is requested). ``extras`` carries instrumentation (wall
    times, cache statistics) and never participates in figure values.
    """

    schemes: tuple[str, ...]
    layer_names: tuple[str, ...]
    results: dict[str, dict[str, LayerResult]] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def speedup(self, scheme: str, layer_name: str) -> float:
        """Speedup of *scheme* over dense on one layer."""
        return self.results["dense"][layer_name].cycles / self.results[scheme][
            layer_name
        ].cycles

    def geomean_speedup(self, scheme: str, exclude: tuple[str, ...] = ()) -> float:
        """Geometric-mean speedup over dense across layers."""
        values = [
            self.speedup(scheme, name)
            for name in self.layer_names
            if name not in exclude
        ]
        return geomean(values)

    def breakdown_fractions(self, scheme: str, layer_name: str) -> dict[str, float]:
        """The Figure 10-12 stacked bar: components / dense total.

        Components are MAC-cycles normalised by the dense architecture's
        total MAC-cycles for the same layer, so dense's bar sums to 1.
        """
        dense_total = self.results["dense"][layer_name].breakdown.total
        b = self.results[scheme][layer_name].breakdown
        return {
            "nonzero": b.nonzero_macs / dense_total,
            "zero": b.zero_macs / dense_total,
            "intra_loss": b.intra_loss / dense_total,
            "inter_loss": b.inter_loss / dense_total,
        }


def compare_architectures(
    target: ConvLayerSpec | NetworkSpec,
    schemes: tuple[str, ...] = ALL_SCHEMES,
    cfg: HardwareConfig | None = None,
    seed: int = 0,
    jobs: int | None = None,
) -> ArchitectureComparison:
    """Run *schemes* on a layer or whole network.

    For a :class:`NetworkSpec` the paper's configuration for that network
    is used unless *cfg* overrides it. One workload per (layer, batch
    image) is synthesised once (and memoised across calls) and shared
    across every scheme, so the comparison isolates architecture
    differences exactly as the paper's methodology requires. *jobs*
    overrides ``REPRO_JOBS`` for the per-layer fan-out.
    """
    unknown = set(schemes) - set(ALL_SCHEMES)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    if isinstance(target, NetworkSpec):
        layers = target.layers
        cfg = cfg if cfg is not None else config_for(target)
    else:
        layers = (target,)
        cfg = cfg if cfg is not None else LARGE_CONFIG

    run_schemes = tuple(dict.fromkeys(("dense", *schemes)))
    if any(s.startswith("scnn") for s in run_schemes):
        if cfg.scnn_total_macs != cfg.total_macs:
            import warnings

            warnings.warn(
                f"resource parity violated: SCNN has {cfg.scnn_total_macs} MACs "
                f"but SparTen/Dense have {cfg.total_macs}; cross-architecture "
                "speedups are not apples-to-apples (the paper's Table 2 keeps "
                "them equal)",
                stacklevel=2,
            )
    comparison = ArchitectureComparison(
        schemes=run_schemes,
        layer_names=tuple(layer.name for layer in layers),
        results={s: {} for s in run_schemes},
    )
    needs_counts = any(s.startswith("sparten") for s in run_schemes)
    t0 = time.perf_counter()
    worker = parallel.Replayable(partial(
        _layer_results,
        schemes=run_schemes,
        cfg=cfg,
        seed=seed,
        need_counts=needs_counts,
    ))
    with telemetry.span("compare", network=target.name, arch=cfg.name):
        per_layer = parallel.parallel_map(worker, layers, jobs=jobs)
    for spec, layer_results in zip(layers, per_layer):
        for scheme in run_schemes:
            comparison.results[scheme][spec.name] = layer_results[scheme]
    comparison.extras["timings"] = {
        "compare_seconds": time.perf_counter() - t0,
        "stages": telemetry.get_recorder().span_totals(),
    }
    comparison.extras["cache"] = workload.cache_stats()
    comparison.extras["counters"] = telemetry.get_recorder().counters()
    return comparison


def _layer_results(
    spec: ConvLayerSpec,
    *,
    schemes: tuple[str, ...],
    cfg: HardwareConfig,
    seed: int,
    need_counts: bool,
) -> dict[str, LayerResult]:
    """All schemes on one layer, accumulated over the batch (picklable)."""
    out: dict[str, LayerResult] = {}
    for image in range(cfg.batch):
        for scheme in schemes:
            result = run_scheme_cached(
                scheme, spec, cfg, seed + image, need_counts=need_counts
            )
            prior = out.get(scheme)
            out[scheme] = result if prior is None else _accumulate(prior, result)
    return out


def run_scheme_cached(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int,
    need_counts: bool = True,
    key: tuple | None = None,
) -> LayerResult:
    """One scheme on one single-image workload, memoised by content key
    (*key*, default :func:`repro.core.workload.result_key` of the scheme)."""
    key = key or workload.result_key(scheme, spec, cfg, seed)
    result = workload.lookup_result(key)
    if result is None:
        data, work = workload.get_workload(spec, cfg, seed, need_counts=need_counts)
        with telemetry.span("simulate", scheme=scheme, layer=spec.name):
            result = _run_scheme(scheme, spec, cfg, data, work, seed)
        workload.store_result(key, result)
    return result


def _run_scheme(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    data,
    work,
    seed: int,
) -> LayerResult:
    if scheme == "dense":
        return simulate_dense(spec, cfg, data=data, work=work)
    if scheme == "dense_naive":
        return simulate_dense(spec, cfg, data=data, work=work, naive_buffers=True)
    if scheme == "one_sided":
        return simulate_sparten(spec, cfg, sided="one", data=data, work=work)
    if scheme == "sparten_no_gb":
        return simulate_sparten(spec, cfg, variant="no_gb", data=data, work=work)
    if scheme == "sparten_gb_s":
        return simulate_sparten(spec, cfg, variant="gb_s", data=data, work=work)
    if scheme == "sparten":
        return simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work)
    if scheme == "scnn":
        return simulate_scnn(spec, cfg, variant="two", data=data)
    if scheme == "scnn_one_sided":
        return simulate_scnn(spec, cfg, variant="one", data=data)
    if scheme == "scnn_dense":
        return simulate_scnn(spec, cfg, variant="dense", data=data)
    raise ValueError(f"unknown scheme {scheme!r}")


def _accumulate(a: LayerResult, b: LayerResult) -> LayerResult:
    """Accumulate batch images: cycles, breakdowns and counters add."""
    from dataclasses import replace

    counters = None
    if a.counters is not None and b.counters is not None:
        counters = a.counters + b.counters
    return replace(
        a,
        cycles=a.cycles + b.cycles,
        compute_cycles=a.compute_cycles + b.compute_cycles,
        breakdown=a.breakdown + b.breakdown,
        counters=counters,
    )
