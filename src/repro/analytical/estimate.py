"""``repro estimate``: stall attribution from the analytical model alone.

The same per-layer table ``repro profile`` prints -- busy / filter-zero /
barrier-wait / permute / imbalance / memory shares of MAC-cycle capacity
-- but produced in closed form by :mod:`repro.analytical.model`, without
running a single simulated cycle. ``--compare`` adds ground truth for one
layer: predicted vs simulated cycles and bucket shares side by side, the
interactive version of the CI validation gate.
"""

from __future__ import annotations

from repro import telemetry
from repro.analytical.density import extract_density_stats
from repro.analytical.model import predict_layer
from repro.profiling.counters import BUCKETS

__all__ = [
    "ESTIMATE_SCHEMA",
    "DEFAULT_ESTIMATE_SCHEMES",
    "estimate_network",
    "render_estimate",
    "compare_estimate",
    "render_estimate_comparison",
]

ESTIMATE_SCHEMA = "repro-estimate/1"

#: The profiler's default comparison set -- every scheme here has an
#: analytical model, so the tables line up one to one.
DEFAULT_ESTIMATE_SCHEMES = (
    "dense",
    "one_sided",
    "sparten_no_gb",
    "sparten_gb_s",
    "sparten",
)


def estimate_network(
    network: str = "alexnet",
    schemes: tuple[str, ...] = DEFAULT_ESTIMATE_SCHEMES,
    fast: bool = True,
    seed: int = 0,
    layer: str | None = None,
) -> dict:
    """Analytical stall attribution for *schemes* over *network*.

    Mirrors :func:`repro.profiling.attribution.profile_network`'s payload
    shape (per-layer counter dumps + machine-wide totals) so the render
    and downstream tooling stay shared; the payload records
    ``fidelity: "analytical"`` instead of the profiler's ``mode``.
    """
    from repro.eval.experiments import network_by_name
    from repro.sim.config import config_for

    net = network_by_name(network)
    cfg = config_for(net)
    if fast:
        cfg = cfg.with_sampling(200, batch=1)
    specs = (net.layer(layer),) if layer is not None else net.layers

    layers: dict[str, dict[str, dict]] = {}
    totals: dict[str, dict[str, float]] = {s: {b: 0.0 for b in BUCKETS} for s in schemes}
    cycles: dict[str, float] = {s: 0.0 for s in schemes}
    with telemetry.span("estimate", network=network):
        for spec in specs:
            stats = extract_density_stats(spec, cfg, seed=seed)
            for scheme in schemes:
                result = predict_layer(spec, cfg, scheme=scheme, seed=seed, stats=stats)
                counters = result.counters
                layers.setdefault(spec.name, {})[scheme] = counters.to_dict()
                for bucket, value in counters.totals().items():
                    totals[scheme][bucket] += value
                cycles[scheme] += result.cycles
    return {
        "schema": ESTIMATE_SCHEMA,
        "network": network,
        "layer": layer,
        "seed": seed,
        "fast": fast,
        "fidelity": "analytical",
        "schemes": list(schemes),
        "layer_names": [spec.name for spec in specs],
        "layers": layers,
        "totals": totals,
        "cycles": cycles,
    }


def render_estimate(payload: dict) -> str:
    """The analytical stall-attribution table (shares of capacity)."""
    target = payload["network"] + (
        f" / {payload['layer']}" if payload.get("layer") else ""
    )
    lines = [
        f"Analytical estimate: {target} "
        f"(fidelity=analytical, seed={payload['seed']}, "
        f"{'sampled' if payload['fast'] else 'exact'})",
        "Shares of MAC-cycle capacity (total_cycles x units x clusters):",
        f"{'layer':<10s} {'scheme':<15s} {'cycles':>12s} "
        f"{'busy%':>6s} {'zero%':>6s} {'wait%':>6s} {'perm%':>6s} "
        f"{'imbal%':>6s} {'mem%':>6s}",
    ]
    for layer_name in payload["layer_names"]:
        for scheme in payload["schemes"]:
            dump = payload["layers"][layer_name][scheme]
            capacity = (
                dump["total_cycles"] * dump["units_per_cluster"] * dump["n_clusters"]
            )
            shares = {
                name: 100.0 * dump["totals"][name] / capacity if capacity else 0.0
                for name in BUCKETS
            }
            lines.append(
                f"{layer_name:<10s} {scheme:<15s} {dump['total_cycles']:>12.0f} "
                f"{shares['busy']:>6.1f} {shares['filter_zero']:>6.1f} "
                f"{shares['barrier_wait']:>6.1f} {shares['permute_stall']:>6.1f} "
                f"{shares['imbalance_idle']:>6.1f} {shares['memory_stall']:>6.1f}"
            )
    return "\n".join(lines)


def compare_estimate(
    network: str,
    layer: str,
    schemes: tuple[str, ...] = DEFAULT_ESTIMATE_SCHEMES,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Predicted vs simulated cycles for one layer, per scheme."""
    from repro.core.compare import run_scheme_cached
    from repro.eval.experiments import network_by_name
    from repro.sim.config import config_for

    net = network_by_name(network)
    cfg = config_for(net)
    if fast:
        cfg = cfg.with_sampling(200, batch=1)
    spec = net.layer(layer)
    stats = extract_density_stats(spec, cfg, seed=seed)
    rows: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        pred = predict_layer(spec, cfg, scheme=scheme, seed=seed, stats=stats)
        sim = run_scheme_cached(scheme, spec, cfg, seed)
        rows[scheme] = {
            "predicted_cycles": pred.cycles,
            "simulated_cycles": sim.cycles,
            "error": (pred.cycles - sim.cycles) / sim.cycles if sim.cycles else 0.0,
        }
    return {"network": network, "layer": layer, "seed": seed, "rows": rows}


def render_estimate_comparison(comparison: dict) -> str:
    """Side-by-side predicted vs simulated table with signed errors."""
    lines = [
        f"Predicted vs simulated: {comparison['network']} / "
        f"{comparison['layer']} (seed={comparison['seed']})",
        f"{'scheme':<15s} {'predicted':>12s} {'simulated':>12s} {'error':>8s}",
    ]
    for scheme, row in comparison["rows"].items():
        lines.append(
            f"{scheme:<15s} {row['predicted_cycles']:>12.0f} "
            f"{row['simulated_cycles']:>12.0f} {row['error']:>+7.1%}"
        )
    return "\n".join(lines)
