"""Stall attribution: where every MAC-cycle of a network went, by cause.

Drives :func:`repro.core.compare.compare_architectures` over a network
(or one layer) and reduces each scheme's attached
:class:`~repro.profiling.counters.CounterSet` into a per-layer table --
the share of the machine's MAC-cycle capacity spent busy, wasted on
filter zeros, waiting at chunk-broadcast barriers, stalled on the GB-H
permutation network, idle on cross-cluster imbalance, or stalled on
memory. ``repro profile`` renders the table and writes the same data as
``profile.json`` (schema ``repro-profile/1``) for CI's counter-invariant
gate (:mod:`benchmarks/check_profile`).
"""

from __future__ import annotations

import json
import pathlib

from repro.profiling.counters import BUCKETS, CounterSet

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_SCHEMES",
    "profile_network",
    "render_attribution",
    "write_profile_json",
]

PROFILE_SCHEMA = "repro-profile/1"

#: The Table-3 comparison set the stall table defaults to (the SparTen
#: family tells the GB story; dense anchors the capacity).
DEFAULT_SCHEMES = ("dense", "one_sided", "sparten_no_gb", "sparten_gb_s", "sparten")


def profile_network(
    network: str = "alexnet",
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    fast: bool = True,
    seed: int = 0,
    layer: str | None = None,
) -> dict:
    """Profile *schemes* on *network* and collect per-layer counters.

    Returns the JSON-able ``repro-profile/1`` payload: per-layer counter
    dumps, machine-wide bucket totals per scheme, and the conservation /
    GB-invariant check results. ``mode`` says whether the active
    fidelity rung attached timelines (``timeline``) or not (``counters``).
    """
    from repro import profiling
    from repro.core.compare import compare_architectures
    from repro.eval.experiments import network_by_name
    from repro.sim.config import config_for

    net = network_by_name(network)
    cfg = config_for(net)
    if fast:
        cfg = cfg.with_sampling(200, batch=1)
    target = net.layer(layer) if layer is not None else net
    comparison = compare_architectures(target, schemes=schemes, cfg=cfg, seed=seed)

    layers: dict[str, dict[str, dict]] = {}
    totals: dict[str, dict[str, float]] = {}
    max_residual = 0.0
    for scheme in comparison.schemes:
        totals[scheme] = {name: 0.0 for name in BUCKETS}
        for layer_name in comparison.layer_names:
            counters = comparison.results[scheme][layer_name].counters
            max_residual = max(max_residual, counters.check_conservation())
            layers.setdefault(layer_name, {})[scheme] = counters.to_dict()
            for bucket, value in counters.totals().items():
                totals[scheme][bucket] += value

    gb_invariant = _gb_imbalance_invariant(comparison)
    return {
        "schema": PROFILE_SCHEMA,
        "network": network,
        "layer": layer,
        "seed": seed,
        "fast": fast,
        "mode": "timeline" if profiling.records_timelines() else "counters",
        "schemes": list(comparison.schemes),
        "layer_names": list(comparison.layer_names),
        "layers": layers,
        "totals": totals,
        "invariants": {
            "conservation_max_rel_residual": max_residual,
            "gb_h_imbalance_le_no_gb": gb_invariant,
        },
    }


def _gb_imbalance_invariant(comparison) -> dict:
    """Per-layer check: GB-H's imbalance idle never exceeds no-GB's.

    Greedy balancing exists to reclaim load-imbalance idle; the profiler
    must show that on every layer. Returns ``{layer: {"no_gb": x,
    "gb_h": y, "holds": bool}}`` for the layers where both schemes ran
    (empty when either is missing from the comparison).
    """
    out: dict[str, dict] = {}
    if not (
        "sparten" in comparison.results and "sparten_no_gb" in comparison.results
    ):
        return out
    for layer_name in comparison.layer_names:
        no_gb = comparison.results["sparten_no_gb"][layer_name].counters
        gb_h = comparison.results["sparten"][layer_name].counters
        if no_gb is None or gb_h is None:
            continue
        no_gb_idle = float(no_gb.imbalance_idle.sum())
        gb_h_idle = float(gb_h.imbalance_idle.sum())
        # Tolerate float summation noise relative to the machine capacity.
        slack = 1e-9 * max(no_gb.capacity() * no_gb.n_clusters, 1.0)
        out[layer_name] = {
            "no_gb": no_gb_idle,
            "gb_h": gb_h_idle,
            "holds": gb_h_idle <= no_gb_idle + slack,
        }
    return out


def render_attribution(profile: dict) -> str:
    """The per-layer stall-attribution table, percentages of capacity."""
    target = profile["network"] + (
        f" / {profile['layer']}" if profile.get("layer") else ""
    )
    lines = [
        f"Stall attribution: {target} "
        f"(mode={profile['mode']}, seed={profile['seed']}, "
        f"{'sampled' if profile['fast'] else 'exact'})",
        "Shares of MAC-cycle capacity (total_cycles x units x clusters):",
        f"{'layer':<10s} {'scheme':<15s} {'cycles':>12s} "
        f"{'busy%':>6s} {'zero%':>6s} {'wait%':>6s} {'perm%':>6s} "
        f"{'imbal%':>6s} {'mem%':>6s}",
    ]
    for layer_name in profile["layer_names"]:
        for scheme in profile["schemes"]:
            dump = profile["layers"][layer_name][scheme]
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
    gb = profile["invariants"]["gb_h_imbalance_le_no_gb"]
    if gb:
        held = sum(1 for row in gb.values() if row["holds"])
        lines.append(
            f"GB invariant (GB-H imbalance-idle <= no-GB): "
            f"{held}/{len(gb)} layers hold"
        )
    lines.append(
        "conservation max relative residual: "
        f"{profile['invariants']['conservation_max_rel_residual']:.3g}"
    )
    return "\n".join(lines)


def write_profile_json(path: str | pathlib.Path, profile: dict) -> pathlib.Path:
    """Write the profile payload to *path*; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(profile, indent=2, sort_keys=True) + "\n")
    return path
