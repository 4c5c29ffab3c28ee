"""Design-space sweeps: machine scaling and analytical pre-screening.

The paper fixes two machine sizes (Table 2); these sweeps explore the
geometry space and show the scaling cliffs the breakdowns of Figures
10-12 hint at:

- more clusters than output positions leave whole clusters idle
  (inter-cluster loss; the GoogLeNet Inception 5a effect),
- more units per cluster than filters leave units idle within the
  groups (intra-cluster loss; the 5x5-reduce effect),
- and barrier granularity means the speedup of adding units saturates
  before the MAC count does.

Every sweep point routes through the content-hash result memo
(:func:`repro.core.compare.run_scheme_cached` via the fidelity ladder),
so repeated or overlapping sweeps -- and sweeps whose points differ only
in knobs outside the workload key -- hit the PR 1 cache instead of
re-simulating. :func:`prescreened_sweep` is the two-phase mode: the
analytical tier scores the *full* grid in closed form, then only the
top-k survivors pay for cycle-level simulation.
"""

from __future__ import annotations

from repro import telemetry
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import HardwareConfig
from repro.telemetry import events
from repro.telemetry.progress import ProgressRenderer

__all__ = [
    "machine_scaling_sweep",
    "prescreened_sweep",
    "render_scaling",
    "render_prescreened",
]

#: Greedy-balancing variant -> result-memo scheme name.
_SCHEME_OF = {"no_gb": "sparten_no_gb", "gb_s": "sparten_gb_s", "gb_h": "sparten"}


def _sweep_config(
    n_clusters: int, units: int, position_sample: int | None
) -> HardwareConfig:
    return HardwareConfig(
        name=f"sweep_{n_clusters}x{units}",
        n_clusters=n_clusters,
        units_per_cluster=units,
        position_sample=position_sample,
    )


def _sweep_point(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    variant: str,
    seed: int,
    fidelity: str | None,
) -> dict[str, float]:
    """One geometry's speedup/utilisation row at the chosen fidelity."""
    from repro.analytical.fidelity import simulate_at_fidelity

    dense = simulate_at_fidelity("dense", spec, cfg, seed, fidelity=fidelity)
    sparse = simulate_at_fidelity(
        _SCHEME_OF[variant], spec, cfg, seed, fidelity=fidelity
    )
    return _row_from_results(dense, sparse, cfg)


def machine_scaling_sweep(
    spec: ConvLayerSpec,
    geometries: tuple[tuple[int, int], ...] = (
        (4, 8),
        (8, 16),
        (16, 32),
        (32, 32),
        (64, 32),
    ),
    variant: str = "gb_h",
    position_sample: int | None = 200,
    seed: int = 0,
    fidelity: str | None = None,
    shard: tuple[int, int] | str | None = None,
) -> dict:
    """Sweep (clusters, units) geometries over one layer.

    Returns, per geometry: total MACs, SparTen speedup over the same-size
    dense machine, machine utilisation (useful MACs / MAC-cycles), and
    the loss fractions. Scaling efficiency = utilisation relative to the
    smallest machine's. *fidelity* picks the ladder rung (default: the
    run configuration's, ``REPRO_FIDELITY``); ``"analytical"`` scores the
    whole sweep without running the cycle-level machine.

    *shard* (``(index, count)`` or ``"I/N"``) restricts the sweep to
    this process's deterministic content-hash slice of the geometry
    grid -- the same partition every other shard of the sweep computes
    (:func:`repro.dist.shard.shard_of`), so N shards cover the grid
    exactly once with no coordination. Points route through the result
    memo/disk store, so co-operating shards sharing ``REPRO_CACHE_DIR``
    also share work.
    """
    if variant not in _SCHEME_OF:
        raise ValueError(f"variant must be one of {sorted(_SCHEME_OF)}, got {variant!r}")
    label = "sweep"
    if shard is not None:
        from repro.dist.shard import parse_shard, shard_of

        index, count = parse_shard(shard) if isinstance(shard, str) else shard
        geometries = tuple(
            (c, u)
            for c, u in geometries
            if shard_of(f"{spec.name}:{c}x{u}:{variant}:{seed}", count) == index
        )
        label = f"sweep {index}/{count}"
    out: dict[tuple[int, int], dict[str, float]] = {}
    with telemetry.span("scaling_sweep", layer=spec.name):
        with ProgressRenderer(total=len(geometries), label=label) as progress:
            for n_clusters, units in geometries:
                cfg = _sweep_config(n_clusters, units, position_sample)
                row = _sweep_point(spec, cfg, variant, seed, fidelity)
                out[(n_clusters, units)] = row
                events.emit(
                    "sweep.point",
                    name=f"{n_clusters}x{units}",
                    clusters=n_clusters,
                    units=units,
                    variant=variant,
                    speedup=row["speedup_vs_dense"],
                    cycles=row["cycles"],
                )
                progress.update(done=len(out))
    return out


def _row_from_results(dense, sparse, cfg: HardwareConfig) -> dict[str, float]:
    """A sweep row from the dense and sparse results' cycles and breakdown."""
    total = sparse.breakdown.total
    return {
        "total_macs": float(cfg.total_macs),
        "speedup_vs_dense": dense.cycles / sparse.cycles,
        "cycles": sparse.cycles,
        "utilization": sparse.breakdown.nonzero_macs / total if total else 0.0,
        "intra_fraction": sparse.breakdown.intra_loss / total if total else 0.0,
        "inter_fraction": sparse.breakdown.inter_loss / total if total else 0.0,
    }


def prescreened_sweep(
    spec: ConvLayerSpec,
    geometries: tuple[tuple[int, int], ...],
    variants: tuple[str, ...] | str = "gb_h",
    position_sample: int | None = 200,
    seed: int = 0,
    top_k: int = 3,
    final_fidelity: str = "counters",
    stats_sample: int | None = 512,
) -> dict:
    """Two-phase design-space sweep: analytical pre-screen, then simulate.

    Phase 1 scores *every* (clusters, units, variant) point with the
    analytical tier from **one** density-statistics extraction:
    statistics are extracted once at a canonical single-cluster geometry
    (``stats_sample`` positions, evenly spaced over the output map) and
    re-sliced onto each cluster count with
    :func:`repro.analytical.density.regroup_stats`.
    :func:`repro.analytical.model.predict_grid` scores the grid as
    arrays: one barrier evaluation per (units, variant), and one offset
    bincount over every cluster count. Phase 2 re-runs only
    the *top_k* survivors, ranked by predicted speedup over dense, at
    *final_fidelity* on the cycle-level machine (matched
    ``position_sample``). Returns::

        {
            "analytical": {(clusters, units, variant): row, ...},  # full grid
            "survivors": [(clusters, units, variant), ...],        # top-k
            "simulated": {(clusters, units, variant): row, ...},   # survivors
        }

    The validation gate (:mod:`repro.analytical.validate`) is what makes
    the pre-screen trustworthy: ranking correlation >= 0.95 means the
    simulated optimum is in the analytical top-k for any reasonable k.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if isinstance(variants, str):
        variants = (variants,)
    for variant in variants:
        if variant not in _SCHEME_OF:
            raise ValueError(
                f"variants must be among {sorted(_SCHEME_OF)}, got {variant!r}"
            )
    from repro.analytical.density import extract_density_stats
    from repro.analytical.model import predict_grid

    with telemetry.span("prescreened_sweep", layer=spec.name):
        with telemetry.span("prescreen_analytical", layer=spec.name):
            canonical = HardwareConfig(
                name="prescreen_canonical",
                n_clusters=1,
                units_per_cluster=1,
                position_sample=stats_sample,
            )
            stats = extract_density_stats(spec, canonical, seed)
            cfgs = [_sweep_config(c, u, position_sample) for c, u in geometries]
            schemes = ("dense",) + tuple(_SCHEME_OF[v] for v in variants)
            scored = predict_grid(stats, cfgs, schemes)
            analytical: dict[tuple[int, int, str], dict[str, float]] = {}
            for (n_clusters, units), cfg, point in zip(geometries, cfgs, scored):
                for variant in variants:
                    analytical[(n_clusters, units, variant)] = _row_from_results(
                        point["dense"], point[_SCHEME_OF[variant]], cfg
                    )
        survivors = sorted(
            analytical, key=lambda g: -analytical[g]["speedup_vs_dense"]
        )[:top_k]
        telemetry.count("sweep.prescreen.points", len(analytical))
        telemetry.count("sweep.prescreen.survivors", len(survivors))
        simulated: dict[tuple[int, int, str], dict[str, float]] = {}
        with telemetry.span("prescreen_survivors", layer=spec.name):
            with ProgressRenderer(total=len(survivors), label="sweep") as progress:
                for n_clusters, units, variant in survivors:
                    cfg = _sweep_config(n_clusters, units, position_sample)
                    row = _sweep_point(spec, cfg, variant, seed, final_fidelity)
                    simulated[(n_clusters, units, variant)] = row
                    events.emit(
                        "sweep.point",
                        name=f"{n_clusters}x{units}:{variant}",
                        clusters=n_clusters,
                        units=units,
                        variant=variant,
                        speedup=row["speedup_vs_dense"],
                        cycles=row["cycles"],
                        phase="survivor",
                    )
                    progress.update(done=len(simulated))
    return {
        "analytical": analytical,
        "survivors": survivors,
        "simulated": simulated,
    }


def render_prescreened(result: dict, layer_name: str) -> str:
    """Table view of a two-phase sweep: full analytical grid + survivors."""
    lines = [
        f"Pre-screened sweep on {layer_name}: "
        f"{len(result['analytical'])} points scored analytically, "
        f"{len(result['survivors'])} simulated",
        f"{'clusters':>9s} {'units':>6s} {'variant':>8s} {'pred speedup':>13s} "
        f"{'sim speedup':>12s} {'survivor':>9s}",
    ]
    ranked = sorted(
        result["analytical"],
        key=lambda g: -result["analytical"][g]["speedup_vs_dense"],
    )
    for geom in ranked:
        clusters, units, variant = geom
        pred = result["analytical"][geom]["speedup_vs_dense"]
        sim = result["simulated"].get(geom)
        sim_text = f"{sim['speedup_vs_dense']:.2f}x" if sim else "-"
        lines.append(
            f"{clusters:9d} {units:6d} {variant:>8s} {pred:12.2f}x "
            f"{sim_text:>12s} {'yes' if geom in result['survivors'] else '':>9s}"
        )
    return "\n".join(lines)


def render_scaling(sweep: dict, layer_name: str) -> str:
    """Table view of a machine-scaling sweep."""
    lines = [
        f"Machine scaling on {layer_name} (SparTen GB-H vs equal-MAC dense)",
        f"{'clusters':>9s} {'units':>6s} {'MACs':>6s} {'speedup':>8s} "
        f"{'util':>6s} {'intra':>6s} {'inter':>6s}",
    ]
    for (clusters, units), row in sweep.items():
        lines.append(
            f"{clusters:9d} {units:6d} {row['total_macs']:6.0f} "
            f"{row['speedup_vs_dense']:7.2f}x {row['utilization']:6.1%} "
            f"{row['intra_fraction']:6.1%} {row['inter_fraction']:6.1%}"
        )
    return "\n".join(lines)
