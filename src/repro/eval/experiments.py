"""Experiment runners: one per table/figure of the paper's evaluation.

Every runner returns plain data structures (dicts of floats / dataclass
records) so the pytest-benchmark targets in ``benchmarks/`` and the
examples can both consume them; :mod:`repro.eval.reporting` renders them
in the paper's format.

The ``fast`` flag trades exactness for time: ``fast=True`` samples output
positions (evenly spaced, exactly rescaled) and simulates one image;
``fast=False`` is the exact full-resolution run. Speedup *ratios* are
insensitive to the sampling because every scheme shares the same sampled
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro import resilience, telemetry
from repro.balance.greedy import gb_h_plan
from repro.balance.metrics import Figure14Data, figure14_distribution
from repro.core import parallel, workload
from repro.core.compare import ALL_SCHEMES, compare_architectures, run_scheme_cached
from repro.core.workload import get_layer_masks, get_workload
from repro.nets.models import NetworkSpec, alexnet, all_networks, googlenet, vggnet
from repro.sim.area import ClusterAreaPower, cluster_area_power
from repro.sim.config import FPGA_CONFIG, HardwareConfig, config_for
from repro.sim.dense import simulate_dense
from repro.sim.energy import EnergyBreakdown, layer_energy
from repro.sim.fpga import FPGA_SCHEMES, simulate_fpga
from repro.sim.results import geomean
from repro.sim.sparten import simulate_sparten

__all__ = [
    "FAST_SAMPLE",
    "speedup_figure",
    "breakdown_figure",
    "energy_figure",
    "gb_impact_figure",
    "fpga_figure",
    "asic_table",
    "design_goals_table",
    "headline_means",
    "storage_analysis",
    "permute_bandwidth_sweep",
    "collocation_ablation",
    "network_by_name",
    "generality_figure",
    "chunk_size_sweep",
    "dynamic_dispatch_ablation",
    "dataflow_figure",
    "coarse_pruning_table",
    "hpc_representation_figure",
    "double_buffer_figure",
    "rle_compute_waste_figure",
    "model_storage_figure",
    "proxy_oracle_figure",
    "density_sensitivity_figure",
]

#: Output positions simulated per cluster in fast mode.
FAST_SAMPLE = 200


def network_by_name(name: str) -> NetworkSpec:
    """Benchmark network lookup (AlexNet / GoogLeNet / VGGNet)."""
    table = {"alexnet": alexnet, "googlenet": googlenet, "vggnet": vggnet}
    try:
        return table[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown network {name!r}; pick from {sorted(table)}") from None


def _fast_cfg(cfg: HardwareConfig, fast: bool) -> HardwareConfig:
    if not fast:
        return cfg
    return cfg.with_sampling(FAST_SAMPLE, batch=1)


# ---------------------------------------------------------------------------
# Figures 7-9: speedup over Dense.
# ---------------------------------------------------------------------------


def speedup_figure(
    network: NetworkSpec,
    schemes: tuple[str, ...] = ALL_SCHEMES,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Per-layer and geomean speedups over Dense (Figures 7, 8, 9).

    Returns ``{"layers": {scheme: {layer: speedup}}, "geomean": {scheme:
    value}}``. Geomeans honour the paper's exclusions: SCNN variants
    exclude the network's ``scnn_mean_exclude`` layers (AlexNet Layer0)
    and all schemes exclude ``mean_exclude`` (VGGNet Layer0).
    """
    cfg = _fast_cfg(config_for(network), fast)
    comparison = compare_architectures(network, schemes=schemes, cfg=cfg, seed=seed)
    layers: dict[str, dict[str, float]] = {}
    geomeans: dict[str, float] = {}
    for scheme in comparison.schemes:
        layers[scheme] = {
            name: comparison.speedup(scheme, name) for name in comparison.layer_names
        }
        exclude = set(network.mean_exclude)
        if scheme.startswith("scnn"):
            exclude |= set(network.scnn_mean_exclude)
        geomeans[scheme] = comparison.geomean_speedup(scheme, exclude=tuple(exclude))
    return {"layers": layers, "geomean": geomeans, "comparison": comparison}


# ---------------------------------------------------------------------------
# Figures 10-12: execution-time breakdown.
# ---------------------------------------------------------------------------


def breakdown_figure(
    network: NetworkSpec,
    schemes: tuple[str, ...] = (
        "dense",
        "one_sided",
        "sparten_no_gb",
        "sparten_gb_s",
        "sparten",
        "scnn",
    ),
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Execution-time breakdowns normalised to Dense (Figures 10-12).

    Returns ``{layer: {scheme: {component: fraction}}}``; components are
    ``nonzero``, ``zero``, ``intra_loss``, ``inter_loss``. The paper's
    omissions apply downstream (AlexNet Layer0 is plotted but flagged).
    """
    cfg = _fast_cfg(config_for(network), fast)
    comparison = compare_architectures(network, schemes=schemes, cfg=cfg, seed=seed)
    table: dict[str, dict[str, dict[str, float]]] = {}
    for layer in comparison.layer_names:
        table[layer] = {
            scheme: comparison.breakdown_fractions(scheme, layer)
            for scheme in comparison.schemes
        }
    return {"breakdown": table, "comparison": comparison}


# ---------------------------------------------------------------------------
# Figure 13: energy.
# ---------------------------------------------------------------------------


def energy_figure(
    networks: tuple[NetworkSpec, ...] | None = None,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Average per-network energy, normalised to Dense-naive (Figure 13).

    Returns ``{network: {scheme: {"compute_nonzero": f, "compute_zero": f,
    "memory_nonzero": f, "memory_zero": f}}}`` with all values divided by
    that network's Dense-naive total (compute) / Dense total (memory --
    buffering does not affect memory energy, so Dense-naive and Dense are
    identical there, as the paper notes).
    """
    networks = networks if networks is not None else all_networks()
    worker = parallel.Replayable(partial(_energy_network_totals, fast=fast, seed=seed))
    per_network = parallel.parallel_map(worker, networks)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for network, totals in zip(networks, per_network):
        base_compute = totals["dense_naive"].compute_total
        base_memory = totals["dense"].memory_total
        out[network.name] = {
            scheme: {
                "compute_nonzero": e.compute_nonzero / base_compute,
                "compute_zero": e.compute_zero / base_compute,
                "memory_nonzero": e.memory_nonzero / base_memory,
                "memory_zero": e.memory_zero / base_memory,
            }
            for scheme, e in totals.items()
        }
    return out


def _energy_network_totals(
    network: NetworkSpec, *, fast: bool, seed: int
) -> dict[str, EnergyBreakdown]:
    """Per-scheme energy totals for one network (picklable worker)."""
    cfg = _fast_cfg(config_for(network), fast)
    schemes = (
        "dense",
        "dense_naive",
        "one_sided",
        "sparten_no_gb",
        "sparten_gb_s",
        "sparten",
    )
    totals: dict[str, EnergyBreakdown] = {}
    for spec in network.layers:
        for scheme in schemes:
            result = run_scheme_cached(scheme, spec, cfg, seed, need_counts=True)
            e = layer_energy(result, spec, chunk_size=cfg.chunk_size)
            totals[scheme] = totals.get(scheme, EnergyBreakdown(0.0, 0.0, 0.0, 0.0)) + e
    return totals


# ---------------------------------------------------------------------------
# Figure 14: greedy-balancing impact.
# ---------------------------------------------------------------------------


def gb_impact_figure(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    chunk_index: int = 0,
    seed: int = 0,
) -> Figure14Data:
    """Per-chunk filter density before/after GB-H (Figure 14).

    Defaults to AlexNet Layer 2 -- 384 filters becoming 192 pairs -- the
    paper's representative layer. The distribution is a stored result
    like a simulated one, so a warm run synthesizes nothing.
    """
    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    cfg = config_for(network)
    key = workload.result_key(f"fig14:{chunk_index}", spec, cfg, seed)
    data = workload.lookup_result(key)
    if data is None:
        masks = get_layer_masks(spec, seed=seed).filter_masks
        plan = gb_h_plan(masks, cfg.units_per_cluster, chunk_size=cfg.chunk_size)
        data = figure14_distribution(
            masks, plan, chunk_index=chunk_index, chunk_size=cfg.chunk_size
        )
        workload.store_result(key, data)
    return data


# ---------------------------------------------------------------------------
# Figures 15-17: FPGA speedups.
# ---------------------------------------------------------------------------


def fpga_figure(
    network: NetworkSpec,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """FPGA speedups over Dense (Figures 15, 16, 17).

    Runs the four FPGA schemes on the single-cluster roofline model.
    """
    cfg = _fast_cfg(FPGA_CONFIG, fast)
    layers: dict[str, dict[str, float]] = {s: {} for s in FPGA_SCHEMES}
    bound: dict[str, list[str]] = {s: [] for s in FPGA_SCHEMES}
    worker = parallel.Replayable(partial(_fpga_layer_results, cfg=cfg, seed=seed))
    with telemetry.span("fpga_figure", network=network.name, arch=cfg.name):
        per_layer = parallel.parallel_map(worker, network.layers)
    for spec, results in zip(network.layers, per_layer):
        dense_cycles = results["dense"].cycles
        for s, r in results.items():
            layers[s][spec.name] = dense_cycles / r.cycles
            if r.extras.get("memory_bound"):
                bound[s].append(spec.name)
    geomeans = {
        s: geomean([v for name, v in layers[s].items() if name not in network.mean_exclude])
        for s in FPGA_SCHEMES
    }
    return {"layers": layers, "geomean": geomeans, "memory_bound": bound}


def _fpga_layer_results(spec, *, cfg: HardwareConfig, seed: int) -> dict:
    """All FPGA schemes on one layer, memoised (picklable worker)."""
    out = {}
    for s in FPGA_SCHEMES:
        key = workload.result_key(f"fpga:{s}", spec, cfg, seed)
        result = workload.lookup_result(key)
        if result is None:
            data, work = get_workload(spec, cfg, seed, need_counts=True)
            with telemetry.span("simulate", scheme=f"fpga:{s}", layer=spec.name):
                result = simulate_fpga(spec, s, cfg=cfg, data=data, work=work)
            workload.store_result(key, result)
        out[s] = result
    return out


# ---------------------------------------------------------------------------
# Table 4: ASIC area/power.
# ---------------------------------------------------------------------------


def asic_table(cfg: HardwareConfig | None = None) -> ClusterAreaPower:
    """The Table 4 component table for one cluster."""
    from repro.sim.config import LARGE_CONFIG

    return cluster_area_power(cfg if cfg is not None else LARGE_CONFIG)


# ---------------------------------------------------------------------------
# Table 1: design goals.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignGoals:
    """The four design-goal predicates for one architecture."""

    architecture: str
    avoids_zero_transfer: bool | None
    avoids_zero_compute: bool | None
    maintains_accuracy: bool | None
    efficient_fully_sparse: bool | None


def design_goals_table() -> list[DesignGoals]:
    """Table 1 evaluated from the implemented models' properties.

    Predicates are derived from the simulators: a scheme avoids zero
    transfer iff its traffic model moves no zero bytes; avoids zero
    compute iff its breakdown's zero component is structurally zero;
    accuracy is maintained by all value-exact schemes (coarse-pruning
    schemes like Cambricon-S are out of scope, recorded per the paper);
    ``None`` marks the paper's N/a entries.
    """
    return [
        DesignGoals("Dense", False, False, True, None),
        DesignGoals("One-sided (Cnvlutin-like)", False, False, True, None),
        DesignGoals("SCNN", True, True, True, False),
        DesignGoals("SparTen", True, True, True, True),
    ]


# ---------------------------------------------------------------------------
# Headline means (Section 5 / abstract).
# ---------------------------------------------------------------------------


def headline_means(fast: bool = True, seed: int = 0) -> dict:
    """The abstract's numbers: SparTen vs Dense / One-sided / SCNN.

    Geometric means over all three networks' layers with the paper's
    exclusions; returns the three simulation ratios plus the FPGA pair.
    Networks fan out across processes under ``REPRO_JOBS``; the ``extras``
    key carries instrumentation only and is excluded from determinism
    comparisons.

    The run is fault-tolerant end to end: per-item retries and pool
    fallbacks in :mod:`repro.core.parallel` keep a dying worker from
    discarding completed networks, quarantined cache entries recompute,
    and with ``$REPRO_CACHE_DIR`` set every finished (network, layer,
    scheme) result is published to the store, which ``repro run
    --resume`` replays.
    ``extras["resilience"]`` reports what the machinery absorbed.
    """
    import time as _time

    t0 = _time.perf_counter()
    networks = all_networks()
    worker = parallel.Replayable(partial(_headline_network_figs, fast=fast, seed=seed))
    with telemetry.span("headline_means", fast=fast, seed=seed):
        per_network = parallel.parallel_map(worker, networks)
    vs_dense: list[float] = []
    vs_one: list[float] = []
    vs_scnn: list[float] = []
    for network, figs in zip(networks, per_network):
        layers = figs["speedup"]
        for name in layers["sparten"]:
            if name in network.mean_exclude:
                continue
            vs_dense.append(layers["sparten"][name])
            vs_one.append(layers["sparten"][name] / layers["one_sided"][name])
            if name not in network.scnn_mean_exclude:
                vs_scnn.append(layers["sparten"][name] / layers["scnn"][name])
    fpga_vs_dense: list[float] = []
    fpga_vs_one: list[float] = []
    for network, figs in zip(networks, per_network):
        for name, v in figs["fpga"]["sparten"].items():
            if name in network.mean_exclude:
                continue
            fpga_vs_dense.append(v)
            fpga_vs_one.append(v / figs["fpga"]["one_sided"][name])
    return {
        "sim_vs_dense": geomean(vs_dense),
        "sim_vs_one_sided": geomean(vs_one),
        "sim_vs_scnn": geomean(vs_scnn),
        "fpga_vs_dense": geomean(fpga_vs_dense),
        "fpga_vs_one_sided": geomean(fpga_vs_one),
        "paper": {
            "sim_vs_dense": 4.7,
            "sim_vs_one_sided": 1.8,
            "sim_vs_scnn": 3.0,
            "fpga_vs_dense": 4.3,
            "fpga_vs_one_sided": 1.9,
        },
        "extras": {
            "wall_seconds": _time.perf_counter() - t0,
            "stages": telemetry.get_recorder().span_totals(),
            "cache": workload.cache_stats(),
            "counters": telemetry.get_recorder().counters(),
            "resilience": resilience.resilience_summary(
                telemetry.get_recorder().counters()
            ),
        },
    }


def _headline_network_figs(network: NetworkSpec, *, fast: bool, seed: int) -> dict:
    """One network's speedup + FPGA layer tables (picklable worker)."""
    fig = speedup_figure(
        network, schemes=("one_sided", "sparten", "scnn"), fast=fast, seed=seed
    )
    fpga = fpga_figure(network, fast=fast, seed=seed)
    return {"speedup": fig["layers"], "fpga": fpga["layers"]}


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md Section 4).
# ---------------------------------------------------------------------------


def storage_analysis(
    n: int = 1 << 20, value_bits: int = 8, densities: np.ndarray | None = None
) -> dict:
    """Bit-mask vs pointer vs RLE storage across densities (Section 3.1).

    Returns the analytic curves and the crossover density ``1/log2(n)``.
    """
    from repro.tensor.analysis import bitmask_bits, crossover_density, pointer_bits

    densities = (
        densities if densities is not None else np.linspace(0.01, 0.6, 60)
    )
    return {
        "densities": densities,
        "bitmask_bits": np.array([bitmask_bits(n, f, value_bits) for f in densities]),
        "pointer_bits": np.array([pointer_bits(n, f, value_bits) for f in densities]),
        "crossover": crossover_density(n),
        "n": n,
    }


def permute_bandwidth_sweep(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    widths: tuple[int, ...] = (1, 2, 4, 8, 16),
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """GB-H cycles vs permutation-network bisection width (Section 3.3).

    The paper claims 1/8 of full provisioning (width 4 of 16 for 32
    units) is "more than adequate"; the sweep shows where thinning starts
    to cost.
    """
    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    cfg = _fast_cfg(config_for(network), fast)
    cycles: dict[int, float] = {}
    for width in widths:
        # The workload key ignores bisection_width, so the sweep shares
        # one cached (data, work) pair across every width.
        wcfg = replace(cfg, bisection_width=width)
        data, work = get_workload(spec, wcfg, seed=seed, need_counts=True)
        cycles[width] = simulate_sparten(
            spec, wcfg, variant="gb_h", data=data, work=work
        ).cycles
    full = cycles[max(widths)]
    return {
        "cycles": cycles,
        "slowdown_vs_full": {w: c / full for w, c in cycles.items()},
        "full_provisioning": cfg.units_per_cluster // 2,
    }


def collocation_ablation(fast: bool = True, seed: int = 0) -> dict:
    """GB with/without the static too-few-filters check (Section 5.1).

    On GoogLeNet's 5x5-reduce layers (16 and 48 filters, non-multiples of
    2 x 16 units) collocation idles half the units; the static check
    recovers no-GB-like behaviour. Returns speedups over Dense for GB-H
    with the check off (paper behaviour) and on.
    """
    network = googlenet()
    cfg = _fast_cfg(config_for(network), fast)
    layers = ("Inc3a_5x5red", "Inc5a_5x5red", "Inc5a_1x1")
    out: dict[str, dict[str, float]] = {}
    for name in layers:
        spec = network.layer(name)
        data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
        dense = simulate_dense(spec, cfg, data=data, work=work)
        no_gb = simulate_sparten(spec, cfg, variant="no_gb", data=data, work=work)
        gb_off = simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work)
        gb_on = simulate_sparten(
            spec, cfg, variant="gb_h", data=data, work=work,
            auto_disable_collocation=True,
        )
        out[name] = {
            "no_gb": dense.cycles / no_gb.cycles,
            "gb_h_paper": dense.cycles / gb_off.cycles,
            "gb_h_static_check": dense.cycles / gb_on.cycles,
        }
    return out


# ---------------------------------------------------------------------------
# Extension experiments (the paper's Section 7 future work + DESIGN.md §4).
# ---------------------------------------------------------------------------


def generality_figure(fast: bool = True, seed: int = 0) -> dict:
    """SparTen beyond unit-stride CNNs: ResNet (strided), MLP, LSTM.

    Runs Dense / One-sided / SparTen on the extended workloads; SCNN runs
    only where its Cartesian product applies (unit stride, convolutional)
    and is reported ``None`` elsewhere -- the applicability gap of
    Table 1 / Section 2.1.1 made concrete.
    """
    from repro.nets.extended import lenet_300_100, lstm_cell_layers, resnet18_layers
    from repro.sim.scnn import simulate_scnn

    # MAC-count parity: 8 x 16 = 128 units = (2 x 4) PEs x 16 multipliers.
    cfg = _fast_cfg(
        HardwareConfig(
            name="gen", n_clusters=8, units_per_cluster=16, scnn_pe_grid=(2, 4)
        ),
        fast,
    )
    workloads: list = []
    for layer in resnet18_layers().layers:
        workloads.append(("ResNet18", layer))
    for fc in lenet_300_100():
        workloads.append(("LeNet-300-100", fc.as_conv()))
    for fc in lstm_cell_layers():
        workloads.append(("LSTM", fc.as_conv()))

    rows: dict[str, dict[str, float | None]] = {}
    for family, spec in workloads:
        data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
        dense = simulate_dense(spec, cfg, data=data, work=work)
        one = simulate_sparten(spec, cfg, sided="one", data=data, work=work)
        sparten = simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work)
        scnn_speedup: float | None = None
        if spec.stride == 1 and spec.out_positions > 1:
            scnn = simulate_scnn(spec, cfg, variant="two", data=data)
            scnn_speedup = dense.cycles / scnn.cycles
        rows[f"{family}/{spec.name}"] = {
            "one_sided": dense.cycles / one.cycles,
            "sparten": dense.cycles / sparten.cycles,
            "scnn": scnn_speedup,
        }
    return rows


def chunk_size_sweep(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    chunk_sizes: tuple[int, ...] = (32, 64, 128, 256),
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """DESIGN.md ablation 1: the chunk-size trade-off.

    Smaller chunks mean finer balancing opportunities but more barriers
    and more mask/pointer storage per value; larger chunks amortise
    overheads but coarsen GB-H's granularity. Sweeps SparTen GB-H cycles
    and the sparse representation's overhead bytes per chunk size.
    """
    from repro.arch.memory import layer_traffic

    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    base = config_for(network)
    out: dict[int, dict[str, float]] = {}
    for chunk in chunk_sizes:
        cfg = _fast_cfg(replace(base, chunk_size=chunk), fast)
        data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
        result = simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work)
        traffic = layer_traffic(spec, "two_sided", chunk_size=chunk)
        out[chunk] = {
            "cycles": result.cycles,
            "overhead_bytes": traffic.overhead_bytes,
            "barriers": result.extras["barriers"],
        }
    return out


def dynamic_dispatch_ablation(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Section 3.3's claim: GB ~ dynamic dispatch without the movement.

    Compares GB-H against an *idealised* dynamic scheduler (makespan
    lower bound -- unreachable in practice) and reports the filter
    traffic dynamic dispatch would add.
    """
    from repro.sim.dynamic import simulate_dynamic_dispatch

    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    cfg = _fast_cfg(config_for(network), fast)
    data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
    dense = simulate_dense(spec, cfg, data=data, work=work)
    gb = simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work)
    dyn = simulate_dynamic_dispatch(spec, cfg, data=data, work=work)
    return {
        "gb_h_speedup": dense.cycles / gb.cycles,
        "dynamic_ideal_speedup": dense.cycles / dyn.cycles,
        "gb_vs_ideal": dyn.cycles / gb.cycles,
        "dynamic_filter_refetch_bytes": dyn.extras["filter_refetch_bytes"],
        "static_filter_bytes": dyn.extras["filter_resident_bytes"],
        "movement_blowup": (
            dyn.extras["filter_refetch_bytes"]
            / max(1.0, dyn.extras["filter_resident_bytes"])
        ),
    }


def dataflow_figure(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    sram_sweep: tuple[float, ...] = (16e3, 64e3, 256e3, 1e6, 4e6),
) -> dict:
    """Filter-stationary vs input-stationary traffic over buffer budgets.

    Section 3.3's 'seem equivalent in capturing reuse': at generous
    budgets the two dataflows' traffic converges; the decisive asymmetry
    is that only the filter-stationary operand can be balanced offline.
    """
    from repro.arch.reuse import compare_dataflows

    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    out: dict[float, dict] = {}
    for sram in sram_sweep:
        cmp = compare_dataflows(spec, sram)
        out[sram] = {
            "filter_stationary_bytes": cmp["filter_stationary"].total_bytes,
            "input_stationary_bytes": cmp["input_stationary"].total_bytes,
            "winner": cmp["winner"],
        }
    return out


def coarse_pruning_table(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    blocks: tuple[int, ...] = (4, 16, 64),
    seed: int = 0,
) -> dict:
    """Table 1's accuracy column, quantified: fine vs coarse pruning.

    At equal density, coarse (Cambricon-S-style block) pruning retains
    strictly less weight energy than fine-grain pruning -- the structural
    accuracy cost the paper's Table 1 'No' encodes -- and the gap grows
    with block size.
    """
    import numpy as np

    from repro.nets.coarse import pruning_energy_comparison

    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    rng = np.random.default_rng(seed)
    filters = rng.standard_normal(
        (spec.n_filters, spec.kernel, spec.kernel, spec.in_channels)
    )
    out: dict[int, dict] = {}
    for block in blocks:
        out[block] = pruning_energy_comparison(
            filters, spec.filter_density, block=block
        )
    return out


def hpc_representation_figure(sizes: tuple[int, ...] = (256, 1024), seed: int = 0) -> dict:
    """Section 3.1's crossover on *structured* HPC and CNN operands.

    Measures bit-mask vs pointer storage on graph Laplacians / banded
    systems (HPC side) and on a pruned CNN filter bank (CNN side). The
    expected verdicts: pointer wins at HPC densities, bit-mask at CNN
    densities -- the representation choice is workload-dependent and
    SparTen sits on the CNN side.
    """
    import numpy as np

    from repro.tensor.hpc import (
        banded_matrix,
        grid_laplacian,
        representation_verdict,
        scale_free_adjacency,
        small_world_laplacian,
    )

    rows: dict[str, dict] = {}
    for n in sizes:
        side = max(2, int(np.sqrt(n)))
        rows[f"grid_laplacian_{side * side}"] = representation_verdict(
            grid_laplacian(side, seed=seed)
        )
        rows[f"scale_free_{n}"] = representation_verdict(
            scale_free_adjacency(n, seed=seed)
        )
        rows[f"small_world_{n}"] = representation_verdict(
            small_world_laplacian(n, seed=seed)
        )
        rows[f"banded_{n}"] = representation_verdict(banded_matrix(n, seed=seed))
    # The CNN counterpoint: one pruned filter bank at Table 3 density.
    from repro.nets.pruning import prune_filters

    rng = np.random.default_rng(seed)
    filters = prune_filters(rng.standard_normal((64, 3, 3, 128)), 0.35, rng=rng)
    rows["cnn_filters_d0.35"] = representation_verdict(filters.reshape(64, -1))
    return rows


def double_buffer_figure(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    latencies: tuple[int, ...] = (0, 20, 100, 400),
    depths: tuple[int, ...] = (2, 4, 16),
    bytes_per_cycle: float = 16.0,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Does buffering hide memory latency (Section 3.2)?

    Traces the busiest cluster's chunk stream through the event-driven
    buffered front end over (latency, prefetch depth) and reports the
    hiding efficiency (compute cycles / total cycles). Depth 2 is the
    paper's double buffering; deeper adds the CPU's request buffering.
    """
    from repro.sim.trace import DoubleBufferedCluster

    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    cfg = _fast_cfg(config_for(network), fast)
    data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
    out: dict[tuple[int, int], dict[str, float]] = {}
    for latency in latencies:
        for depth in depths:
            cluster = DoubleBufferedCluster(
                bytes_per_cycle=bytes_per_cycle,
                fetch_latency=latency,
                prefetch_depth=depth,
            )
            trace = cluster.run_layer(data, cfg, work=work)
            out[(latency, depth)] = {
                "total_cycles": float(trace.total_cycles),
                "stall_cycles": float(trace.stall_cycles),
                "hiding_efficiency": trace.hiding_efficiency,
            }
    return out


def rle_compute_waste_figure(
    run_bits_sweep: tuple[int, ...] = (2, 3, 4, 8),
    length: int = 1 << 14,
    densities: tuple[float, ...] = (0.35, 0.1, 0.01),
    seed: int = 0,
) -> dict:
    """EIE-style RLE pointers force redundant zero computations (§3.1).

    "shorter run lengths achieve higher compression but incur (1)
    redundant pointers for strings of zeroes longer than the run length
    ... and (2) redundant zero compute for such redundant pointers."
    Measures, per run-field width and density, the stored entries, the
    redundant (wasted-compute) entries, and the storage relative to the
    bit mask.
    """
    import numpy as np

    from repro.tensor.analysis import measure_sizes
    from repro.tensor.formats import RunLengthVector

    rng = np.random.default_rng(seed)
    out: dict[float, dict[int, dict[str, float]]] = {}
    for density in densities:
        dense = rng.standard_normal(length)
        dense[rng.random(length) >= density] = 0.0
        bitmask_bits = measure_sizes(dense).bitmask
        per_density: dict[int, dict[str, float]] = {}
        for run_bits in run_bits_sweep:
            rle = RunLengthVector.from_dense(dense, run_bits=run_bits)
            per_density[run_bits] = {
                "stored_entries": float(rle.stored_entries),
                "redundant_entries": float(rle.redundant_entries),
                "wasted_compute_fraction": (
                    rle.redundant_entries / max(1, rle.stored_entries)
                ),
                "bits_vs_bitmask": rle.storage_bits() / bitmask_bits,
            }
        out[density] = per_density
    return out


#: Deep Compression's FC layers for AlexNet/VGG (in, out, weight density).
#: These dominate the parameter count (58M of AlexNet's 61M) and prune
#: below 10% density -- the source of the intro's 2-3x claim.
_FC_LAYERS = {
    "AlexNet": ((9216, 4096, 0.09), (4096, 4096, 0.09), (4096, 1000, 0.25)),
    "VGGNet": ((25088, 4096, 0.04), (4096, 4096, 0.04), (4096, 1000, 0.23)),
}


def model_storage_figure(seed: int = 0, include_fc: bool = True) -> dict:
    """The introduction's claim: sparsity gives 2-3x memory size reduction.

    Sums each Table 3 network's whole-model storage (all filters plus one
    activation set) dense vs in SparTen's representation (masks +
    pointers + values). The 2-3x band applies to the *pruned weights*
    (``filter_reduction``; the intro cites Deep Compression's weight
    numbers); the combined figure is diluted by the denser activations.
    """
    from repro.tensor.storage import LayerStorage

    storage = LayerStorage(chunk_size=128, value_bytes=1)
    out: dict[str, dict[str, float]] = {}
    for network in all_networks():
        dense_bytes = 0.0
        sparse_bytes = 0.0
        dense_filter_bytes = 0.0
        sparse_filter_bytes = 0.0
        for spec in network.layers:
            filter_positions = spec.n_filters * spec.kernel * spec.kernel
            f_nnz = int(filter_positions * spec.in_channels * spec.filter_density)
            i_nnz = int(spec.input_elements * spec.input_density)
            dense_bytes += (
                storage.dense_footprint(filter_positions, spec.in_channels).total_bytes
                + storage.dense_footprint(
                    spec.in_height * spec.in_width, spec.in_channels
                ).total_bytes
            )
            filter_sparse = storage.tensor_footprint(
                filter_positions, spec.in_channels, f_nnz
            ).total_bytes
            filter_dense = storage.dense_footprint(
                filter_positions, spec.in_channels
            ).total_bytes
            sparse_bytes += filter_sparse
            sparse_filter_bytes += filter_sparse
            dense_filter_bytes += filter_dense
            if spec.input_density >= 1.0:
                # Fully dense input image: one shared mask descriptor plus
                # the dense values (Section 3.1's special case).
                sparse_bytes += (
                    storage.dense_footprint(
                        spec.in_height * spec.in_width, spec.in_channels
                    ).total_bytes
                    + storage.chunk_size // 8
                    + storage.POINTER_BYTES
                )
            else:
                sparse_bytes += storage.tensor_footprint(
                    spec.in_height * spec.in_width, spec.in_channels, i_nnz
                ).total_bytes
        if include_fc:
            for n_in, n_out, w_density in _FC_LAYERS.get(network.name, ()):
                nnz = int(n_in * n_out * w_density)
                fc_dense = storage.dense_footprint(n_out, n_in).total_bytes
                fc_sparse = storage.tensor_footprint(n_out, n_in, nnz).total_bytes
                dense_bytes += fc_dense
                sparse_bytes += fc_sparse
                dense_filter_bytes += fc_dense
                sparse_filter_bytes += fc_sparse
        out[network.name] = {
            "dense_bytes": dense_bytes,
            "sparse_bytes": sparse_bytes,
            "reduction": dense_bytes / sparse_bytes,
            "filter_reduction": dense_filter_bytes / sparse_filter_bytes,
        }
    return out


def proxy_oracle_figure(
    layer_name: str = "Layer2",
    network: NetworkSpec | None = None,
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Section 3.3's "effective proxy" claim, measured.

    Compares GB-H's offline filter-density pairing against an oracle that
    pairs by the measured per-chunk match counts of the actual input
    (unrealisable: inputs are computed online). A small overhead confirms
    the density proxy.
    """
    from repro.balance.oracle import proxy_vs_oracle

    network = network if network is not None else alexnet()
    spec = network.layer(layer_name)
    cfg = _fast_cfg(config_for(network), fast)
    data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
    result = proxy_vs_oracle(
        work, cfg.units_per_cluster, data.filter_masks, cfg.chunk_size
    )
    result["layer"] = spec.name
    return result


def density_sensitivity_figure(
    densities: tuple[float, ...] = (0.1, 0.2, 0.35, 0.5, 0.75, 1.0),
    fast: bool = True,
    seed: int = 0,
) -> dict:
    """Speedup vs density: the global version of §5.1's per-layer trend.

    Sweeps a fixed layer geometry over (input density = filter density)
    points and reports each scheme's speedup over Dense -- the curve that
    explains why Table 3's sparsest layers show the tallest bars. The
    two-sided schemes track ~1/d^2, the one-sided ~1/d.
    """
    from repro.nets.layers import ConvLayerSpec
    from repro.sim.scnn import simulate_scnn

    cfg = _fast_cfg(
        HardwareConfig(
            name="sens", n_clusters=8, units_per_cluster=16, scnn_pe_grid=(2, 4)
        ),
        fast,
    )
    out: dict[float, dict[str, float]] = {}
    for density in densities:
        spec = ConvLayerSpec(
            name=f"sens_d{density}", in_height=14, in_width=14, in_channels=128,
            kernel=3, n_filters=64, padding=1,
            input_density=density, filter_density=density,
        )
        data, work = get_workload(spec, cfg, seed=seed, need_counts=True)
        dense = simulate_dense(spec, cfg, data=data, work=work)
        out[density] = {
            "one_sided": dense.cycles
            / simulate_sparten(spec, cfg, sided="one", data=data, work=work).cycles,
            "sparten": dense.cycles
            / simulate_sparten(spec, cfg, variant="gb_h", data=data, work=work).cycles,
            "scnn": dense.cycles
            / simulate_scnn(spec, cfg, variant="two", data=data).cycles,
        }
    return out
