"""Command-line interface: regenerate any experiment from the terminal.

Usage::

    python -m repro list
    python -m repro run fig7 [--exact] [--seed N]
    python -m repro run headline --manifest manifest.json --trace trace.json
    python -m repro run headline --resume runs/headline  # resume from a store
    python -m repro run chunk-sweep --network vggnet --layer Layer7
    python -m repro stats manifest.json [--prometheus]
    python -m repro doctor [DIR] [--prune]
    python -m repro bench diff --baseline benchmarks/bench_baseline.json
    python -m repro bench record
    python -m repro sweep --store runs/sweep --shard 0/2 --network alexnet
    python -m repro worker --store runs/sweep
    python -m repro top --store runs/sweep [--once]
    python -m repro inspect --store runs/sweep --trace fleet.json --report post.md

Every experiment of DESIGN.md's index is addressable by a short id; the
rendered rows print to stdout (the same text the benchmark harness writes
to ``benchmarks/output/``). Diagnostics go to stderr via the structured
logger (``REPRO_LOG_LEVEL``). ``--manifest`` writes the run's
self-describing record (git SHA, seed, config hash, env knobs, stage
totals, counters) and ``--trace`` emits a Chrome ``trace_event`` JSON
loadable in ``chrome://tracing`` / Perfetto; ``repro stats`` pretty-prints
a manifest back.

Distributed sweeps: ``repro sweep --store DIR --shard I/N`` runs one
shard of a (network x layer x scheme x seed) grid against a shared
store directory -- any number of shard processes (or hosts mounting the
same directory) cooperate through single-flight claim leases and the
store's result entries, so every unit is computed exactly once and a
SIGKILL'd shard's work is resumed or stolen, never redone. ``repro
worker --store DIR`` is the standing long-poll form of the same loop.
``repro top --store DIR`` watches a running fleet live (workers x
shards, throughput, ETA, suspect/dead workers from the heartbeats in
the workers' event streams); ``repro inspect --store DIR``
reconstructs a finished or crashed sweep post-mortem -- merged
timeline, cross-worker Chrome trace, exactly-once audit, anomaly
report.

``--resume DIR`` uses *DIR* as the store (the flag wins over
``REPRO_CACHE_DIR``): every finished per-layer result is
published there, and a rerun after a crash or kill answers the finished
ones from it, so only unfinished work re-executes. ``repro doctor``
scans the on-disk store (or any sweep directory), verifies every entry,
quarantines corruption and -- with ``--prune`` -- deletes quarantined
and orphaned files.

Observability: ``--events PATH`` (or ``REPRO_EVENTS``) streams every
lifecycle transition, cache decision and retry to a schema-versioned
JSONL log that pool workers' records join; ``--metrics PATH``
(or ``REPRO_METRICS``) writes Prometheus text-exposition snapshots;
``--progress`` controls the live stderr progress line; ``repro stats
--prometheus`` renders a manifest for a scraper; and ``repro bench
diff`` gates CI on the committed perf baseline. Flags that configure
the run are folded into one :class:`~repro.config.RunConfig` bound
for that :func:`main` call only; ``os.environ`` is never written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
from typing import Callable

from repro import config, profiling, telemetry
from repro.eval import experiments as exp
from repro.eval import reporting as rep
from repro.telemetry import events

__all__ = ["main", "EXPERIMENTS"]


def _net(args: argparse.Namespace):
    return exp.network_by_name(args.network)


def _speedup_output(fig, title, args):
    if args.plot:
        from repro.eval.figures import plot_speedup_figure

        return plot_speedup_figure(fig, title)
    return rep.render_speedups(fig, title)


def _run_fig7(args):
    fig = exp.speedup_figure(
        exp.network_by_name("alexnet"), fast=args.fast, seed=args.seed
    )
    return _speedup_output(fig, "Figure 7: AlexNet speedup", args)


def _run_fig8(args):
    fig = exp.speedup_figure(
        exp.network_by_name("googlenet"), fast=args.fast, seed=args.seed
    )
    return _speedup_output(fig, "Figure 8: GoogLeNet speedup", args)


def _run_fig9(args):
    fig = exp.speedup_figure(
        exp.network_by_name("vggnet"), fast=args.fast, seed=args.seed
    )
    return _speedup_output(fig, "Figure 9: VGGNet speedup", args)


def _run_breakdown(args):
    fig = exp.breakdown_figure(_net(args), fast=args.fast, seed=args.seed)
    title = f"Execution-time breakdown: {args.network}"
    if args.plot:
        from repro.eval.figures import plot_breakdown_figure

        return plot_breakdown_figure(fig, title)
    return rep.render_breakdown(fig, title)


def _run_fig13(args):
    return rep.render_energy(exp.energy_figure(fast=args.fast, seed=args.seed))


def _run_fig14(args):
    return rep.render_gb_impact(exp.gb_impact_figure(seed=args.seed))


def _run_fpga(args):
    fig = exp.fpga_figure(_net(args), fast=args.fast, seed=args.seed)
    return _speedup_output(fig, f"FPGA speedup: {args.network}", args)


def _run_table1(args):
    return rep.render_design_goals(exp.design_goals_table())


def _run_table4(args):
    return rep.render_asic_table(exp.asic_table())


def _run_headline(args):
    return rep.render_headline(exp.headline_means(fast=args.fast, seed=args.seed))


def _run_generality(args):
    return rep.render_generality(exp.generality_figure(fast=args.fast, seed=args.seed))


def _run_chunk_sweep(args):
    return rep.render_chunk_sweep(
        exp.chunk_size_sweep(
            layer_name=args.layer, network=_net(args), fast=args.fast, seed=args.seed
        )
    )


def _run_dynamic(args):
    return rep.render_dynamic_dispatch(
        exp.dynamic_dispatch_ablation(
            layer_name=args.layer, network=_net(args), fast=args.fast, seed=args.seed
        )
    )


def _run_dataflows(args):
    return rep.render_dataflows(
        exp.dataflow_figure(layer_name=args.layer, network=_net(args))
    )


def _run_coarse(args):
    return rep.render_coarse_pruning(
        exp.coarse_pruning_table(layer_name=args.layer, network=_net(args), seed=args.seed)
    )


def _run_hpc(args):
    return rep.render_hpc_representation(exp.hpc_representation_figure(seed=args.seed))


def _run_double_buffer(args):
    return rep.render_double_buffer(
        exp.double_buffer_figure(
            layer_name=args.layer, network=_net(args), fast=args.fast, seed=args.seed
        )
    )


def _run_rle(args):
    return rep.render_rle_waste(exp.rle_compute_waste_figure(seed=args.seed))


def _run_proxy_oracle(args):
    return rep.render_proxy_oracle(
        exp.proxy_oracle_figure(
            layer_name=args.layer, network=_net(args), fast=args.fast, seed=args.seed
        )
    )


def _run_density(args):
    return rep.render_density_sensitivity(
        exp.density_sensitivity_figure(fast=args.fast, seed=args.seed)
    )


def _run_model_storage(args):
    rows = exp.model_storage_figure(seed=args.seed)
    lines = ["Whole-model storage: dense vs SparTen representation"]
    for net, row in rows.items():
        lines.append(
            f"{net:10s} dense={row['dense_bytes'] / 1e6:7.2f} MB  "
            f"sparse={row['sparse_bytes'] / 1e6:7.2f} MB  "
            f"reduction={row['reduction']:.2f}x "
            f"(weights {row['filter_reduction']:.2f}x)"
        )
    return "\n".join(lines)


def _run_profile(args):
    from repro.eval.characterize import characterize_layer, render_profile
    from repro.sim.config import config_for

    net = _net(args)
    spec = net.layer(args.layer)
    cfg = config_for(net)
    if args.fast:
        cfg = cfg.with_sampling(200, batch=1)
    return render_profile(characterize_layer(spec, cfg, seed=args.seed))


def _run_scaling(args):
    from repro.sim.sweeps import machine_scaling_sweep, render_scaling

    spec = _net(args).layer(args.layer)
    sweep = machine_scaling_sweep(spec, seed=args.seed)  # --fidelity is bound
    return render_scaling(sweep, spec.name)


def _run_prescreen(args):
    from repro.sim.sweeps import prescreened_sweep, render_prescreened

    spec = _net(args).layer(args.layer)
    geometries = tuple(
        (n_clusters, units)
        for n_clusters in (2, 4, 8, 16, 32, 64)
        for units in (4, 8, 16, 32, 64)
    )
    result = prescreened_sweep(spec, geometries, seed=args.seed)
    return render_prescreened(result, spec.name)


#: experiment id -> (runner, description).
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig7": (_run_fig7, "AlexNet speedup over Dense (Figure 7)"),
    "fig8": (_run_fig8, "GoogLeNet speedup over Dense (Figure 8)"),
    "fig9": (_run_fig9, "VGGNet speedup over Dense (Figure 9)"),
    "breakdown": (_run_breakdown, "Execution-time breakdown (Figures 10-12)"),
    "fig13": (_run_fig13, "Energy with zero/non-zero splits (Figure 13)"),
    "fig14": (_run_fig14, "Greedy-balancing density impact (Figure 14)"),
    "fpga": (_run_fpga, "FPGA roofline speedups (Figures 15-17)"),
    "table1": (_run_table1, "Design-goal matrix (Table 1)"),
    "table4": (_run_table4, "ASIC area/power (Table 4)"),
    "headline": (_run_headline, "The abstract's headline means"),
    "generality": (_run_generality, "ResNet/MLP/LSTM generality table"),
    "chunk-sweep": (_run_chunk_sweep, "Chunk-size ablation"),
    "dynamic": (_run_dynamic, "GB vs idealised dynamic dispatch"),
    "dataflows": (_run_dataflows, "Filter- vs input-stationary traffic"),
    "coarse-pruning": (_run_coarse, "Fine vs coarse pruning energy"),
    "hpc": (_run_hpc, "Representation verdicts on HPC structures"),
    "double-buffer": (_run_double_buffer, "Memory-latency hiding trace"),
    "rle-waste": (_run_rle, "EIE-style RLE redundant compute"),
    "profile": (_run_profile, "Workload sparsity profile + speedup bounds"),
    "scaling": (_run_scaling, "Machine-size scaling study"),
    "prescreen": (_run_prescreen, "Two-phase sweep: analytical pre-screen + sim"),
    "model-storage": (_run_model_storage, "Whole-model 2-3x storage claim"),
    "proxy-oracle": (_run_proxy_oracle, "Density proxy vs measured-work oracle"),
    "density": (_run_density, "Speedup vs density sensitivity curve"),
}


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="stream JSONL events to PATH (overrides REPRO_EVENTS)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write Prometheus metrics snapshots to PATH "
                             "(overrides REPRO_METRICS)")
    parser.add_argument("--progress", default=None,
                        choices=("auto", "on", "off"),
                        help="live progress rendering (overrides REPRO_PROGRESS; "
                             "default auto: only on a TTY)")


def _run_config(args: argparse.Namespace) -> config.RunConfig:
    """This call's run configuration: its flags over the current one.

    ``profile --trace`` raises the fidelity rung to at least
    ``timeline``. ``run``/``report --resume DIR`` and ``sweep``/``worker --store
    DIR`` make DIR the store; the read-only ``top``/``inspect --store``
    leave it alone. A sweep or worker streams events and metrics into the store, one
    file per worker, unless configured otherwise (``REPRO_EVENTS=`` opts out).
    """
    cfg = config.current()
    changes = {
        name: getattr(args, name)
        for name in ("events", "metrics", "progress", "fidelity")
        if getattr(args, name, None)
    }
    if args.command in ("run", "report") and args.resume:
        changes["cache_dir"] = args.resume
    if args.command == "profile" and args.trace and not profiling.records_timelines():
        changes["fidelity"] = "timeline"  # the trace's cluster rows are timelines
    elif args.command in ("sweep", "worker"):
        from repro.dist import shard as dist_shard
        from repro.dist import store as dist_store

        if args.shard:
            dist_shard.parse_shard(args.shard)  # fail fast on garbage
            changes["shard"] = args.shard
        # The store is the one thing workers share: its result entries
        # are the coordination log.
        changes["cache_dir"] = args.store
        worker_id = dist_store.worker_identity()
        for name, suffix in (("events", "jsonl"), ("metrics", "prom")):
            if getattr(cfg, name) is None:
                path = os.path.join(args.store, name, f"{worker_id}.{suffix}")
                changes.setdefault(name, path)
    return dataclasses.replace(cfg, **changes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparTen reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    report = sub.add_parser(
        "report", help="run every experiment and write a consolidated report"
    )
    report.add_argument("-o", "--output", default="REPORT.md",
                        help="output path (default REPORT.md)")
    report.add_argument("--seed", type=int, default=0, help="workload seed")
    report.add_argument("--trace", metavar="PATH", default=None,
                        help="also write a Chrome trace_event JSON to PATH")
    report.add_argument("--resume", metavar="DIR", default=None,
                        help="use DIR as the store: publish finished "
                             "results there and skip work already "
                             "published (overrides REPRO_CACHE_DIR)")
    _add_observability_flags(report)

    run = sub.add_parser("run", help="run one experiment and print its rows")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--exact", action="store_true",
                     help="full-resolution simulation (slow)")
    run.add_argument("--seed", type=int, default=0, help="workload seed")
    run.add_argument("--network", default="alexnet",
                     help="network for per-network experiments")
    run.add_argument("--layer", default="Layer2",
                     help="layer for per-layer ablations")
    run.add_argument("--plot", action="store_true",
                     help="draw ASCII bars instead of tables (figures only)")
    run.add_argument("--manifest", metavar="PATH", default=None,
                     help="write the run manifest JSON to PATH")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace_event JSON to PATH")
    run.add_argument("--resume", metavar="DIR", default=None,
                     help="use DIR as the store: publish finished results "
                          "there and skip work already published "
                          "(overrides REPRO_CACHE_DIR)")
    run.add_argument("--fidelity", default=None,
                     choices=config.FIDELITY_LEVELS,
                     help="fidelity-ladder rung for fidelity-aware "
                          "experiments (default: $REPRO_FIDELITY)")
    _add_observability_flags(run)

    estimate = sub.add_parser(
        "estimate",
        help="analytical stall attribution (no cycle-level simulation)",
        description="Predict per-layer cycles and the stall-attribution "
                    "table from density statistics alone -- the "
                    "analytical rung of the fidelity ladder. With "
                    "--compare, also simulate one layer and print "
                    "predicted-vs-simulated deltas.",
    )
    estimate.add_argument("--network", default="alexnet",
                          help="network to estimate (default alexnet)")
    estimate.add_argument("--layer", default=None,
                          help="estimate a single layer instead of the "
                               "whole network")
    estimate.add_argument("--schemes", default=None,
                          help="comma-separated scheme list (default: the "
                               "profiler's dense/one-sided/SparTen set)")
    estimate.add_argument("--compare", metavar="LAYER", default=None,
                          help="also cycle-simulate LAYER and print "
                               "predicted-vs-simulated deltas")
    estimate.add_argument("--exact", action="store_true",
                          help="full-resolution statistics (slow extraction)")
    estimate.add_argument("--seed", type=int, default=0, help="workload seed")

    profile = sub.add_parser(
        "profile",
        help="per-cluster hardware counters and stall attribution",
        description="Run the microarchitectural profiler: simulate the "
                    "chosen schemes with hardware counters on and print "
                    "where every MAC-cycle went (busy / filter-zero / "
                    "barrier wait / permute stall / imbalance / memory).",
    )
    profile.add_argument("--network", default="alexnet",
                         help="network to profile (default alexnet)")
    profile.add_argument("--layer", default=None,
                         help="profile a single layer instead of the "
                              "whole network")
    profile.add_argument("--schemes", default=None,
                         help="comma-separated scheme list (default: the "
                              "dense/one-sided/SparTen-variant Table-3 set)")
    profile.add_argument("--exact", action="store_true",
                         help="full-resolution simulation (slow)")
    profile.add_argument("--seed", type=int, default=0, help="workload seed")
    profile.add_argument("-o", "--output", metavar="PATH", default=None,
                         help="write the profile.json payload to PATH")
    profile.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Chrome trace with per-cluster cycle "
                              "timeline rows to PATH (raises the "
                              "fidelity rung to at least timeline)")

    stats = sub.add_parser("stats", help="pretty-print a run manifest")
    stats.add_argument("manifest", help="path to a manifest.json")
    stats.add_argument("--prometheus", action="store_true",
                       help="render the manifest's counters/gauges/spans "
                            "in Prometheus text-exposition format")

    bench = sub.add_parser(
        "bench", help="perf-regression tracking over benchmark outputs"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_diff = bench_sub.add_parser(
        "diff", help="compare BENCH_*.json metrics against the baseline"
    )
    bench_diff.add_argument("--baseline",
                            default="benchmarks/bench_baseline.json",
                            help="baseline JSON with per-metric tolerances")
    bench_diff.add_argument("--output-dir", default="benchmarks/output",
                            help="directory holding the BENCH_*.json payloads")
    bench_diff.add_argument("--allow-missing", action="store_true",
                            help="don't fail on baseline metrics absent "
                                 "from the run (partial bench sweeps)")
    bench_record = bench_sub.add_parser(
        "record", help="append current bench metrics to the history file"
    )
    bench_record.add_argument("--output-dir", default="benchmarks/output",
                              help="directory holding the BENCH_*.json payloads")
    bench_record.add_argument("--history",
                              default="benchmarks/bench_history.csv",
                              help="CSV history file to append to")

    sweep = sub.add_parser(
        "sweep",
        help="run one shard of a distributed sweep over a shared store",
        description="Plan a (network x layer x scheme x seed) grid, "
                    "publish it to the shared store directory, and "
                    "execute this process's shard of it. Concurrent "
                    "shards (other processes/hosts on the same store) "
                    "coordinate through claim leases and the store's "
                    "result entries: every unit is computed exactly once, and "
                    "a killed shard's units are stolen or resumed.",
    )
    sweep.add_argument("--store", metavar="DIR", required=True,
                       help="shared store directory (plan, result "
                            "entries, manifests; overrides "
                            "REPRO_CACHE_DIR)")
    sweep.add_argument("--shard", metavar="I/N", default=None,
                       help="this process's shard (e.g. 0/2); default: "
                            "$REPRO_SHARD, else the whole grid")
    sweep.add_argument("--network", default="alexnet",
                       help="network whose layers form the grid")
    sweep.add_argument("--layers", default=None,
                       help="comma-separated layer subset (default: all)")
    sweep.add_argument("--schemes", default="sparten",
                       help="comma-separated schemes (default: sparten)")
    sweep.add_argument("--seeds", default="0",
                       help="comma-separated workload seeds (default: 0)")
    sweep.add_argument("--sample", type=int, default=200,
                       help="output positions sampled per cluster "
                            "(0 = exact full resolution; default 200)")
    sweep.add_argument("--fidelity", default=None,
                       choices=config.FIDELITY_LEVELS,
                       help="fidelity-ladder rung for every unit")
    sweep.add_argument("--no-steal", action="store_true",
                       help="do not execute other shards' units after "
                            "finishing this shard's")
    sweep.add_argument("--reconcile", action="store_true",
                       help="after the shard finishes, check per-shard "
                            "manifests against the store and exit "
                            "non-zero unless the sweep is complete and "
                            "exactly-once")
    sweep.add_argument("--manifest", metavar="PATH", default=None,
                       help="write this shard's run manifest JSON to PATH")
    _add_observability_flags(sweep)

    worker = sub.add_parser(
        "worker",
        help="long-poll worker: serve a shared store until its sweep is done",
        description="Wait for a sweep plan to appear in the store "
                    "directory, then execute (and steal) units until "
                    "every one is published or the worker idles out.",
    )
    worker.add_argument("--store", metavar="DIR", required=True,
                        help="shared store directory to serve")
    worker.add_argument("--shard", metavar="I/N", default=None,
                        help="optional shard identity (affinity for "
                             "that slice; still steals the rest)")
    worker.add_argument("--poll", type=float, default=None,
                        help="seconds between idle polls (default: "
                             "20x REPRO_CLAIM_POLL)")
    worker.add_argument("--max-idle", type=float, default=60.0,
                        help="exit after this many consecutive idle "
                             "seconds (default 60)")
    worker.add_argument("--manifest", metavar="PATH", default=None,
                        help="write the worker's run manifest JSON to PATH")
    _add_observability_flags(worker)

    top = sub.add_parser(
        "top",
        help="live dashboard over a distributed sweep's shared store",
        description="Render a refreshing fleet dashboard from the "
                    "store's manifests, result entries and event streams "
                    "(whose heartbeats give each worker's liveness): "
                    "per-shard progress, throughput and "
                    "ETA, cache hit rate, and a workers table with "
                    "suspect/dead workers highlighted (a worker run "
                    "without an event stream shows state '-'). Off a TTY "
                    "(or with --once) it prints a single snapshot frame.",
    )
    top.add_argument("--store", metavar="DIR", required=True,
                     help="shared store directory to watch")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (implied off-TTY)")

    inspect = sub.add_parser(
        "inspect",
        help="post-mortem reconstruction of a distributed sweep",
        description="Merge every worker's event stream (heartbeats "
                    "included), manifest and the store's result entries "
                    "into one fleet view: a timestamp-ordered timeline "
                    "(without heartbeat or progress records), an "
                    "exactly-once audit (entries vs manifests vs "
                    "event counter totals), and an anomaly report "
                    "(dead workers, stragglers, steals, faults). "
                    "Exits non-zero unless the sweep is complete, "
                    "exactly-once and fully attributed.",
    )
    inspect.add_argument("--store", metavar="DIR", required=True,
                         help="shared store directory to reconstruct")
    inspect.add_argument("--trace", metavar="PATH", default=None,
                         help="write the merged cross-worker Chrome "
                              "trace JSON to PATH")
    inspect.add_argument("--report", metavar="PATH", default=None,
                         help="write the full markdown report to PATH "
                              "(stdout shows a truncated timeline)")
    inspect.add_argument("--json", metavar="PATH", default=None,
                         dest="json_out",
                         help="write the machine-readable FleetView "
                              "payload to PATH")
    inspect.add_argument("--timeline", type=int, default=40,
                         help="max timeline rows printed to stdout "
                              "(default 40; --report gets everything)")

    doctor = sub.add_parser(
        "doctor", help="scan/verify/prune the on-disk workload cache"
    )
    doctor.add_argument(
        "directory", nargs="?", default=None,
        help="directory to scan (default: $REPRO_CACHE_DIR)",
    )
    doctor.add_argument(
        "--prune", action="store_true",
        help="delete quarantined entries and orphaned .tmp files",
    )
    return parser


def _render_dist_summary(summary: dict) -> str:
    shard = summary.get("shard")
    shard_text = (
        f"{shard['index']}/{shard['count']}" if shard else "unsharded"
    )
    lines = [
        f"sweep shard {shard_text}  worker {summary.get('worker', '?')}",
        f"  units (own/total)  {summary.get('units_own', 0)}"
        f"/{summary.get('units_total', 0)}",
        f"  computed           {summary.get('computed', 0)}"
        + (f"  (stolen {summary['stolen']})" if summary.get("stolen") else ""),
        f"  skipped            {summary.get('skipped', 0)}  (already published)",
    ]
    if "passes" in summary:
        lines.append(f"  passes             {summary['passes']}")
    return "\n".join(lines)


def _render_reconcile(report: dict) -> str:
    lines = [
        f"reconcile: {report['published']}/{report['units']} units published"
        f"  ({report['manifests']} worker manifests)",
        f"  computed {report['computed']}  skipped {report['skipped']}"
        f"  stolen {report['stolen']}",
        f"  exactly-once       {'yes' if report['exactly_once'] else 'NO'}",
        f"  complete           {'yes' if report['complete'] else 'NO'}",
    ]
    for token in report["duplicates"][:5]:
        lines.append(f"    duplicated compute: {token}")
    for token in report["missing"][:5]:
        lines.append(f"    missing: {token}")
    return "\n".join(lines)


@contextlib.contextmanager
def _run_window(command: str, **fields):
    """One run's telemetry window: a reset recorder, ``run.start``, and
    the final metrics snapshot written on exit (a dist worker's
    heartbeats refresh it while the window lasts)."""
    from repro.telemetry.metrics import metrics_path, write_metrics_snapshot

    telemetry.reset()
    events.start_run(command=command, **fields)
    try:
        yield
    finally:
        path = metrics_path()
        if path:
            write_metrics_snapshot(path)


def _main_dist(args: argparse.Namespace) -> int:
    """The ``sweep`` and ``worker`` subcommands.

    The store (the bound ``cache_dir``) is what workers share: its result
    entries are the coordination log, and the per-worker event streams
    ``_run_config`` defaults into it (heartbeats included) feed ``repro
    top`` / ``repro inspect``; the per-worker metrics files are for
    external scrapers.
    """
    from repro.dist import shard as dist_shard
    from repro.dist import worker as dist_worker

    cfg = config.current()
    shard = dist_shard.parse_shard(cfg.shard) if cfg.shard else None
    exit_code = 0
    with _run_window(args.command, store=args.store, shard=cfg.shard):
        if args.command == "worker":
            summary = dist_worker.run_worker(
                args.store, poll=args.poll, max_idle=args.max_idle, shard=shard
            )
            print(_render_dist_summary(summary))
        else:
            network = exp.network_by_name(args.network)
            layer_names = (
                tuple(s.strip() for s in args.layers.split(",") if s.strip())
                if args.layers
                else network.layer_names
            )
            for name in layer_names:
                network.layer(name)  # fail fast on a bad --layers entry
            schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
            from repro.core.compare import ALL_SCHEMES

            unknown = set(schemes) - set(ALL_SCHEMES)
            if unknown:
                raise SystemExit(f"unknown schemes: {sorted(unknown)}")
            seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
            units = tuple(
                dist_shard.WorkUnit(args.network, layer, scheme, seed)
                for layer in layer_names
                for scheme in schemes
                for seed in seeds
            )
            plan = dist_shard.SweepPlan(
                units=units,
                fidelity=args.fidelity,
                position_sample=args.sample if args.sample > 0 else None,
            )
            plan = dist_shard.publish_plan(args.store, plan)
            summary = dist_worker.run_shard(
                args.store, plan, shard=shard, steal=not args.no_steal
            )
            print(_render_dist_summary(summary))
            if args.reconcile:
                report = dist_worker.reconcile(args.store, plan)
                print(_render_reconcile(report))
                exit_code = 0 if report["complete"] and report["exactly_once"] else 1
        events.emit("run.end", command=args.command)
        if args.manifest:
            telemetry.write_manifest(
                args.manifest,
                config={"command": args.command, "store": args.store,
                        "shard": cfg.shard},
            )
    return exit_code


def _main_top(args: argparse.Namespace) -> int:
    """The ``top`` subcommand: live (TTY) or one-frame dashboard."""
    import sys
    import time as _time

    from repro.dist import fleet

    once = args.once or not sys.stdout.isatty()
    try:
        while True:
            try:
                view = fleet.build_fleet_view(args.store)
                frame = fleet.render_top(view, color=not once)
            except FileNotFoundError as exc:
                if once:
                    print(f"repro top: {exc}")
                    return 1
                frame = f"repro top: waiting for a plan ({exc})"
            if once:
                print(frame)
                return 0
            # Clear + home, then the frame: an in-place refresh without
            # a curses dependency.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            _time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        print()
        return 0


def _main_inspect(args: argparse.Namespace) -> int:
    """The ``inspect`` subcommand: post-mortem fleet reconstruction."""
    import json as _json
    import pathlib

    from repro.dist import fleet

    try:
        view = fleet.build_fleet_view(args.store)
    except FileNotFoundError as exc:
        print(f"repro inspect: {exc}")
        return 2
    print(fleet.render_inspect(view, max_timeline=args.timeline))
    if args.report:
        path = pathlib.Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            fleet.render_inspect(view, max_timeline=None) + "\n",
            encoding="utf-8",
        )
        print(f"report written to {args.report}")
    if args.trace:
        path = pathlib.Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(view.chrome_trace(), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"trace written to {args.trace}")
    if args.json_out:
        path = pathlib.Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(view.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"fleet view written to {args.json_out}")
    return 0 if view.healthy else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with config.use(_run_config(args)):
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (_fn, description) in sorted(EXPERIMENTS.items()):
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.command == "estimate":
        from repro.analytical import estimate as est

        telemetry.reset()
        schemes = (
            tuple(s.strip() for s in args.schemes.split(",") if s.strip())
            if args.schemes
            else est.DEFAULT_ESTIMATE_SCHEMES
        )
        payload = est.estimate_network(
            network=args.network,
            schemes=schemes,
            fast=not args.exact,
            seed=args.seed,
            layer=args.layer,
        )
        print(est.render_estimate(payload))
        if args.compare:
            comparison = est.compare_estimate(
                args.network,
                args.compare,
                schemes=schemes,
                fast=not args.exact,
                seed=args.seed,
            )
            print()
            print(est.render_estimate_comparison(comparison))
        return 0
    if args.command == "profile":
        telemetry.reset()
        profiling.reset_sim_clock()
        schemes = (
            tuple(s.strip() for s in args.schemes.split(",") if s.strip())
            if args.schemes
            else profiling.DEFAULT_SCHEMES
        )
        payload = profiling.profile_network(
            network=args.network,
            schemes=schemes,
            fast=not args.exact,
            seed=args.seed,
            layer=args.layer,
        )
        print(profiling.render_attribution(payload))
        if args.output:
            profiling.write_profile_json(args.output, payload)
            print(f"profile written to {args.output}")
        if args.trace:
            telemetry.write_chrome_trace(args.trace)
            print(f"trace written to {args.trace}")
        return 0
    if args.command == "stats":
        manifest = telemetry.read_manifest(args.manifest)
        if args.prometheus:
            print(telemetry.prometheus_from_manifest(manifest), end="")
        else:
            print(telemetry.render_manifest(manifest))
        return 0
    if args.command == "bench":
        from repro.eval import benchtrack

        current = benchtrack.collect_bench_metrics(args.output_dir)
        if args.bench_command == "record":
            from repro.telemetry.manifest import _git_sha

            rows = benchtrack.append_history(
                args.history, current, git_sha=_git_sha()
            )
            print(f"bench record: appended {rows} metric rows to {args.history}")
            return 0
        from repro.telemetry.manifest import _git_sha

        baseline = benchtrack.load_baseline(args.baseline)
        rows = benchtrack.diff_against_baseline(current, baseline)
        print(benchtrack.render_diff(
            rows, baseline_path=args.baseline, git_sha=_git_sha()
        ))
        failing = benchtrack.regressions(rows, allow_missing=args.allow_missing)
        return 1 if failing else 0
    if args.command in ("sweep", "worker"):
        return _main_dist(args)
    if args.command == "top":
        return _main_top(args)
    if args.command == "inspect":
        return _main_inspect(args)
    if args.command == "doctor":
        from repro.resilience.doctor import render_report, scan_store

        directory = args.directory or config.current().cache_dir
        if not directory:
            print("doctor: no directory given and REPRO_CACHE_DIR is unset")
            return 2
        report = scan_store(directory, prune=args.prune)
        print(render_report(report, prune=args.prune))
        return 0 if report.ok else 1
    if args.command == "report":
        from repro.eval.report import generate_report

        with _run_window("report", seed=args.seed):
            generate_report(path=args.output, seed=args.seed, echo=print)
            if args.trace:
                telemetry.write_chrome_trace(args.trace)
            events.emit("run.end", command="report")
        return 0
    args.fast = not args.exact
    runner, _ = EXPERIMENTS[args.experiment]
    with _run_window("run", experiment=args.experiment, seed=args.seed):
        try:
            print(runner(args))
        except BrokenPipeError:
            # stdout closed early (e.g. piped to `head`): not an error.
            return 0
        # run.end lands before the manifest is assembled, so the stream's
        # records and the manifest's events.records count describe the
        # same window and reconcile exactly (benchmarks/check_events.py).
        events.emit("run.end", command="run", experiment=args.experiment)
        if args.manifest:
            telemetry.write_manifest(
                args.manifest,
                seed=args.seed,
                config={
                    "experiment": args.experiment,
                    "network": args.network,
                    "layer": args.layer,
                    "fast": args.fast,
                    "seed": args.seed,
                },
            )
        if args.trace:
            telemetry.write_chrome_trace(args.trace)
    return 0
