"""Analytical fast path: wall-clock wins and error bounds (ROADMAP item 2).

Three measurements, one payload (``BENCH_analytical.json``):

1. **Per-layer speedup** -- warm analytical prediction vs warm cycle-level
   simulation for each scheme on a representative layer, best of
   ``REPEATS`` on each side. Every SparTen variant must predict at least
   as fast as it simulates (the premise of the pre-screen). Dense and
   one-sided stay ungated: both sides are ~0.1-0.2 ms closed forms whose
   ratio is per-call overhead, not model cost.
2. **Error quantiles** -- signed relative cycle error of the analytical
   tier against the simulators across AlexNet's conv layers.
3. **Pre-screened sweep** -- the headline: a (clusters x units x variant)
   design-space grid where the analytical tier scores every point from
   one density-statistics extraction and only the top-k survivors pay
   for cycle-level simulation. Both phases run cold (in-memory caches
   cleared, disk cache disabled) with only the input synthesis shared,
   and the recorded wall-clock reduction must meet the >= 50x target.

The accuracy contract backing the pre-screen is CI-gated separately by
``check_analytical.py`` (median |err| <= 10%, rank correlation >= 0.95).
"""

from __future__ import annotations

import json
import os
import time

from conftest import OUTPUT_DIR, run_once

from repro.analytical.model import predict_layer
from repro.core import workload
from repro.core.compare import run_scheme_cached
from repro.eval.experiments import network_by_name
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import SMALL_CONFIG
from repro.sim.sweeps import machine_scaling_sweep, prescreened_sweep

#: The sweep's workload: a VGG-conv4-scale layer -- large enough that
#: cycle-level evaluation of one grid point is real work.
SWEEP_SPEC = ConvLayerSpec(
    name="sweep_conv",
    in_height=112,
    in_width=112,
    in_channels=256,
    kernel=3,
    n_filters=512,
    stride=1,
    padding=1,
    input_density=0.40,
    filter_density=0.35,
)

SWEEP_CLUSTERS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256)
SWEEP_UNITS = (4, 8, 16, 32, 64, 128, 256)
SWEEP_VARIANTS = ("no_gb", "gb_s", "gb_h")
SPEEDUP_TARGET = 50.0

_SCHEMES = ("dense", "one_sided", "sparten_no_gb", "sparten_gb_s", "sparten")

#: Schemes whose per-layer prediction must not be slower than simulation.
GATED_SCHEMES = ("sparten_no_gb", "sparten_gb_s", "sparten")

#: Timed repeats per side of the per-layer speedup; the minimum counts.
REPEATS = 5


def _layer_speedups() -> dict:
    """Per-point marginal cost: fresh simulation vs fresh prediction.

    The workload (synthesis + chunk work) and density statistics are
    warm on both sides -- this isolates what one more grid point costs
    each tier, with no result-memo hits.
    """
    from repro.analytical.density import extract_density_stats
    from repro.core.compare import _run_scheme

    spec = ConvLayerSpec(
        name="speed_probe",
        in_height=27,
        in_width=27,
        in_channels=96,
        kernel=5,
        n_filters=256,
        stride=1,
        padding=2,
        input_density=0.55,
        filter_density=0.35,
    )
    cfg = SMALL_CONFIG.with_sampling(200)
    data, work = workload.get_workload(spec, cfg, 0)
    stats = extract_density_stats(spec, cfg, 0)
    out = {}
    for scheme in _SCHEMES:
        _run_scheme(scheme, spec, cfg, data, work, 0)  # JIT/page-cache warmup
        sim_s = pred_s = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            sim = _run_scheme(scheme, spec, cfg, data, work, 0)
            t1 = time.perf_counter()
            pred = predict_layer(spec, cfg, scheme=scheme, stats=stats)
            t2 = time.perf_counter()
            sim_s, pred_s = min(sim_s, t1 - t0), min(pred_s, t2 - t1)
        out[scheme] = {
            "sim_ms": round(1e3 * sim_s, 3),
            "predict_ms": round(1e3 * pred_s, 3),
            "speedup": round(sim_s / pred_s, 2) if pred_s > 0 else None,
            "rel_error": round((pred.cycles - sim.cycles) / sim.cycles, 4),
        }
    return out


def _error_quantiles(network: str = "alexnet", seed: int = 0) -> dict:
    """Signed relative cycle errors of the analytical tier, per network."""
    net = network_by_name(network)
    cfg = SMALL_CONFIG.with_sampling(48)
    errors = []
    for spec in net.layers:
        for scheme in _SCHEMES:
            sim = run_scheme_cached(scheme, spec, cfg, seed=seed)
            pred = predict_layer(spec, cfg, scheme=scheme, seed=seed)
            errors.append(abs(pred.cycles - sim.cycles) / sim.cycles)
    errors.sort()

    def _q(p: float) -> float:
        return round(errors[min(len(errors) - 1, int(p * len(errors)))], 4)

    return {
        "network": network,
        "n_points": len(errors),
        "abs_err_p50": _q(0.50),
        "abs_err_p90": _q(0.90),
        "abs_err_max": round(errors[-1], 4),
    }


def _timed_prescreen() -> tuple[dict, float]:
    workload.clear_caches()
    workload.get_layer_masks(SWEEP_SPEC, 0)  # synthesis shared by both phases
    geoms = tuple((c, u) for c in SWEEP_CLUSTERS for u in SWEEP_UNITS)
    t0 = time.perf_counter()
    result = prescreened_sweep(
        SWEEP_SPEC, geoms, variants=SWEEP_VARIANTS, top_k=3, seed=0
    )
    return result, time.perf_counter() - t0


def _timed_full_sweep() -> tuple[dict, float]:
    workload.clear_caches()
    workload.get_layer_masks(SWEEP_SPEC, 0)
    geoms = tuple((c, u) for c in SWEEP_CLUSTERS for u in SWEEP_UNITS)
    t0 = time.perf_counter()
    rows = {}
    for variant in SWEEP_VARIANTS:
        sweep = machine_scaling_sweep(
            SWEEP_SPEC, geometries=geoms, variant=variant, seed=0,
            fidelity="counters",
        )
        rows.update({(c, u, variant): row for (c, u), row in sweep.items()})
    return rows, time.perf_counter() - t0


def bench_analytical_fastpath(benchmark, record):
    # The disk cache would let one phase warm the other across runs;
    # keep both phases honest for the duration of the measurement.
    disk_cache = os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        def run():
            speedups = _layer_speedups()
            quantiles = _error_quantiles()
            prescreen, prescreen_s = _timed_prescreen()
            full, full_s = _timed_full_sweep()
            return speedups, quantiles, prescreen, prescreen_s, full, full_s

        speedups, quantiles, prescreen, prescreen_s, full, full_s = run_once(
            benchmark, run
        )
    finally:
        if disk_cache is not None:
            os.environ["REPRO_CACHE_DIR"] = disk_cache

    sim_best = max(full, key=lambda g: full[g]["speedup_vs_dense"])
    reduction = full_s / prescreen_s
    payload = {
        "schema": "repro-bench-analytical/1",
        "layer_speedup": speedups,
        "error_quantiles": quantiles,
        "prescreen": {
            "spec": SWEEP_SPEC.name,
            "grid_points": len(full),
            "full_sweep_s": round(full_s, 3),
            "prescreen_s": round(prescreen_s, 3),
            "wallclock_reduction": round(reduction, 1),
            "reduction_target": SPEEDUP_TARGET,
            "survivors": [list(s) for s in prescreen["survivors"]],
            "sim_best": list(sim_best),
            "sim_best_in_survivors": sim_best in prescreen["survivors"],
        },
    }
    (OUTPUT_DIR / "BENCH_analytical.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    record(
        "analytical_fastpath",
        f"analytical pre-screened sweep: {len(full)} points, "
        f"full {full_s:.1f}s vs prescreen {prescreen_s:.2f}s "
        f"({reduction:.0f}x reduction, target {SPEEDUP_TARGET:.0f}x)\n"
        f"sim best {sim_best} in survivors: {sim_best in prescreen['survivors']}\n"
        f"error quantiles ({quantiles['network']}): "
        f"p50 {quantiles['abs_err_p50']:.1%} p90 {quantiles['abs_err_p90']:.1%} "
        f"max {quantiles['abs_err_max']:.1%}",
    )
    # The tentpole target: the two-phase sweep must cut wall-clock by
    # >= 50x, and the pre-screen must not lose the simulated optimum.
    assert reduction >= SPEEDUP_TARGET, (
        f"pre-screened sweep reduction {reduction:.1f}x below target "
        f"{SPEEDUP_TARGET:.0f}x (full {full_s:.1f}s, prescreen {prescreen_s:.2f}s)"
    )
    assert payload["prescreen"]["sim_best_in_survivors"]
    assert quantiles["abs_err_p50"] <= 0.10
    # Per layer, the analytical tier must not be slower than the
    # simulator it stands in for.
    for scheme in GATED_SCHEMES:
        row = speedups[scheme]
        assert row["sim_ms"] >= row["predict_ms"], (
            f"{scheme}: predicts in {row['predict_ms']} ms, "
            f"simulates in {row['sim_ms']} ms"
        )
