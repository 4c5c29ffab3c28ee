"""Microbenchmark: the scheme-reduction engine vs the seed loops.

Every SparTen variant's barrier/busy/permute reduction used to walk
filter groups (and, for GB-H, every chunk) in Python; the engine in
``repro.sim.reduce`` does the whole pass in one call over the
materialised ``(n_chunks, n_sel, F)`` counts tensor. This benchmark
times the frozen seed loops against the engine on an AlexNet-scale
layer, checks bit-identity, records the counts tensor's footprint, and
writes ``benchmarks/output/BENCH_reduction.json`` for CI to gate on.
"""

import json
import time

import numpy as np
from _seed_reference import (
    reference_dynamic_reduction,
    reference_two_sided_reduction,
)
from conftest import OUTPUT_DIR, run_once

from repro.nets.models import alexnet
from repro.nets.synthesis import synthesize_layer
from repro.sim import native, reduce
from repro.sim.config import LARGE_CONFIG
from repro.sim.kernels import compute_chunk_work
from repro.sim.sparten import sparten_variant_plan, two_sided_reduction_spec

VARIANTS = ("no_gb", "gb_s", "gb_h")


def _best_of(func, runs=3):
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_scheme_reduction_alexnet_layer3(benchmark, record):
    spec = alexnet().layer("Layer3")
    data = synthesize_layer(spec, seed=0)
    work = compute_chunk_work(data, LARGE_CONFIG, need_counts=True)
    assert work.counts is not None
    units = LARGE_CONFIG.units_per_cluster
    n_filters = spec.n_filters

    variants = {}
    for variant in VARIANTS:
        plan = sparten_variant_plan(data, LARGE_CONFIG, variant)
        rspec = two_sided_reduction_spec(plan, LARGE_CONFIG, plan.collocated)
        red = reduce.reduce_scheme(work, rspec)
        ref_bar, ref_busy, ref_perm = reference_two_sided_reduction(
            work.counts, plan, units, LARGE_CONFIG.bisection_width
        )
        # Bit-identical to the seed loops, on every per-position array.
        assert np.array_equal(red.barrier, ref_bar)
        assert np.array_equal(red.busy, ref_busy)
        assert np.array_equal(red.permute, ref_perm)

        loop_s = _best_of(
            lambda: reference_two_sided_reduction(
                work.counts, plan, units, LARGE_CONFIG.bisection_width
            )
        )
        engine_s = _best_of(lambda: reduce.reduce_scheme(work, rspec))
        variants[variant] = {
            "loop_ms": loop_s * 1e3,
            "engine_ms": engine_s * 1e3,
            "speedup": loop_s / engine_s,
        }

    # Dynamic dispatch's group sweep goes through the same engine.
    dyn_spec = reduce.order_groups(
        np.arange(n_filters, dtype=np.int64), 2 * units, dyn_units=units
    )
    dyn_red = run_once(benchmark, reduce.reduce_scheme, work, dyn_spec)
    dyn_bar, dyn_busy = reference_dynamic_reduction(work.counts, units)
    assert np.array_equal(dyn_red.barrier, dyn_bar)
    assert np.array_equal(dyn_red.busy, dyn_busy)
    loop_s = _best_of(lambda: reference_dynamic_reduction(work.counts, units))
    engine_s = _best_of(lambda: reduce.reduce_scheme(work, dyn_spec))
    variants["dynamic"] = {
        "loop_ms": loop_s * 1e3,
        "engine_ms": engine_s * 1e3,
        "speedup": loop_s / engine_s,
    }

    # Peak workload bytes: the counts tensor the workload cache holds.
    counts_bytes = int(work.counts.nbytes)
    memory = {"counts_bytes": counts_bytes}

    payload = {
        "schema": "repro-bench-reduction/1",
        "network": "alexnet",
        "layer": spec.name,
        "native": native.available(),
        "variants": variants,
        "memory": memory,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_reduction.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    record(
        "scheme_reduction_speedup",
        "  ".join(
            f"{name} {v['loop_ms']:.2f}->{v['engine_ms']:.2f} ms "
            f"({v['speedup']:.1f}x)"
            for name, v in variants.items()
        )
        + f"  counts {counts_bytes} B  native={native.available()}",
    )
    if native.available():
        assert variants["gb_h"]["speedup"] >= 3.0
