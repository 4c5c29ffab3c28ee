"""CI guard: the analytical tier must stay pinned to the simulators.

Runs the analytical validation grid (6 layer shapes x 2 machine configs
x 8 schemes, predicted vs simulated cycles) and fails the build when the
fast path drifts from ground truth:

1. **Error bound** -- median |relative cycle error| must stay <= 10%
   (pooled and per scheme). Beyond that, analytical screening answers a
   different question than the simulator.
2. **Ranking bound** -- Spearman rank correlation of predicted vs
   simulated speedups must stay >= 0.95 per scheme. This is the bound
   that makes the pre-screened sweep trustworthy: the simulated optimum
   stays inside the analytical top-k.
3. **Native barrier** -- on a host where the native library loads, every
   SparTen prediction must take the compiled order-statistics kernel
   (``kernel.barrier_native_dispatch``); a single
   ``kernel.barrier_fallback_dispatch`` means the grid was scored on the
   slower NumPy path and the timings CI reads describe the wrong code.

Writes the full per-point error table to
``benchmarks/output/analytical_validation.json`` and the headline
quantities to ``benchmarks/output/BENCH_analytical_gate.json``.

Usage::

    python benchmarks/check_analytical.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    from repro import telemetry
    from repro.sim import native
    from repro.analytical.validate import (
        MEDIAN_ABS_ERR_BOUND,
        RANK_CORR_BOUND,
        render_validation,
        validate_analytical,
    )

    telemetry.reset()
    report = validate_analytical(seed=args.seed)
    print(render_validation(report))

    counters = telemetry.snapshot(events=False)["counters"]
    barrier_native = counters.get("kernel.barrier_native_dispatch", 0)
    barrier_fallback = counters.get("kernel.barrier_fallback_dispatch", 0)
    failures: list[str] = []
    if native.available() and (barrier_fallback or not barrier_native):
        failures.append(
            f"native library loaded but {int(barrier_fallback)} of "
            f"{int(barrier_native + barrier_fallback)} barrier evaluations "
            "took the NumPy fallback"
        )
    if report.median_abs_error > MEDIAN_ABS_ERR_BOUND:
        failures.append(
            f"pooled median |err| {report.median_abs_error:.4f} > "
            f"{MEDIAN_ABS_ERR_BOUND}"
        )
    for scheme, row in sorted(report.per_scheme().items()):
        if row["median_abs_error"] > MEDIAN_ABS_ERR_BOUND:
            failures.append(
                f"{scheme}: median |err| {row['median_abs_error']:.4f} > "
                f"{MEDIAN_ABS_ERR_BOUND}"
            )
        if row["rank_correlation"] < RANK_CORR_BOUND:
            failures.append(
                f"{scheme}: rank correlation {row['rank_correlation']:.4f} < "
                f"{RANK_CORR_BOUND}"
            )

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    detail = {
        "schema": "repro-analytical-validation/1",
        "seed": args.seed,
        "points": [
            {
                "scheme": p.scheme,
                "layer": p.layer,
                "config": p.config,
                "predicted_cycles": p.predicted_cycles,
                "simulated_cycles": p.simulated_cycles,
                "error": p.error,
            }
            for p in report.points
        ],
    }
    with open(os.path.join(OUTPUT_DIR, "analytical_validation.json"), "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
        fh.write("\n")
    headline = {
        "schema": "repro-bench-analytical-gate/1",
        "median_abs_error": report.median_abs_error,
        "max_abs_error": report.max_abs_error,
        "rank_correlation": report.rank_correlation,
        "median_bound": MEDIAN_ABS_ERR_BOUND,
        "rank_bound": RANK_CORR_BOUND,
        "per_scheme": report.per_scheme(),
        "barrier_native_dispatch": barrier_native,
        "barrier_fallback_dispatch": barrier_fallback,
        "passed": not failures,
    }
    with open(os.path.join(OUTPUT_DIR, "BENCH_analytical_gate.json"), "w") as fh:
        json.dump(headline, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if failures:
        print("check_analytical: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"check_analytical: PASS -- pooled median |err| "
        f"{report.median_abs_error:.4f}, max |err| {report.max_abs_error:.4f}, "
        f"rank corr {report.rank_correlation:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
