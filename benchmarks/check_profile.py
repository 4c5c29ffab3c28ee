"""CI guard: the hardware counters must obey their physical invariants.

Profiles AlexNet (sampled) with hardware counters, which every fidelity
rung attaches, and fails the build when either microarchitectural law
breaks:

1. **Conservation** -- for every (scheme, layer, cluster), busy +
   filter-zero + barrier-wait + permute-stall + imbalance-idle +
   memory-stall MAC-cycles must equal ``total_cycles x units_per_cluster``
   exactly (rtol 1e-6). A leak here means a simulator counts cycles it
   cannot attribute, i.e. the stall table lies.
2. **GB invariant** -- SparTen's greedy-balanced GB-H variant must show
   no more imbalance-idle than the no-GB variant on every layer; greedy
   balancing exists precisely to reclaim that idle time.

Writes the full payload to ``benchmarks/output/profile.json`` and the
headline bucket totals to ``benchmarks/output/BENCH_profile.json``.

Usage::

    python benchmarks/check_profile.py [--network NET] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", default="alexnet")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    from repro import profiling, telemetry

    telemetry.reset()
    schemes = profiling.DEFAULT_SCHEMES + ("scnn",)
    try:
        profile = profiling.profile_network(
            network=args.network, schemes=schemes, fast=True, seed=args.seed
        )
    except (RuntimeError, ValueError) as exc:
        # profile_network already runs check_conservation() per layer.
        print(f"check_profile: FAIL -- {exc}")
        return 1

    failures: list[str] = []
    residual = profile["invariants"]["conservation_max_rel_residual"]
    if residual > 1e-6:
        failures.append(
            f"conservation: max relative residual {residual:.3g} > 1e-6"
        )
    gb = profile["invariants"]["gb_h_imbalance_le_no_gb"]
    if not gb:
        failures.append("GB invariant: no sparten/sparten_no_gb pair profiled")
    for layer, row in gb.items():
        if not row["holds"]:
            failures.append(
                f"GB invariant: {layer} GB-H imbalance-idle "
                f"{row['gb_h']:.0f} > no-GB {row['no_gb']:.0f} MAC-cycles"
            )

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    profiling.write_profile_json(os.path.join(OUTPUT_DIR, "profile.json"), profile)
    headline = {
        "schema": "repro-bench-profile/1",
        "network": args.network,
        "seed": args.seed,
        "totals": profile["totals"],
        "invariants": profile["invariants"],
        "ok": not failures,
    }
    with open(os.path.join(OUTPUT_DIR, "BENCH_profile.json"), "w") as fh:
        json.dump(headline, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if failures:
        for failure in failures:
            print(f"check_profile: FAIL -- {failure}")
        return 1
    n_cells = len(profile["layer_names"]) * len(profile["schemes"])
    print(
        f"check_profile: OK -- {n_cells} (scheme, layer) cells on "
        f"{args.network}; conservation residual {residual:.3g}; "
        f"GB invariant holds on {len(gb)}/{len(gb)} layers"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
