"""Regenerate ``tests/golden/evaluation_seed0.json``: the fast evaluation, bit for bit.

    PYTHONPATH=src python benchmarks/regen_evaluation_golden.py

Runs the paper's evaluation in fast mode at seed 0 -- Figs 7-9 speedups
with every layer's cycles per scheme, Figs 10-12 breakdowns, Figs 15-17
FPGA speedups, Fig 13 energy, the Fig 14 GB distribution, Table 4 and
the headline means -- and writes it through the result-entry codec
(:mod:`repro.resilience.checkpoint`), so every float is stored as its
IEEE-754 bit pattern. ``tests/test_golden.py`` recomputes the same
document with :func:`evaluation` and requires it to be identical.
Regenerate only with a change that alters the program's outputs on
purpose, and say so in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import numpy as np

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "evaluation_seed0.json"


def _plain(value):
    """*value* in the codec's types: dataclasses as dicts, numpy scalars unboxed."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def evaluation(seed: int = 0) -> dict:
    """The fast-mode evaluation at *seed*, encoded by the result-entry codec."""
    from repro.eval import experiments as ex
    from repro.nets.models import all_networks
    from repro.resilience import checkpoint

    out: dict = {}
    for net in all_networks():
        fig = ex.speedup_figure(net, fast=True, seed=seed)
        cycles = {
            scheme: {layer: r.cycles for layer, r in per_layer.items()}
            for scheme, per_layer in fig["comparison"].results.items()
        }
        out[f"speedup/{net.name}"] = {
            "layers": fig["layers"], "geomean": fig["geomean"], "cycles": cycles,
        }
        out[f"breakdown/{net.name}"] = ex.breakdown_figure(net, fast=True, seed=seed)["breakdown"]
        out[f"fpga/{net.name}"] = ex.fpga_figure(net, fast=True, seed=seed)
    out["energy"] = ex.energy_figure(fast=True, seed=seed)
    out["gb_impact"] = ex.gb_impact_figure(seed=seed)
    out["asic_table"] = ex.asic_table()
    means = ex.headline_means(fast=True, seed=seed)
    out["headline_means"] = {k: v for k, v in means.items() if k != "extras"}
    return checkpoint.encode(_plain(out))


def main() -> int:
    GOLDEN.write_text(json.dumps(evaluation(0), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
