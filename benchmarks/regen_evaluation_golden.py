"""Regenerate ``tests/golden/evaluation_seed0.json``: the fast evaluation, bit for bit.

    PYTHONPATH=src python benchmarks/regen_evaluation_golden.py

Runs the paper's evaluation in fast mode at seed 0 -- Figs 7-9 speedups
with every layer's cycles per scheme, Figs 10-12 breakdowns, Figs 15-17
FPGA speedups, Fig 13 energy, the Fig 14 GB distribution, Table 4 and
the headline means -- and writes it through :func:`encode`, which stores
every float as its IEEE-754 bit pattern (``{"f8": <hex>}``) and every
array as dtype, shape and raw bytes. This encoder is the golden file's
own: the result-entry codec (:mod:`repro.resilience.checkpoint`) writes
finite floats as exact decimals, and the file must stay byte-identical.
``tests/test_golden.py`` recomputes the same document with
:func:`evaluation` and requires it to be identical.
Regenerate only with a change that alters the program's outputs on
purpose, and say so in EXPERIMENTS.md.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pathlib
import struct
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


def encode(value):
    """*value* as the golden file's JSON: floats as bit patterns, dicts tagged."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"f8": struct.pack(">d", value).hex()}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {"dict": {k: encode(v) for k, v in value.items()}}
    if isinstance(value, np.ndarray):
        raw = base64.b64encode(value.tobytes()).decode("ascii")
        return {"ndarray": [value.dtype.str, list(value.shape), raw]}
    raise TypeError(f"cannot encode {type(value).__name__}")


def evaluation(seed: int = 0) -> dict:
    """The fast-mode evaluation at *seed*, encoded by :func:`encode`."""
    from repro.eval import experiments as ex
    from repro.nets.models import all_networks

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
    return encode(_plain(out))


def main() -> int:
    GOLDEN.write_text(json.dumps(evaluation(0), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
