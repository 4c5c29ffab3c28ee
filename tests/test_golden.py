"""Golden regression anchors: exact fast-mode results, frozen.

The shape assertions elsewhere allow drift inside the qualitative bands;
these tests pin the *numbers* of the seed-0 fast-mode runs (AlexNet and
GoogLeNet speedups) against a frozen JSON. The whole stack is
deterministic -- integer match counts, seeded synthesis, no wall-clock --
so any deviation beyond float noise means a model changed; regenerate
the golden file (see below) only when the change is intentional and
documented in EXPERIMENTS.md.

Regenerate with::

    python - <<'PY'
    import json
    from repro.eval.experiments import speedup_figure
    from repro.nets.models import alexnet, googlenet
    golden = {}
    for net in (alexnet(), googlenet()):
        fig = speedup_figure(net, fast=True, seed=0)
        golden[net.name] = {"layers": fig["layers"], "geomean": fig["geomean"]}
    json.dump(golden, open("tests/golden/speedups_fast_seed0.json", "w"),
              indent=1, sort_keys=True)
    PY

The profiler's stall-bucket totals are pinned the same way, exactly (every
bucket is an integer count of MAC-cycles). The golden file is the output
of ``benchmarks/check_profile.py``, which CI diffs against it; regenerate
with::

    python benchmarks/check_profile.py
    cp benchmarks/output/BENCH_profile.json tests/golden/profile_alexnet_seed0.json

The analytical pre-screen is pinned on the benchmark's design-sweep grid
(20 cluster counts x 7 unit counts x 3 balancing variants) for one
AlexNet layer and one GoogLeNet layer whose 192 filters leave ``-1``
padding in the wide-unit groups: every analytical row at rel 1e-9, and
the survivors exactly. Regenerate with::

    python - <<'PY'
    import json
    from repro.eval.experiments import network_by_name
    from repro.sim.sweeps import prescreened_sweep
    golden = {"seed": 0, "top_k": 3, "variants": ["no_gb", "gb_s", "gb_h"],
              "clusters": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 96,
                           112, 128, 160, 192, 224, 256],
              "units": [4, 8, 16, 32, 64, 128, 256], "layers": {}}
    for name in ("AlexNet/Layer2", "GoogLeNet/Inc5a_3x3red"):
        net, layer = name.split("/")
        result = prescreened_sweep(
            network_by_name(net).layer(layer),
            tuple((c, u) for c in golden["clusters"] for u in golden["units"]),
            variants=tuple(golden["variants"]), top_k=golden["top_k"],
            seed=golden["seed"],
        )
        golden["layers"][name] = {
            "analytical": {f"{c}x{u}:{v}": row
                           for (c, u, v), row in result["analytical"].items()},
            "survivors": [f"{c}x{u}:{v}" for c, u, v in result["survivors"]],
        }
    json.dump(golden, open("tests/golden/prescreen_seed0.json", "w"),
              indent=1, sort_keys=True)
    PY

The whole fast evaluation at seed 0 -- Figs 7-17 with per-layer cycles,
Table 4 and the headline means -- is pinned exactly: every float by its
IEEE-754 bit pattern, through the regeneration script's own encoder.
Regenerate with::

    python benchmarks/regen_evaluation_golden.py
"""

import importlib.util
import json
import pathlib

import pytest

from repro import profiling
from repro.eval.experiments import network_by_name, speedup_figure
from repro.nets.models import alexnet, googlenet, vggnet
from repro.sim.sweeps import prescreened_sweep

GOLDEN = pathlib.Path(__file__).parent / "golden" / "speedups_fast_seed0.json"
PROFILE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "profile_alexnet_seed0.json"
PRESCREEN_GOLDEN = pathlib.Path(__file__).parent / "golden" / "prescreen_seed0.json"
EVALUATION_GOLDEN = pathlib.Path(__file__).parent / "golden" / "evaluation_seed0.json"
REGEN_EVALUATION = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "regen_evaluation_golden.py"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "network_fn", [alexnet, googlenet, vggnet],
    ids=["alexnet", "googlenet", "vggnet"],
)
def test_speedups_match_golden(network_fn, golden):
    network = network_fn()
    fig = speedup_figure(network, fast=True, seed=0)
    want = golden[network.name]
    for scheme, layers in want["layers"].items():
        for layer, value in layers.items():
            got = fig["layers"][scheme][layer]
            assert got == pytest.approx(value, rel=1e-9), (scheme, layer)
    for scheme, value in want["geomean"].items():
        assert fig["geomean"][scheme] == pytest.approx(value, rel=1e-9), scheme


def test_golden_file_sane(golden):
    """The frozen numbers themselves stay in the paper's bands."""
    assert golden["AlexNet"]["geomean"]["sparten"] > 4.0
    assert golden["AlexNet"]["layers"]["scnn"]["Layer0"] < 0.2
    assert (
        golden["GoogLeNet"]["layers"]["sparten_no_gb"]["Inc3a_5x5red"]
        > golden["GoogLeNet"]["layers"]["sparten"]["Inc3a_5x5red"]
    )
    assert golden["VGGNet"]["layers"]["sparten"]["Layer0"] < 1.0  # shallow depth
    assert golden["VGGNet"]["geomean"]["sparten"] > 5.0


def test_profile_totals_match_golden(monkeypatch):
    """Stall-bucket totals and invariants, as ``check_profile.py`` runs them."""
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    want = json.loads(PROFILE_GOLDEN.read_text())
    profile = profiling.profile_network(
        network=want["network"],
        schemes=profiling.DEFAULT_SCHEMES + ("scnn",),
        fast=True,
        seed=want["seed"],
    )
    assert profile["totals"] == want["totals"]
    assert profile["invariants"] == want["invariants"]


def test_prescreen_matches_golden():
    """Every analytical grid row at rel 1e-9; the survivors exactly."""
    want = json.loads(PRESCREEN_GOLDEN.read_text())
    geometries = tuple((c, u) for c in want["clusters"] for u in want["units"])
    for name, layer in want["layers"].items():
        net, layer_name = name.split("/")
        result = prescreened_sweep(
            network_by_name(net).layer(layer_name),
            geometries,
            variants=tuple(want["variants"]),
            top_k=want["top_k"],
            seed=want["seed"],
        )
        got = {f"{c}x{u}:{v}": row for (c, u, v), row in result["analytical"].items()}
        assert got.keys() == layer["analytical"].keys(), name
        for key, row in layer["analytical"].items():
            assert got[key] == pytest.approx(row, rel=1e-9), (name, key)
        survivors = [f"{c}x{u}:{v}" for c, u, v in result["survivors"]]
        assert survivors == layer["survivors"], name


def _first_difference(got, want, path="$"):
    """The path of the first encoded value that differs, or ``None``."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got.keys() ^ want.keys())}"
        for k in want:
            found = _first_difference(got[k], want[k], f"{path}.{k}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def test_evaluation_matches_golden_bit_for_bit():
    """Figs 7-17, Table 4 and the headline means, every float by bit pattern."""
    spec = importlib.util.spec_from_file_location("regen_evaluation", REGEN_EVALUATION)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    want = json.loads(EVALUATION_GOLDEN.read_text())
    got = json.loads(json.dumps(regen.evaluation(0)))
    assert _first_difference(got, want) is None
