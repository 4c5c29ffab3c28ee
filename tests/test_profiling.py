"""The microarchitectural profiler: counters, conservation, timelines.

Every simulator attaches a :class:`CounterSet` to its results on every
fidelity rung; these tests pin the conservation law (busy + idle + stall
== total cycles x units, per cluster) across every scheme and both sided
modes, the timeline shapes, the batch/roofline arithmetic, and the
plumbing: extras schema, telemetry counters, trace metadata, result-memo
separation across rungs and the CLI payload.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config, profiling, telemetry
from repro.nets.layers import ConvLayerSpec
from repro.profiling.counters import BUCKETS, CounterSet, positional_timeline, zero_counters
from repro.sim.dense import simulate_dense
from repro.sim.dynamic import simulate_dynamic_dispatch
from repro.sim.config import HardwareConfig
from repro.sim.fpga import apply_roofline
from repro.sim.results import Breakdown, LayerResult, NetworkResult, observability_extras
from repro.sim.scnn import simulate_scnn
from repro.sim.sparten import simulate_sparten

SPARTEN_VARIANTS = ("no_gb", "gb_s", "gb_h")
SCNN_VARIANTS = ("two", "one", "dense")


def _all_results(spec, cfg, seed=0):
    """(label, LayerResult) for every scheme x sided combination."""
    out = [("dense", simulate_dense(spec, cfg, seed=seed))]
    for variant in SPARTEN_VARIANTS:
        for sided in ("two", "one"):
            out.append(
                (
                    f"sparten_{variant}_{sided}",
                    simulate_sparten(spec, cfg, variant=variant, sided=sided, seed=seed),
                )
            )
    for variant in SCNN_VARIANTS:
        out.append((f"scnn_{variant}", simulate_scnn(spec, cfg, variant=variant, seed=seed)))
    out.append(("dynamic", simulate_dynamic_dispatch(spec, cfg, seed=seed)))
    return out


# ---------------------------------------------------------------------------
# Breakdown arithmetic (satellite: the figure-facing ledger).


def test_breakdown_add_and_total():
    a = Breakdown(nonzero_macs=3.0, zero_macs=1.0, intra_loss=2.0, inter_loss=4.0)
    b = Breakdown(nonzero_macs=1.0, zero_macs=0.5, intra_loss=0.25, inter_loss=0.25)
    c = a + b
    assert c == Breakdown(4.0, 1.5, 2.25, 4.25)
    assert c.total == pytest.approx(a.total + b.total)


def test_breakdown_scaled_preserves_proportions():
    a = Breakdown(nonzero_macs=8.0, zero_macs=4.0, intra_loss=2.0, inter_loss=2.0)
    s = a.scaled(0.25)
    assert s.total == pytest.approx(a.total * 0.25)
    assert s.nonzero_macs / s.total == pytest.approx(a.nonzero_macs / a.total)


def test_observability_extras_schema():
    b = Breakdown(nonzero_macs=6.0, zero_macs=2.0, intra_loss=1.0, inter_loss=1.0)
    extras = observability_extras(b)
    assert extras == {
        "mac_utilization": 0.6,
        "zero_mac_cycles": 2.0,
        "imbalance_idle_mac_cycles": 1.0,
        "intra_idle_mac_cycles": 1.0,
    }
    empty = observability_extras(Breakdown(0.0, 0.0, 0.0, 0.0))
    assert empty["mac_utilization"] == 0.0


# ---------------------------------------------------------------------------
# The conservation law, across every scheme and sided mode.


def test_conservation_all_schemes(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    for label, result in _all_results(tiny_spec, mini_cfg):
        counters = result.counters
        assert counters is not None, label
        assert counters.check_conservation(rtol=1e-9) <= 1e-9, label
        # The machine's capacity is cycles x MACs, bucketed exactly.
        assert counters.per_cluster_total() == pytest.approx(
            np.full(counters.n_clusters, counters.capacity())
        ), label
        assert 0.0 < counters.utilization() <= 1.0, label


def test_conservation_strided(strided_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    for label, result in _all_results(strided_spec, mini_cfg):
        assert result.counters.check_conservation(rtol=1e-9) <= 1e-9, label


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_conservation_property_random_layers(seed, mini_cfg, monkeypatch):
    """Property-style: random shapes/densities never leak MAC-cycles."""
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    rng = np.random.default_rng(seed)
    spec = ConvLayerSpec(
        name=f"rand{seed}",
        in_height=int(rng.integers(5, 9)),
        in_width=int(rng.integers(5, 9)),
        in_channels=int(rng.integers(4, 12)),
        kernel=int(rng.choice([1, 3])),
        n_filters=int(rng.integers(5, 14)),
        stride=int(rng.choice([1, 2])),
        padding=1,
        input_density=float(rng.uniform(0.2, 0.9)),
        filter_density=float(rng.uniform(0.2, 0.9)),
    )
    for label, result in _all_results(spec, mini_cfg, seed=seed):
        assert result.counters.check_conservation(rtol=1e-9) <= 1e-9, label


def test_profiling_never_changes_results(tiny_spec, mini_cfg, monkeypatch):
    """Figures are byte-identical on the counters/timeline/trace rungs."""
    by_rung = {}
    for rung in ("counters", "timeline", "trace"):
        monkeypatch.setenv("REPRO_FIDELITY", rung)
        by_rung[rung] = _all_results(tiny_spec, mini_cfg)
    for (label, cnt), (_, tl), (_, tr) in zip(*by_rung.values()):
        assert cnt.cycles == tl.cycles == tr.cycles, label
        assert cnt.breakdown == tl.breakdown == tr.breakdown, label


@given(
    seed=st.integers(0, 2**16),
    size=st.tuples(st.integers(3, 7), st.integers(3, 7)),
    channels=st.integers(1, 24),  # 1-3 chunks of 16, the last partial
    kernel=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    n_filters=st.integers(1, 11),  # mostly not a multiple of 4 units
    densities=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
)
@settings(max_examples=25, deadline=None)
def test_ladder_property_random_layers(
    seed, size, channels, kernel, stride, padding, n_filters, densities
):
    """On random layers, the counters/timeline/trace rungs agree on cycles,
    breakdowns and counter totals, and every timeline row sums to its
    cluster's wall cycles."""
    mini = HardwareConfig(
        name="mini", n_clusters=3, units_per_cluster=4, chunk_size=16,
        bisection_width=2, scnn_pe_grid=(2, 2), scnn_max_tile=3,
    )
    spec = ConvLayerSpec(
        name=f"prop{seed}", in_height=size[0], in_width=size[1],
        in_channels=channels, kernel=kernel, n_filters=n_filters,
        stride=stride, padding=padding,
        input_density=densities[0], filter_density=densities[1],
    )
    by_rung = {}
    for rung in ("counters", "timeline", "trace"):
        with config.use(dataclasses.replace(config.current(), fidelity=rung)):
            by_rung[rung] = _all_results(spec, mini, seed=seed)
    for (label, cnt), (_, tl), (_, tr) in zip(*by_rung.values()):
        assert cnt.cycles == tl.cycles == tr.cycles, label
        assert cnt.breakdown == tl.breakdown == tr.breakdown, label
        assert cnt.counters.totals() == tl.counters.totals() == tr.counters.totals(), label
        assert cnt.counters.timeline_cycles is None, label
        for result in (tl, tr):
            c = result.counters
            # SCNN's PEs advance in broadcast lockstep, so each PE's wall
            # is the layer's; the positional schemes' clusters finish
            # early by their imbalance idle.
            wall = np.full(c.n_clusters, c.total_cycles)
            if not label.startswith("scnn"):
                wall = wall - c.imbalance_idle / c.units_per_cluster
            np.testing.assert_allclose(
                c.timeline_cycles.sum(axis=1), wall, rtol=1e-9, atol=1e-9,
                err_msg=label,
            )


# ---------------------------------------------------------------------------
# Timelines.


def test_timeline_shapes_and_row_sums(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "timeline")
    shape_of = lambda counters: (counters.n_clusters, profiling.TIMELINE_BINS)
    for label, result in _all_results(tiny_spec, mini_cfg):
        counters = result.counters
        assert counters.timeline_cycles is not None, label
        assert counters.timeline_cycles.shape == shape_of(counters), label
        assert counters.timeline_busy.shape == shape_of(counters), label
        # Rows sum to each cluster's wall cycles; the slowest cluster
        # defines the layer.
        row_sums = counters.timeline_cycles.sum(axis=1)
        assert row_sums.max() == pytest.approx(counters.total_cycles), label
        assert np.all(row_sums <= counters.total_cycles + 1e-6), label
        # A bin's occupancy can never exceed its slot capacity.
        assert np.all(
            counters.timeline_busy
            <= counters.timeline_cycles * counters.units_per_cluster + 1e-6
        ), label


def test_positional_timeline_binning():
    cluster_of = np.array([0, 0, 0, 0, 1, 1])
    wall = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    busy = wall * 2
    tl_cycles, tl_busy = positional_timeline(cluster_of, wall, busy, 2, 2)
    assert tl_cycles.tolist() == [[3.0, 7.0], [5.0, 6.0]]
    assert tl_busy.tolist() == [[6.0, 14.0], [10.0, 12.0]]


def test_counters_mode_skips_timelines(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    result = simulate_sparten(tiny_spec, mini_cfg)
    assert result.counters is not None
    assert result.counters.timeline_cycles is None


# ---------------------------------------------------------------------------
# CounterSet arithmetic.


def test_counterset_add_accumulates_and_checks_geometry():
    a = zero_counters("sparten", 2, 4, timeline_bins=4)
    a.total_cycles = 10.0
    a.busy += 40.0
    a.buffer_hwm = {"input_chunk_values": 5.0}
    b = zero_counters("sparten", 2, 4, timeline_bins=4)
    b.total_cycles = 6.0
    b.busy += 24.0
    b.buffer_hwm = {"input_chunk_values": 9.0, "filter_chunk_values": 2.0}
    c = a + b
    assert c.total_cycles == 16.0
    assert c.busy.tolist() == [64.0, 64.0]
    assert c.buffer_hwm == {"input_chunk_values": 9.0, "filter_chunk_values": 2.0}
    assert c.timeline_cycles.shape == (2, 4)
    with pytest.raises(ValueError, match="different machines"):
        a + zero_counters("sparten", 3, 4)
    with pytest.raises(ValueError, match="different machines"):
        a + zero_counters("dense", 2, 4)


def test_counterset_add_drops_timeline_on_mixed_depth():
    a = zero_counters("dense", 2, 4, timeline_bins=4)
    b = zero_counters("dense", 2, 4)
    assert (a + b).timeline_cycles is None


def test_with_memory_stall_preserves_conservation():
    c = zero_counters("sparten", 3, 4, timeline_bins=4)
    c.total_cycles = 100.0
    c.busy += 100.0 * 4  # fully busy machine
    c.check_conservation()
    stalled = c.with_memory_stall(25.0)
    assert stalled.total_cycles == 125.0
    assert stalled.memory_stall.tolist() == [100.0, 100.0, 100.0]
    stalled.check_conservation()
    assert stalled.timeline_cycles.sum(axis=1) == pytest.approx(
        np.full(3, 25.0)
    )  # the stall spread over bins
    assert c.with_memory_stall(0.0) is c


def test_counterset_roundtrip_and_check_failure():
    c = zero_counters("scnn", 2, 16, timeline_bins=4)
    c.total_cycles = 12.0
    c.busy += 12.0 * 16
    c.barriers = 3.0
    c.buffer_hwm = {"input_tile_values": 7.0}
    again = CounterSet.from_dict(c.to_dict())
    assert again.scheme == "scnn"
    assert again.totals() == c.totals()
    assert again.barriers == 3.0
    assert again.buffer_hwm == {"input_tile_values": 7.0}
    assert again.timeline_cycles.shape == (2, 4)
    again.busy[0] += 5.0  # break the ledger
    with pytest.raises(ValueError, match="cycle conservation violated"):
        again.check_conservation()
    with pytest.raises(KeyError, match="unknown counter bucket"):
        c.bucket("naps")


# ---------------------------------------------------------------------------
# Roofline, batch accumulation, network aggregation.


def test_fpga_roofline_charges_memory_stall(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    result = simulate_sparten(tiny_spec, mini_cfg)
    bounded = apply_roofline(result, bytes_per_cycle=0.05)
    assert bounded.cycles > result.cycles  # the bandwidth bound bit
    counters = bounded.counters
    stall = bounded.cycles - result.compute_cycles
    assert counters.totals()["memory_stall"] == pytest.approx(
        stall * counters.units_per_cluster * counters.n_clusters
    )
    counters.check_conservation()


def test_batch_accumulation_adds_counters(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    from repro.core.compare import _accumulate

    a = simulate_sparten(tiny_spec, mini_cfg, seed=0)
    b = simulate_sparten(tiny_spec, mini_cfg, seed=1)
    both = _accumulate(a, b)
    assert both.counters.total_cycles == pytest.approx(
        a.counters.total_cycles + b.counters.total_cycles
    )
    both.counters.check_conservation()
    # A None on either side disables the aggregate rather than crashing.
    from dataclasses import replace

    assert _accumulate(a, replace(b, counters=None)).counters is None


def test_network_result_counters(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    from dataclasses import replace

    r1 = simulate_sparten(tiny_spec, mini_cfg, seed=0)
    r2 = simulate_sparten(tiny_spec, mini_cfg, seed=2)
    net = NetworkResult(scheme="sparten", network_name="t", layers=(r1, r2))
    total = net.counters()
    assert total.totals()["busy"] == pytest.approx(
        r1.counters.totals()["busy"] + r2.counters.totals()["busy"]
    )
    partial = NetworkResult(
        scheme="sparten", network_name="t", layers=(r1, replace(r2, counters=None))
    )
    assert partial.counters() is None


def test_gb_h_imbalance_no_worse_than_no_gb(monkeypatch):
    """The acceptance invariant: greedy balancing reclaims idle time.

    Pinned on a real (sampled) Table-3 layer: with only a dozen filters
    the tiny fixtures give greedy balancing nothing to balance, so the
    invariant is a property of realistic layers -- the same population
    ``benchmarks/check_profile.py`` gates in CI.
    """
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    from repro.eval.experiments import network_by_name
    from repro.sim.config import config_for

    net = network_by_name("alexnet")
    cfg = config_for(net).with_sampling(200, batch=1)
    spec = net.layer("Layer3")
    no_gb = simulate_sparten(spec, cfg, variant="no_gb")
    gb_h = simulate_sparten(spec, cfg, variant="gb_h")
    assert (
        gb_h.counters.imbalance_idle.sum()
        <= no_gb.counters.imbalance_idle.sum() + 1e-6
    )


# ---------------------------------------------------------------------------
# Extras schema (satellite: one observability schema for all simulators).


def test_extras_schema_unified(tiny_spec, mini_cfg):
    for label, result in _all_results(tiny_spec, mini_cfg):
        for key in (
            "mac_utilization",
            "zero_mac_cycles",
            "imbalance_idle_mac_cycles",
            "intra_idle_mac_cycles",
        ):
            assert key in result.extras, (label, key)
        assert result.extras["mac_utilization"] == pytest.approx(
            result.breakdown.nonzero_macs / result.breakdown.total
        ), label


# ---------------------------------------------------------------------------
# NetworkResult error messages (satellite).


def _layer_result(scheme, name, cycles):
    from repro.arch.memory import Traffic

    return LayerResult(
        scheme=scheme,
        layer_name=name,
        cycles=cycles,
        compute_cycles=cycles,
        total_macs=16,
        breakdown=Breakdown(cycles * 16.0, 0.0, 0.0, 0.0),
        traffic=Traffic(0.0, 0.0, 0.0),
    )


def test_geomean_speedup_over_mismatched_lengths_raise():
    mine = NetworkResult(
        "sparten", "alexnet", (_layer_result("sparten", "L0", 10.0),)
    )
    base = NetworkResult(
        "dense",
        "vggnet",
        (_layer_result("dense", "L0", 20.0), _layer_result("dense", "L1", 20.0)),
    )
    with pytest.raises(ValueError) as err:
        mine.geomean_speedup_over(base)
    message = str(err.value)
    assert "'alexnet'" in message and "'vggnet'" in message
    assert "has 1 layers" in message and "2" in message


def test_geomean_speedup_over_all_excluded_names_layers():
    mine = NetworkResult("sparten", "net", (_layer_result("sparten", "L0", 10.0),))
    base = NetworkResult("dense", "net", (_layer_result("dense", "L0", 20.0),))
    assert mine.geomean_speedup_over(base) == pytest.approx(2.0)
    with pytest.raises(ValueError, match=r"no layers.*'net'.*L0.*excluded"):
        mine.geomean_speedup_over(base, exclude=("L0",))


# ---------------------------------------------------------------------------
# Plumbing: env knob, telemetry flow, trace metadata, memo separation.


def test_profile_counters_reach_telemetry(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    telemetry.reset()
    result = simulate_sparten(tiny_spec, mini_cfg)
    counters = telemetry.get_recorder().counters()
    assert counters["profile.sparten.profiled_layers"] == 1.0
    for bucket in BUCKETS:
        key = f"profile.sparten.{bucket}_mac_cycles"
        assert counters[key] == pytest.approx(result.counters.totals()[bucket])
    telemetry.reset()


def test_timeline_rows_reach_chrome_trace(tiny_spec, mini_cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "timeline")
    telemetry.reset()
    profiling.reset_sim_clock()
    simulate_sparten(tiny_spec, mini_cfg)
    trace = telemetry.chrome_trace()
    sim_rows = [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and e["pid"] >= 900_000_000
    ]
    assert sim_rows, "no per-cluster sim rows in the trace"
    assert sim_rows[0]["ts"] == 0.0  # sim clocks start at cycle 0
    assert {e["tid"] for e in sim_rows} == set(range(mini_cfg.n_clusters))
    names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["name"] == "process_name" and e["pid"] >= 900_000_000
    }
    assert names == {"sim sparten (1 cycle = 1 us)"}
    thread_names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["name"] == "thread_name" and e["pid"] >= 900_000_000
    }
    assert thread_names == {f"cluster {i}" for i in range(mini_cfg.n_clusters)}
    telemetry.reset()


def test_emit_event_respects_budget():
    from repro.telemetry.recorder import Recorder

    rec = Recorder(max_events=1)
    assert rec.emit_event("a", ts=0.0, dur=1.0, pid=7, tid=1, tname="cluster 1")
    assert not rec.emit_event("b", ts=1.0, dur=1.0)
    assert rec.snapshot()["dropped_events"] == 1


def test_result_memo_across_rungs(tiny_spec, mini_cfg, monkeypatch, tmp_path):
    """A rung that records timelines is never served a result without
    them, nor the reverse, from the in-process memo or the disk store;
    ``analytical`` and ``counters`` share entries."""
    from repro.core import compare, workload

    def timeline_shape(rung):
        monkeypatch.setenv("REPRO_FIDELITY", rung)
        result = compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 0)
        timeline = result.counters.timeline_cycles
        return None if timeline is None else timeline.shape

    full = (mini_cfg.n_clusters, profiling.TIMELINE_BINS)
    for store in (None, tmp_path):
        if store is None:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
        for first, second, want in (
            ("counters", "timeline", full),
            ("timeline", "counters", None),
        ):
            workload.clear_caches()
            timeline_shape(first)
            if store is not None:
                workload.clear_caches()  # the second asks the disk store
            assert timeline_shape(second) == want, (store, first, second)
    assert list(tmp_path.glob("**/result-*.json"))
    workload.clear_caches()

    keys = {}
    for rung in ("analytical", "counters", "timeline"):
        monkeypatch.setenv("REPRO_FIDELITY", rung)
        keys[rung] = workload.result_key("sparten", tiny_spec, mini_cfg, 0)
    assert keys["analytical"] == keys["counters"] != keys["timeline"]


# ---------------------------------------------------------------------------
# Attribution payload + CLI.


def test_profile_network_payload(monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    telemetry.reset()
    payload = profiling.profile_network(
        "alexnet", schemes=("dense", "sparten_no_gb", "sparten"), layer="Layer2"
    )
    assert payload["schema"] == "repro-profile/1"
    assert payload["layer_names"] == ["Layer2"]
    assert set(payload["schemes"]) == {"dense", "sparten_no_gb", "sparten"}
    gb = payload["invariants"]["gb_h_imbalance_le_no_gb"]
    assert gb["Layer2"]["holds"]
    assert payload["invariants"]["conservation_max_rel_residual"] <= 1e-6
    dump = payload["layers"]["Layer2"]["sparten"]
    assert set(dump["totals"]) == set(BUCKETS)
    text = profiling.render_attribution(payload)
    assert "Layer2" in text and "sparten_no_gb" in text
    assert "GB invariant" in text
    telemetry.reset()


def test_cli_profile_subcommand(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_FIDELITY", "counters")
    out_json = tmp_path / "profile.json"
    trace_json = tmp_path / "trace.json"
    code = main(
        [
            "profile",
            "--network",
            "alexnet",
            "--layer",
            "Layer2",
            "--schemes",
            "dense,sparten_no_gb,sparten",
            "-o",
            str(out_json),
            "--trace",
            str(trace_json),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "Stall attribution" in printed and "sparten" in printed
    import json

    payload = json.loads(out_json.read_text())
    assert payload["schema"] == "repro-profile/1"
    assert payload["mode"] == "timeline"  # --trace raises the rung
    trace = json.loads(trace_json.read_text())
    assert any(
        e.get("pid", 0) >= 900_000_000 for e in trace["traceEvents"]
    ), "trace is missing the per-cluster sim rows"
    telemetry.reset()
