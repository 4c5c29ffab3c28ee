"""Tests for the analytical fast path (repro.analytical).

Covers the contracts the pre-screened sweep leans on:

- density statistics are pinned against the materialised counts tensor,
- :func:`regroup_stats` re-slices one canonical extraction onto any
  cluster count (sharing arrays, preserving the sampling estimator),
- the barrier kernel matches the group-slab kernel it replaced (kept
  here as an oracle), its native and NumPy paths agree bit for bit, and
  the batched grid path reproduces the per-machine path bit for bit,
- the exact schemes (dense / one-sided / SCNN) match the simulators bit
  for bit and the calibrated SparTen models stay inside the validation
  bounds,
- every fidelity-ladder rung returns the shared LayerResult schema,
- predicted cycles are monotone in workload density,
- the two-phase sweep's result schema.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analytical import model
from repro.analytical.density import (
    extract_density_stats,
    regroup_stats,
    stats_from_work,
)
from repro.analytical.fidelity import (
    FIDELITY_LEVELS,
    fidelity_level,
    simulate_at_fidelity,
)
from repro.analytical.model import ANALYTICAL_SCHEMES, predict_layer
from repro.core.compare import run_scheme_cached
from repro.nets.layers import ConvLayerSpec
from repro.nets.models import alexnet
from repro.nets.synthesis import synthesize_layer
from repro.sim import native
from repro.sim.config import HardwareConfig
from repro.sim.kernels import compute_chunk_work
from repro.sim.results import LayerResult


class TestDensityStats:
    def test_match_sums_pin_materialized_counts(self, tiny_data, mini_cfg):
        """The cheap-path match totals equal the full counts tensor's."""
        full = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        cheap = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        counts = full.materialized_counts()
        np.testing.assert_array_equal(
            np.asarray(cheap.match_sums, dtype=np.float64),
            counts.sum(axis=(0, 2), dtype=np.float64),
        )

    def test_counts_bounded_by_window_popcounts(self, tiny_data, mini_cfg):
        full = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        counts = full.materialized_counts()
        # A chunk's match count cannot exceed the window's non-zeros.
        assert np.all(counts <= full.input_pop[:, :, None])

    def test_filter_totals_pin_filter_masks(self, tiny_data, mini_cfg):
        work = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        stats = stats_from_work(tiny_data, work, mini_cfg.chunk_size)
        np.testing.assert_array_equal(
            stats.filter_total_nnz,
            tiny_data.filter_masks.sum(axis=(1, 2, 3)),
        )

    def test_integral_image_rectangles(self, tiny_data, mini_cfg):
        work = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        stats = stats_from_work(tiny_data, work, mini_cfg.chunk_size)
        mask = tiny_data.input_mask
        h, w, _ = mask.shape
        whole = stats.rect_nnz(
            np.array(0), np.array(h), np.array(0), np.array(w)
        )
        np.testing.assert_array_equal(whole, mask.sum(axis=(0, 1)))


class TestRegroupStats:
    def _full_stats(self, spec, seed=0):
        """Canonical single-cluster extraction covering every position."""
        canonical = HardwareConfig(
            name="canon", n_clusters=1, units_per_cluster=1,
            chunk_size=16, position_sample=None,
        )
        return extract_density_stats(spec, canonical, seed)

    def test_same_cluster_count_is_identity(self, tiny_spec):
        stats = self._full_stats(tiny_spec)
        cfg = HardwareConfig(
            name="same", n_clusters=1, units_per_cluster=4, chunk_size=16
        )
        assert regroup_stats(stats, cfg) is stats

    def test_shares_per_position_arrays(self, tiny_spec, mini_cfg):
        stats = self._full_stats(tiny_spec)
        regrouped = regroup_stats(stats, mini_cfg)
        assert regrouped.input_pop is stats.input_pop
        assert regrouped.match_sums is stats.match_sums
        assert regrouped.filter_chunk_nnz is stats.filter_chunk_nnz

    def test_integral_image_built_once_across_regroupings(self, tiny_spec):
        """The SCNN integral image is built on first use and shared by
        every cluster count's regrouped statistics."""
        stats = self._full_stats(tiny_spec)
        integral = regroup_stats(
            stats,
            HardwareConfig(name="two", n_clusters=2, units_per_cluster=1,
                           chunk_size=16),
        ).input_integral
        assert stats.input_integral is integral
        three = HardwareConfig(
            name="three", n_clusters=3, units_per_cluster=1, chunk_size=16
        )
        assert regroup_stats(stats, three).input_integral is integral

    def test_weights_recover_cluster_positions(self, tiny_spec):
        stats = self._full_stats(tiny_spec)
        cfg = HardwareConfig(
            name="five", n_clusters=5, units_per_cluster=2, chunk_size=16
        )
        a = regroup_stats(stats, cfg).assignment
        assert a.n_clusters == 5
        np.testing.assert_allclose(
            np.bincount(a.cluster_of, weights=a.weight_of, minlength=5),
            a.cluster_positions,
        )
        assert int(a.cluster_positions.sum()) == tiny_spec.out_positions

    def test_matches_direct_extraction_when_unsampled(self, tiny_spec):
        """Full-coverage stats regrouped == stats extracted at the target."""
        stats = self._full_stats(tiny_spec)
        cfg = HardwareConfig(
            name="direct", n_clusters=3, units_per_cluster=4,
            chunk_size=16, bisection_width=2, position_sample=None,
        )
        regrouped = regroup_stats(stats, cfg)
        direct = extract_density_stats(tiny_spec, cfg, 0)
        np.testing.assert_array_equal(
            regrouped.assignment.cluster_of, direct.assignment.cluster_of
        )
        np.testing.assert_allclose(
            regrouped.assignment.weight_of, direct.assignment.weight_of
        )
        for scheme in ("dense", "one_sided", "sparten"):
            via_regroup = predict_layer(
                tiny_spec, cfg, scheme=scheme, stats=regrouped
            )
            via_direct = predict_layer(
                tiny_spec, cfg, scheme=scheme, stats=direct
            )
            assert via_regroup.cycles == pytest.approx(via_direct.cycles)

    def test_too_sparse_sample_raises(self, tiny_spec):
        sampled = HardwareConfig(
            name="sparse", n_clusters=1, units_per_cluster=1,
            chunk_size=16, position_sample=3,
        )
        stats = extract_density_stats(tiny_spec, sampled, 0)
        many = HardwareConfig(
            name="many",
            n_clusters=tiny_spec.out_positions,
            units_per_cluster=2,
            chunk_size=16,
        )
        with pytest.raises(ValueError, match="regroup"):
            regroup_stats(stats, many)


def _slab_barriers_oracle(stats, cfg, variant):
    """The group-slab barrier kernel :func:`model._two_sided_barriers`
    replaced, verbatim: (chunks, group block, positions) temporaries, the
    collocated component always evaluated, nothing hoisted."""
    units = cfg.units_per_cluster
    chunk = float(stats.chunk_size)
    loads_a, loads_b, floors = model.two_sided_row_loads(stats, cfg, variant)
    n_chunks, n_rows = loads_a.shape
    n_groups = n_rows // units
    ga = loads_a.reshape(n_chunks, n_groups, units)
    gb = loads_b.reshape(n_chunks, n_groups, units)
    combined = ga + gb
    heaviest = np.argmax(combined, axis=2)[:, :, None]
    wmax = np.take_along_axis(combined, heaviest, axis=2)[:, :, 0]
    wa = np.take_along_axis(ga, heaviest, axis=2)[:, :, 0]
    wb = np.take_along_axis(gb, heaviest, axis=2)[:, :, 0]
    near = np.maximum(model._NEARMAX_ABS, model._NEARMAX_REL * wmax)
    contenders = (combined >= (wmax - near)[:, :, None]).sum(axis=2)
    alpha = model._MAX_COEF_SCALE * model.expected_max_coefficient(contenders)
    k = stats.input_pop.astype(np.float64)
    totq = stats.total_filter_chunk_nnz.astype(np.float64) / chunk
    predicted = k.T @ totq
    rho = np.divide(
        stats.match_sums,
        predicted,
        out=np.ones_like(stats.match_sums),
        where=predicted > 0,
    )
    n_sel = k.shape[1]
    barrier = np.zeros(n_sel, dtype=np.float64)
    permute = np.zeros(n_sel, dtype=np.float64)
    fpc = np.clip((chunk - k) / max(chunk - 1.0, 1.0), 0.0, 1.0)
    block = max(1, int(8e6 / max(n_chunks * n_sel, 1)))
    k3 = k[:, None, :]
    fpc3 = fpc[:, None, :]
    for g0 in range(0, n_groups, block):
        g1 = min(g0 + block, n_groups)
        wa3 = wa[:, g0:g1, None]
        wb3 = wb[:, g0:g1, None]
        qa = np.clip(rho[None, None, :] * wa3 / chunk, 0.0, 1.0)
        qb = np.clip(rho[None, None, :] * wb3 / chunk, 0.0, 1.0)
        cap = np.minimum(k3, wa3) + np.minimum(k3, wb3)
        est = k3 * (qa + qb)
        sigma = np.sqrt((k3 * qa * (1.0 - qa) + k3 * qb * (1.0 - qb)) * fpc3)
        est += alpha[:, g0:g1, None] * sigma
        np.minimum(est, cap, out=est)
        np.maximum(est, 1.0, out=est)
        if floors is not None:
            fl = floors[:, g0:g1, None]
            permute += np.maximum(0.0, fl - est).sum(axis=(0, 1))
            np.maximum(est, fl, out=est)
        barrier += est.sum(axis=(0, 1))
    return barrier, permute, n_groups


#: Hypothesis inputs of the barrier-kernel properties: every variant,
#: units that do and do not divide F, GB-H floors with narrow
#: bisections; *slab* forces partial chunk and group slabs.
_BARRIER_CASES = dict(
    seed=st.integers(0, 2**16),
    n_filters=st.integers(1, 37),
    in_channels=st.integers(1, 24),
    kernel=st.sampled_from([1, 3]),
    size=st.integers(2, 7),
    densities=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    chunk=st.sampled_from([4, 8, 16, 128]),
    units=st.sampled_from([1, 2, 3, 4, 5, 8, 16]),
    bisection=st.integers(1, 8),
    variant=st.sampled_from(["no_gb", "gb_s", "gb_h"]),
    slab=st.sampled_from([1, 7, 64, model._SLAB]),
)


def _barrier_case(
    seed, n_filters, in_channels, kernel, size, densities, chunk, units,
    bisection, variant,
):
    """(stats, cfg) of one random layer and machine."""
    # GB-H's permutation network needs a power-of-two port count.
    assume(variant != "gb_h" or units & (units - 1) == 0)
    spec = ConvLayerSpec(
        name="prop", in_height=size, in_width=size,
        in_channels=in_channels, kernel=kernel, n_filters=n_filters,
        padding=kernel // 2,
        input_density=densities[0], filter_density=densities[1],
    )
    cfg = HardwareConfig(
        name="prop", n_clusters=1, units_per_cluster=units,
        chunk_size=chunk, bisection_width=bisection,
    )
    data = synthesize_layer(spec, seed)
    stats = stats_from_work(
        data, compute_chunk_work(data, cfg, need_counts=False), chunk
    )
    return stats, cfg


def _barriers_both_paths(stats, cfg, variant, slab=model._SLAB):
    """``_two_sided_barriers`` on the native kernel and on the NumPy
    fallback, asserting each path was the one dispatched."""
    out = {}
    for no_native in (False, True):
        before = telemetry.snapshot(events=False)["counters"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_SLAB", slab)
            if no_native:
                mp.setenv("REPRO_NO_NATIVE", "1")
            out[no_native] = model._two_sided_barriers(stats, cfg, variant)
        after = telemetry.snapshot(events=False)["counters"]
        name = "fallback" if no_native else "native"
        key = f"kernel.barrier_{name}_dispatch"
        assert after.get(key, 0) == before.get(key, 0) + 1, key
    return out[False], out[True]


class TestBarrierKernel:
    @given(**_BARRIER_CASES)
    @settings(max_examples=80, deadline=None)
    def test_matches_slab_oracle(
        self, seed, n_filters, in_channels, kernel, size, densities, chunk,
        units, bisection, variant, slab,
    ):
        """Within rel 1e-12 of the replaced kernel."""
        stats, cfg = _barrier_case(
            seed, n_filters, in_channels, kernel, size, densities, chunk,
            units, bisection, variant,
        )
        want_b, want_p, want_groups = _slab_barriers_oracle(stats, cfg, variant)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_SLAB", slab)
            barrier, permute, n_groups = model._two_sided_barriers(
                stats, cfg, variant
            )
        assert n_groups == want_groups
        np.testing.assert_allclose(barrier, want_b, rtol=1e-12, atol=0)
        # A permute stall is a difference of nearly equal cycle counts, so
        # its error is bounded relative to the barrier it is cut from.
        assert np.all(np.abs(permute - want_p) <= 1e-12 * want_b)

    @pytest.mark.skipif(not native.available(), reason="no native kernel")
    @given(**_BARRIER_CASES)
    @settings(max_examples=80, deadline=None)
    def test_native_equals_fallback(
        self, seed, n_filters, in_channels, kernel, size, densities, chunk,
        units, bisection, variant, slab,
    ):
        """The compiled kernel and the NumPy slabs agree bit for bit."""
        stats, cfg = _barrier_case(
            seed, n_filters, in_channels, kernel, size, densities, chunk,
            units, bisection, variant,
        )
        got, want = _barriers_both_paths(stats, cfg, variant, slab)
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.skipif(not native.available(), reason="no native kernel")
    def test_native_equals_fallback_on_sweep_grid(self):
        """AlexNet/Layer2 at seed 0, on every unit count and variant of
        the design sweep, at the sweep's own statistics sample."""
        spec = next(s for s in alexnet().layers if s.name == "Layer2")
        canonical = HardwareConfig(
            name="prescreen_canonical", n_clusters=1, units_per_cluster=1,
            position_sample=512,
        )
        stats = extract_density_stats(spec, canonical, seed=0)
        for units in (4, 8, 16, 32, 64, 128, 256):
            cfg = HardwareConfig(name="grid", n_clusters=1, units_per_cluster=units)
            for variant in ("no_gb", "gb_s", "gb_h"):
                got, want = _barriers_both_paths(stats, cfg, variant)
                case = f"{units} units, {variant}"
                assert np.array_equal(got[0], want[0]), case
                assert np.array_equal(got[1], want[1]), case


class TestAccuracy:
    EXACT_SCHEMES = ("dense", "one_sided", "scnn", "scnn_one_sided", "scnn_dense")

    def test_exact_schemes_match_simulators(self, tiny_spec, mini_cfg):
        for scheme in self.EXACT_SCHEMES:
            sim = run_scheme_cached(scheme, tiny_spec, mini_cfg, seed=0)
            pred = predict_layer(tiny_spec, mini_cfg, scheme=scheme, seed=0)
            assert pred.cycles == pytest.approx(sim.cycles, rel=1e-9), scheme

    @given(
        size=st.integers(3, 8),
        in_channels=st.integers(1, 12),
        kernel=st.sampled_from((1, 2, 3)),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        n_filters=st.integers(1, 13),
        densities=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
        units=st.integers(1, 5),
        n_clusters=st.integers(1, 3),
        chunk=st.sampled_from((8, 16)),
        pe_side=st.integers(1, 2),
        max_tile=st.integers(2, 4),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_schemes_match_simulators_on_drawn_layers(
        self, size, in_channels, kernel, stride, padding, n_filters,
        densities, units, n_clusters, chunk, pe_side, max_tile, seed,
    ):
        """Stride, padding, a partial last channel chunk and filters that
        do not fill the last unit group, at any density."""
        assume(size + 2 * padding >= kernel)
        spec = ConvLayerSpec(
            name="drawn", in_height=size, in_width=size + 1,
            in_channels=in_channels, kernel=kernel, n_filters=n_filters,
            stride=stride, padding=padding,
            input_density=densities[0], filter_density=densities[1],
        )
        cfg = HardwareConfig(
            name="drawn", n_clusters=n_clusters, units_per_cluster=units,
            chunk_size=chunk, scnn_pe_grid=(pe_side, pe_side),
            scnn_max_tile=max_tile,
        )
        for scheme in self.EXACT_SCHEMES:
            sim = run_scheme_cached(scheme, spec, cfg, seed=seed)
            pred = predict_layer(spec, cfg, scheme=scheme, seed=seed)
            assert pred.cycles == pytest.approx(sim.cycles, rel=1e-9), scheme

    def test_sparten_within_validation_bounds(self, tiny_spec, mini_cfg):
        for scheme in ("sparten_no_gb", "sparten_gb_s", "sparten"):
            sim = run_scheme_cached(scheme, tiny_spec, mini_cfg, seed=0)
            pred = predict_layer(tiny_spec, mini_cfg, scheme=scheme, seed=0)
            err = abs(pred.cycles - sim.cycles) / sim.cycles
            assert err <= 0.10, f"{scheme}: |err| {err:.4f}"

    def test_breakdown_conserves_totals(self, tiny_spec, mini_cfg):
        pred = predict_layer(tiny_spec, mini_cfg, scheme="sparten", seed=0)
        b = pred.breakdown
        assert b.total == pytest.approx(
            b.nonzero_macs + b.intra_loss + b.inter_loss, rel=1e-9
        )


class TestFidelityLadder:
    def test_every_level_returns_layer_result(self, tiny_spec, mini_cfg):
        cycles = {}
        for level in FIDELITY_LEVELS:
            result = simulate_at_fidelity(
                "sparten", tiny_spec, mini_cfg, seed=0, fidelity=level
            )
            assert isinstance(result, LayerResult)
            assert result.cycles > 0
            assert result.breakdown.total > 0
            cycles[level] = result.cycles
        # The cycle-level rungs answer identically; analytical approximates.
        assert cycles["counters"] == cycles["timeline"] == cycles["trace"]

    def test_trace_rung_attaches_trace_extras(self, tiny_spec, mini_cfg):
        result = simulate_at_fidelity(
            "sparten", tiny_spec, mini_cfg, seed=0, fidelity="trace"
        )
        assert "trace_total_cycles" in result.extras
        assert "trace_hiding_efficiency" in result.extras

    def test_analytical_rung_rejects_unknown_scheme(self, tiny_spec, mini_cfg):
        with pytest.raises(ValueError, match="analytical"):
            simulate_at_fidelity(
                "not_a_scheme", tiny_spec, mini_cfg, fidelity="analytical"
            )

    def test_invalid_level_raises(self):
        with pytest.raises(ValueError, match="fidelity"):
            fidelity_level("cycle_accurate")

    def test_env_variable_selects_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "analytical")
        assert fidelity_level() == "analytical"
        monkeypatch.delenv("REPRO_FIDELITY")
        assert fidelity_level() == "counters"

    def test_analytical_results_memoise(self, tiny_spec, mini_cfg):
        first = simulate_at_fidelity(
            "dense", tiny_spec, mini_cfg, seed=0, fidelity="analytical"
        )
        second = simulate_at_fidelity(
            "dense", tiny_spec, mini_cfg, seed=0, fidelity="analytical"
        )
        assert second is first


class TestMonotonicity:
    def test_cycles_monotone_in_input_density(self, mini_cfg):
        """Denser inputs mean more useful MACs, never fewer cycles."""
        for scheme in ("one_sided", "sparten"):
            previous = 0.0
            for density in (0.15, 0.40, 0.65, 0.90):
                spec = ConvLayerSpec(
                    name=f"mono_{scheme}_{density}",
                    in_height=8, in_width=8, in_channels=24,
                    kernel=3, n_filters=16, padding=1,
                    input_density=density, filter_density=0.5,
                )
                pred = predict_layer(spec, mini_cfg, scheme=scheme, seed=0)
                assert pred.cycles >= previous, (scheme, density)
                previous = pred.cycles


class TestPrescreenedSweep:
    def _grid(self):
        return tuple((c, u) for c in (1, 2) for u in (2, 4))

    def test_result_schema(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        result = prescreened_sweep(
            tiny_spec,
            self._grid(),
            variants=("no_gb", "gb_h"),
            position_sample=None,
            top_k=2,
            stats_sample=None,
        )
        assert set(result) == {"analytical", "survivors", "simulated"}
        assert len(result["analytical"]) == 8
        assert len(result["survivors"]) == 2
        assert set(result["simulated"]) == set(result["survivors"])
        for key, row in result["analytical"].items():
            clusters, units, variant = key
            assert variant in ("no_gb", "gb_h")
            assert row["speedup_vs_dense"] > 0
            assert row["cycles"] > 0
        # Survivors are the top of the analytical ranking.
        ranked = sorted(
            result["analytical"],
            key=lambda g: -result["analytical"][g]["speedup_vs_dense"],
        )
        assert result["survivors"] == ranked[:2]

    def test_rejects_unknown_variant(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        with pytest.raises(ValueError, match="variants"):
            prescreened_sweep(tiny_spec, self._grid(), variants=("gb_x",))

    def test_rejects_bad_top_k(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        with pytest.raises(ValueError, match="top_k"):
            prescreened_sweep(tiny_spec, self._grid(), top_k=0)

    def test_rows_equal_per_point_predictions(self):
        """The batched grid reproduces per-machine ``predict_layer`` rows
        exactly, regrouped cluster counts included."""
        from repro.sim.sweeps import (
            _SCHEME_OF,
            _row_from_results,
            _sweep_config,
            prescreened_sweep,
        )

        spec = ConvLayerSpec(
            name="grid_rows", in_height=9, in_width=7, in_channels=40,
            kernel=3, n_filters=21, padding=1,
            input_density=0.45, filter_density=0.4,
        )
        geometries = tuple((c, u) for c in (1, 2, 3, 5, 7) for u in (1, 2, 4, 8))
        variants = ("no_gb", "gb_s", "gb_h")
        result = prescreened_sweep(
            spec, geometries, variants=variants, position_sample=None,
            top_k=1, stats_sample=40,
        )
        canonical = HardwareConfig(
            name="prescreen_canonical", n_clusters=1, units_per_cluster=1,
            position_sample=40,
        )
        stats = extract_density_stats(spec, canonical, 0)
        for n_clusters, units in geometries:
            cfg = _sweep_config(n_clusters, units, None)
            dense = predict_layer(spec, cfg, scheme="dense", stats=stats)
            for variant in variants:
                sparse = predict_layer(
                    spec, cfg, scheme=_SCHEME_OF[variant], stats=stats
                )
                want = _row_from_results(dense, sparse, cfg)
                assert result["analytical"][(n_clusters, units, variant)] == want

    def test_too_sparse_sample_raises(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        with pytest.raises(ValueError, match="no sampled position"):
            prescreened_sweep(
                tiny_spec, ((tiny_spec.out_positions, 2),), stats_sample=3
            )


class TestPredictGrid:
    def test_counts_points_and_skips_profile_counters(
        self, tiny_spec, monkeypatch
    ):
        """Grid machines are hypothetical: ``analytical.predict`` counts
        the points scored, the ``profile.*`` stall counters stay clean."""
        from repro import telemetry

        monkeypatch.setenv("REPRO_FIDELITY", "counters")
        stats = extract_density_stats(
            tiny_spec,
            HardwareConfig(name="canon", n_clusters=1, units_per_cluster=1),
            0,
        )
        cfgs = [
            HardwareConfig(name=f"g{c}x{u}", n_clusters=c, units_per_cluster=u)
            for c in (1, 3) for u in (2, 4)
        ]
        telemetry.reset()
        scored = model.predict_grid(stats, cfgs, ("dense", "sparten"))
        counters = telemetry.get_recorder().counters()
        telemetry.reset()
        assert counters["analytical.predict"] == len(cfgs) * 2
        assert not any(name.startswith("profile.") for name in counters)
        assert [set(point) for point in scored] == [{"dense", "sparten"}] * 4

    def test_rejects_unscored_scheme(self, tiny_spec, mini_cfg):
        stats = extract_density_stats(tiny_spec, mini_cfg, 0)
        with pytest.raises(ValueError, match="predict_grid"):
            model.predict_grid(stats, [mini_cfg], ("scnn",))


def test_analytical_schemes_cover_comparison_set():
    """Every scheme the comparison dispatcher knows has an analytical model."""
    for scheme in ("dense", "one_sided", "sparten_no_gb", "sparten_gb_s",
                   "sparten", "scnn"):
        assert scheme in ANALYTICAL_SCHEMES
