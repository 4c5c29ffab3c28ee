"""Tests for the SparTen cycle simulator, including exact equivalence with
the step-wise functional model (the golden cross-check)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.host import Host
from repro.balance.greedy import gb_s_plan
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import synthesize_layer
from repro.sim.config import HardwareConfig
from repro.sim.kernels import compute_chunk_work
from repro.sim.sparten import simulate_sparten, sparten_variant_plan


@pytest.fixture
def work(tiny_data, mini_cfg):
    return compute_chunk_work(tiny_data, mini_cfg, need_counts=True)


def functional_cluster_cycles(data, cfg, mode, **kwargs):
    """Per-cluster busy cycles from the functional Host."""
    host = Host(
        n_clusters=cfg.n_clusters,
        units_per_cluster=cfg.units_per_cluster,
        chunk_size=cfg.chunk_size,
        bisection_width=cfg.bisection_width,
    )
    _, stats = host.run_conv(data, mode=mode, **kwargs)
    return np.array([s.total_cycles for s in stats.per_cluster]), stats


class TestFunctionalEquivalence:
    """The vectorised simulator must reproduce the functional model's
    cycle counts exactly (plain and static-paired modes share identical
    barrier semantics; GB-H differs only in the permute-throughput
    model, checked separately)."""

    def test_no_gb_cycles_match_functional(self, tiny_data, mini_cfg, work):
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, variant="no_gb", data=tiny_data, work=work
        )
        functional, _ = functional_cluster_cycles(tiny_data, mini_cfg, "plain")
        assert result.cycles == functional.max()

    def test_gb_s_cycles_match_functional(self, tiny_data, mini_cfg, work):
        plan = gb_s_plan(tiny_data.filter_masks, mini_cfg.units_per_cluster)
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, variant="gb_s", data=tiny_data, work=work
        )
        functional, _ = functional_cluster_cycles(
            tiny_data, mini_cfg, "paired", pairing=plan.pairing
        )
        assert result.cycles == functional.max()

    def test_no_gb_useful_macs_match_functional(self, tiny_data, mini_cfg, work):
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, variant="no_gb", data=tiny_data, work=work
        )
        _, stats = functional_cluster_cycles(tiny_data, mini_cfg, "plain")
        assert result.breakdown.nonzero_macs == stats.useful_macs

    def test_no_gb_intra_loss_matches_functional(self, tiny_data, mini_cfg, work):
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, variant="no_gb", data=tiny_data, work=work
        )
        _, stats = functional_cluster_cycles(tiny_data, mini_cfg, "plain")
        assert result.breakdown.intra_loss == stats.idle_unit_cycles

    def test_strided_layer_matches_functional(self, strided_spec, mini_cfg):
        data = synthesize_layer(strided_spec, seed=3)
        work = compute_chunk_work(data, mini_cfg, need_counts=True)
        result = simulate_sparten(
            strided_spec, mini_cfg, variant="no_gb", data=data, work=work
        )
        functional, _ = functional_cluster_cycles(data, mini_cfg, "plain")
        assert result.cycles == functional.max()


def sim_cluster_cycles(result, cfg):
    """Per-cluster busy cycles recovered from a simulated layer's counters."""
    counters = result.counters
    return counters.total_cycles - counters.imbalance_idle / cfg.units_per_cluster


@st.composite
def conv_cases(draw):
    """A small random layer and machine that the functional Host can run.

    Channel counts leave partial chunks, filter counts need not divide
    the units, and every cluster owns at least four output positions
    (the functional output layout sizes each cluster's region from its
    share of the output).
    """
    units = draw(st.sampled_from([2, 4]))
    n_clusters = draw(st.integers(1, 3))
    chunk_size = draw(st.sampled_from([8, 16]))
    kernel = draw(st.sampled_from([1, 3]))
    spec = ConvLayerSpec(
        name="prop",
        in_height=draw(st.integers(4, 8)),
        in_width=draw(st.integers(4, 8)),
        in_channels=draw(st.integers(1, 2 * chunk_size + 3)),
        kernel=kernel,
        n_filters=draw(st.integers(4, 11)),
        stride=draw(st.integers(1, 2)),
        padding=draw(st.integers(0, kernel // 2)),
        input_density=draw(st.floats(0.3, 1.0)),
        filter_density=draw(st.floats(0.05, 1.0)),
    )
    assume(spec.out_height * spec.out_width >= 4 * n_clusters)
    cfg = HardwareConfig(
        name="prop", n_clusters=n_clusters, units_per_cluster=units,
        chunk_size=chunk_size, bisection_width=1,
    )
    return spec, cfg, draw(st.integers(0, 2**16))


class TestFunctionalProperty:
    """``arch/`` and ``sim/`` agree cluster by cluster on random layers."""

    @given(case=conv_cases())
    @settings(max_examples=20, deadline=None)
    def test_per_cluster_cycles_match_functional(self, case):
        spec, cfg, seed = case
        data = synthesize_layer(spec, seed=seed)
        work = compute_chunk_work(data, cfg, need_counts=True)
        pairing = gb_s_plan(data.filter_masks, cfg.units_per_cluster).pairing
        for sided, variant, mode, kwargs in (
            ("two", "no_gb", "plain", {}),
            ("two", "gb_s", "paired", {"pairing": pairing}),
            ("one", "no_gb", "plain", {"one_sided": True}),
        ):
            result = simulate_sparten(
                spec, cfg, variant=variant, sided=sided, data=data, work=work
            )
            functional, _ = functional_cluster_cycles(data, cfg, mode, **kwargs)
            np.testing.assert_array_equal(
                sim_cluster_cycles(result, cfg), functional, err_msg=result.scheme
            )


class TestBreakdownIdentity:
    def test_components_sum_to_machine_cycles(self, tiny_data, mini_cfg, work):
        """nonzero + zero + intra + inter == cycles x total MACs."""
        for variant in ("no_gb", "gb_s", "gb_h"):
            result = simulate_sparten(
                tiny_data.spec, mini_cfg, variant=variant, data=tiny_data, work=work
            )
            assert result.breakdown.total == pytest.approx(
                result.cycles * mini_cfg.total_macs
            )

    def test_one_sided_identity(self, tiny_data, mini_cfg, work):
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, sided="one", data=tiny_data, work=work
        )
        assert result.breakdown.total == pytest.approx(
            result.cycles * mini_cfg.total_macs
        )

    def test_two_sided_has_no_zero_compute(self, tiny_data, mini_cfg, work):
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, variant="gb_h", data=tiny_data, work=work
        )
        assert result.breakdown.zero_macs == 0.0

    def test_one_sided_zero_compute_is_filter_zeros(self, tiny_data, mini_cfg, work):
        """One-sided ops = input nnz x filters; zeros = ops - matches."""
        result = simulate_sparten(
            tiny_data.spec, mini_cfg, sided="one", data=tiny_data, work=work
        )
        matches = float(np.sum(work.match_sums))
        total_ops = float(work.input_pop.sum()) * tiny_data.spec.n_filters
        assert result.breakdown.nonzero_macs == pytest.approx(matches)
        assert result.breakdown.zero_macs == pytest.approx(total_ops - matches)


class TestVariantOrdering:
    def test_gb_improves_on_imbalanced_filters(self, mini_cfg):
        """On spread-density filters: gb_h <= gb_s <= no_gb cycles."""
        spec = ConvLayerSpec(
            name="spread", in_height=10, in_width=10, in_channels=30,
            kernel=3, n_filters=16, padding=1,
            input_density=0.5, filter_density=0.35,
        )
        data = synthesize_layer(spec, seed=5, filter_spread=0.5)
        work = compute_chunk_work(data, mini_cfg, need_counts=True)
        cycles = {
            v: simulate_sparten(spec, mini_cfg, variant=v, data=data, work=work).cycles
            for v in ("no_gb", "gb_s", "gb_h")
        }
        assert cycles["gb_s"] < cycles["no_gb"]
        assert cycles["gb_h"] <= cycles["gb_s"] * 1.05  # small permute cost allowed

    def test_two_sided_beats_one_sided(self, tiny_data, mini_cfg, work):
        two = simulate_sparten(
            tiny_data.spec, mini_cfg, variant="no_gb", data=tiny_data, work=work
        )
        one = simulate_sparten(
            tiny_data.spec, mini_cfg, sided="one", data=tiny_data, work=work
        )
        assert two.cycles < one.cycles

    def test_auto_disable_collocation_changes_execution(self, mini_cfg):
        """The static check switches to sorted-but-unpaired execution.

        With 5 filters on 4 units, pairing runs one pass of 3 pairs
        (barriers per chunk once) while the unpaired fallback runs two
        filter groups (barriers per chunk twice).
        """
        spec = ConvLayerSpec(
            name="few", in_height=10, in_width=10, in_channels=30,
            kernel=3, n_filters=5, padding=1,  # 5 < 2 x 4 units
            input_density=0.5, filter_density=0.35,
        )
        data = synthesize_layer(spec, seed=1, filter_spread=0.5)
        work = compute_chunk_work(data, mini_cfg, need_counts=True)
        paper = simulate_sparten(
            spec, mini_cfg, variant="gb_s", data=data, work=work
        )
        checked = simulate_sparten(
            spec, mini_cfg, variant="gb_s", data=data, work=work,
            auto_disable_collocation=True,
        )
        assert checked.extras["barriers"] == 2 * paper.extras["barriers"]
        assert checked.cycles != paper.cycles


class TestSampling:
    def test_sampled_cycles_close_to_exact(self, mini_cfg):
        spec = ConvLayerSpec(
            name="big", in_height=24, in_width=24, in_channels=20,
            kernel=3, n_filters=8, padding=1,
            input_density=0.5, filter_density=0.4,
        )
        data = synthesize_layer(spec, seed=0)
        exact_work = compute_chunk_work(data, mini_cfg, need_counts=True)
        exact = simulate_sparten(
            spec, mini_cfg, variant="no_gb", data=data, work=exact_work
        )
        sampled_cfg = mini_cfg.with_sampling(40)
        sampled_work = compute_chunk_work(data, sampled_cfg, need_counts=True)
        sampled = simulate_sparten(
            spec, sampled_cfg, variant="no_gb", data=data, work=sampled_work
        )
        assert sampled.cycles == pytest.approx(exact.cycles, rel=0.1)


class TestScheming:
    def test_scheme_names(self, tiny_data, mini_cfg, work):
        assert simulate_sparten(
            tiny_data.spec, mini_cfg, variant="gb_h", data=tiny_data, work=work
        ).scheme == "sparten"
        assert simulate_sparten(
            tiny_data.spec, mini_cfg, sided="one", data=tiny_data, work=work
        ).scheme == "one_sided"

    def test_invalid_sided(self, tiny_data, mini_cfg):
        with pytest.raises(ValueError, match="sided"):
            simulate_sparten(tiny_data.spec, mini_cfg, sided="three")

    def test_invalid_variant(self, tiny_data, mini_cfg):
        with pytest.raises(ValueError, match="variant"):
            sparten_variant_plan(tiny_data, mini_cfg, "magic")

    def test_batch_accumulates(self, tiny_spec):
        cfg1 = HardwareConfig(name="b1", n_clusters=2, units_per_cluster=4,
                              chunk_size=16, batch=1)
        cfg2 = HardwareConfig(name="b2", n_clusters=2, units_per_cluster=4,
                              chunk_size=16, batch=2)
        one = simulate_sparten(tiny_spec, cfg1, variant="no_gb", seed=0)
        two = simulate_sparten(tiny_spec, cfg2, variant="no_gb", seed=0)
        assert two.cycles > one.cycles


class TestOneSidedFunctionalEquivalence:
    def test_one_sided_cycles_match_functional(self, tiny_data, mini_cfg, work):
        """The one-sided cycle model equals the functional one-sided run."""
        from repro.arch.host import Host

        result = simulate_sparten(
            tiny_data.spec, mini_cfg, sided="one", data=tiny_data, work=work
        )
        host = Host(
            n_clusters=mini_cfg.n_clusters,
            units_per_cluster=mini_cfg.units_per_cluster,
            chunk_size=mini_cfg.chunk_size,
        )
        out, stats = host.run_conv(tiny_data, mode="plain", one_sided=True)
        functional = max(s.total_cycles for s in stats.per_cluster)
        assert result.cycles == functional
        # And the numeric output is still exact.
        from repro.nets.reference import conv2d_reference

        ref = conv2d_reference(
            tiny_data.input_map, tiny_data.filters,
            stride=tiny_data.spec.stride, padding=tiny_data.spec.padding,
        )
        assert np.allclose(out, ref)
