"""Unit tests for the SCNN simulator (Cartesian product, tiling, barriers)."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import synthesize_layer
from repro.sim.config import HardwareConfig
from repro.sim.dense import simulate_dense
from repro.nets.synthesis import synthesize_masks
from repro.sim.scnn import _scnn_image_stats, scnn_tile_plan, simulate_scnn


def spec(**kwargs) -> ConvLayerSpec:
    defaults = dict(
        name="scnn_t", in_height=12, in_width=12, in_channels=16,
        kernel=3, n_filters=12, padding=1,
        input_density=0.4, filter_density=0.4,
    )
    defaults.update(kwargs)
    return ConvLayerSpec(**defaults)


class TestTilePlan:
    def test_max_tile_cap(self, mini_cfg):
        # mini_cfg: grid 2x2, max tile 3; 12/2 = 6 > 3 -> cap at 3.
        tile_h, tile_w, n_ty, n_tx = scnn_tile_plan(spec(), mini_cfg)
        assert (tile_h, tile_w) == (3, 3)
        assert (n_ty, n_tx) == (4, 4)

    def test_small_map_shrinks_tiles(self, mini_cfg):
        s = spec(in_height=4, in_width=4)
        tile_h, tile_w, n_ty, n_tx = scnn_tile_plan(s, mini_cfg)
        assert tile_h == 2  # ceil(4 / 2) < max tile
        assert n_ty * n_tx == 4

    def test_edge_tiles_truncated(self, mini_cfg):
        s = spec(in_height=11, in_width=11)
        tile_h, _tile_w, n_ty, _ = scnn_tile_plan(s, mini_cfg)
        assert n_ty * tile_h >= 11
        assert (n_ty - 1) * tile_h < 11  # last row of tiles is partial


class TestVariants:
    @pytest.fixture
    def data(self):
        return synthesize_layer(spec(), seed=0)

    def test_variant_ordering(self, data, mini_cfg):
        """Two-sided < one-sided < dense cycles (each exploits more zeros)."""
        two = simulate_scnn(spec(), mini_cfg, variant="two", data=data)
        one = simulate_scnn(spec(), mini_cfg, variant="one", data=data)
        dense = simulate_scnn(spec(), mini_cfg, variant="dense", data=data)
        assert two.cycles < one.cycles < dense.cycles

    def test_scheme_names(self, data, mini_cfg):
        assert simulate_scnn(spec(), mini_cfg, variant="two", data=data).scheme == "scnn"
        assert (
            simulate_scnn(spec(), mini_cfg, variant="one", data=data).scheme
            == "scnn_one_sided"
        )
        assert (
            simulate_scnn(spec(), mini_cfg, variant="dense", data=data).scheme
            == "scnn_dense"
        )

    def test_invalid_variant(self, mini_cfg):
        with pytest.raises(ValueError, match="variant"):
            simulate_scnn(spec(), mini_cfg, variant="both")


class TestBreakdown:
    def test_identity(self, mini_cfg):
        data = synthesize_layer(spec(), seed=0)
        result = simulate_scnn(spec(), mini_cfg, variant="two", data=data)
        assert result.breakdown.total == pytest.approx(
            result.cycles * result.total_macs
        )

    def test_two_sided_unit_stride_has_no_zero_compute(self, mini_cfg):
        data = synthesize_layer(spec(), seed=0)
        result = simulate_scnn(spec(), mini_cfg, variant="two", data=data)
        assert result.breakdown.zero_macs == 0.0

    def test_intra_pe_loss_from_fractional_arrays(self, mini_cfg):
        """ceil(I/4) x ceil(W/4) wastes multiplier slots (Section 2.1.1)."""
        data = synthesize_layer(spec(), seed=0)
        result = simulate_scnn(spec(), mini_cfg, variant="two", data=data)
        assert result.breakdown.intra_loss > 0

    def test_inter_pe_loss_from_tile_imbalance(self, mini_cfg):
        data = synthesize_layer(spec(in_height=11, in_width=11), seed=0)
        result = simulate_scnn(
            spec(in_height=11, in_width=11), mini_cfg, variant="two", data=data
        )
        assert result.breakdown.inter_loss > 0

    def test_useful_macs_close_to_true_matches(self, mini_cfg):
        """SCNN's Cartesian products = the layer's useful MACs (stride 1)."""
        from repro.sim.kernels import compute_chunk_work

        s = spec()
        data = synthesize_layer(s, seed=0)
        result = simulate_scnn(s, mini_cfg, variant="two", data=data)
        work = compute_chunk_work(data, mini_cfg, need_counts=False)
        true_matches = float(work.match_sums.sum())
        # Tile-edge products can overshoot slightly (halo effects).
        assert result.breakdown.nonzero_macs == pytest.approx(true_matches, rel=0.35)
        assert result.breakdown.nonzero_macs >= true_matches


class TestStridePenalty:
    def test_non_unit_stride_wastes_cartesian_products(self, mini_cfg):
        """For stride s only ~1/s^2 of products are useful (Section 2.1.1)."""
        s = spec(in_height=12, in_width=12, stride=2)
        data = synthesize_layer(s, seed=0)
        result = simulate_scnn(s, mini_cfg, variant="two", data=data)
        assert result.breakdown.zero_macs > 0
        waste_fraction = result.breakdown.zero_macs / (
            result.breakdown.zero_macs + result.breakdown.nonzero_macs
        )
        assert waste_fraction == pytest.approx(0.75, abs=0.01)

    def test_scnn_collapses_vs_dense_on_stride(self):
        """AlexNet Layer0's phenomenon: stride-4 destroys SCNN's advantage.

        Uses a MAC-count-matched configuration (4 clusters x 16 units =
        2x2 PEs x 16 multipliers) per the paper's equal-resources rule.
        """
        cfg = HardwareConfig(
            name="matched", n_clusters=4, units_per_cluster=16,
            chunk_size=16, scnn_pe_grid=(2, 2), scnn_max_tile=3,
        )
        s = spec(in_height=12, in_width=12, stride=2, input_density=0.9,
                 filter_density=0.9)
        data = synthesize_layer(s, seed=0)
        scnn = simulate_scnn(s, cfg, variant="two", data=data)
        dense = simulate_dense(s, cfg, data=data)
        assert scnn.total_macs == cfg.total_macs
        assert scnn.cycles > dense.cycles


class TestBatch:
    def test_batch_accumulates(self):
        cfg1 = HardwareConfig(name="b1", n_clusters=2, units_per_cluster=4,
                              chunk_size=16, scnn_pe_grid=(2, 2),
                              scnn_max_tile=3, batch=1)
        cfg2 = HardwareConfig(name="b2", n_clusters=2, units_per_cluster=4,
                              chunk_size=16, scnn_pe_grid=(2, 2),
                              scnn_max_tile=3, batch=2)
        one = simulate_scnn(spec(), cfg1)
        two = simulate_scnn(spec(), cfg2)
        assert two.cycles > one.cycles


def _reference_scnn_stats(data, cfg, variant):
    """The original per-tile / per-group loops and ``np.add.at`` PE scatter.

    Frozen as the oracle for the pad-and-reshape closed form; returns the
    image statistics plus the per-PE useful products behind ``busy``.
    """
    spec = data.spec
    n_pes = cfg.scnn_n_pes
    mult_in, mult_w = cfg.scnn_mult_rows, cfg.scnn_mult_cols
    tile_h, tile_w, n_ty, n_tx = scnn_tile_plan(spec, cfg)
    c = spec.in_channels
    group = cfg.scnn_output_group
    n_groups = int(np.ceil(spec.n_filters / group))
    tile_nnz = np.zeros((n_ty * n_tx, c), dtype=np.int64)
    tile_cells = np.zeros(n_ty * n_tx, dtype=np.int64)
    for ty in range(n_ty):
        for tx in range(n_tx):
            block = data.input_mask[
                ty * tile_h : (ty + 1) * tile_h, tx * tile_w : (tx + 1) * tile_w
            ]
            tile_nnz[ty * n_tx + tx] = block.sum(axis=(0, 1))
            tile_cells[ty * n_tx + tx] = block.shape[0] * block.shape[1]
    if variant == "dense":
        tile_counts = np.broadcast_to(tile_cells[:, None], tile_nnz.shape)
    else:
        tile_counts = tile_nnz
    w_nnz = data.filter_masks.sum(axis=(1, 2))
    group_w_nnz = np.zeros((n_groups, c), dtype=np.int64)
    group_w_all = np.zeros((n_groups, c), dtype=np.int64)
    for g in range(n_groups):
        members = list(range(g * group, min((g + 1) * group, spec.n_filters)))
        group_w_nnz[g] = w_nnz[members].sum(axis=0)
        group_w_all[g] = len(members) * spec.kernel * spec.kernel
    group_weights = group_w_nnz if variant == "two" else group_w_all
    pe_of_tile = np.arange(n_ty * n_tx) % n_pes
    pe_ceil = np.zeros((n_pes, c), dtype=np.int64)
    np.add.at(pe_ceil, pe_of_tile, np.ceil(tile_counts / mult_in).astype(np.int64))
    sum_ceil_w = np.ceil(group_weights / mult_w).astype(np.int64).sum(axis=0)
    max_pe = pe_ceil.max(axis=0)
    in_nz_total = tile_nnz.sum(axis=0).astype(np.float64)
    w_nz_total = group_w_nnz.sum(axis=0).astype(np.float64)
    products = float(
        np.dot(tile_counts.sum(axis=0), group_weights.sum(axis=0).astype(np.float64))
    )
    both_nz = float(np.dot(in_nz_total, w_nz_total))
    stride_factor = 1.0 / (spec.stride * spec.stride)
    useful = both_nz * stride_factor
    in_nz_pe = np.zeros((n_pes, c), dtype=np.float64)
    np.add.at(in_nz_pe, pe_of_tile, tile_nnz.astype(np.float64))
    return {
        "cycles": float(np.dot(max_pe, sum_ceil_w)),
        "useful": useful,
        "issued": float(np.dot(pe_ceil.sum(axis=0), sum_ceil_w)) * mult_in * mult_w,
        "inter": float(np.dot(n_pes * max_pe - pe_ceil.sum(axis=0), sum_ceil_w))
        * mult_in
        * mult_w,
        "stride_waste": both_nz - useful,
        "operand_zero": products - both_nz,
        "busy": (in_nz_pe @ w_nz_total) * stride_factor,
    }


@given(
    seed=st.integers(0, 2**31),
    height=st.integers(3, 17),
    width=st.integers(3, 17),
    channels=st.integers(1, 9),
    n_filters=st.integers(1, 21),
    stride=st.integers(1, 3),
    grid=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 3)]),
    max_tile=st.integers(1, 5),
    group=st.sampled_from([1, 3, 8]),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_reference_loops(
    seed, height, width, channels, n_filters, stride, grid, max_tile, group
):
    """Partial edge tiles, tile counts off the PE grid, partial groups."""
    s = ConvLayerSpec(
        name="ref", in_height=height, in_width=width, in_channels=channels,
        kernel=3, n_filters=n_filters, stride=stride, padding=1,
        input_density=0.5, filter_density=0.5,
    )
    cfg = HardwareConfig(
        name="ref", n_clusters=2, units_per_cluster=4, chunk_size=16,
        scnn_pe_grid=grid, scnn_max_tile=max_tile, scnn_output_group=group,
    )
    data = synthesize_masks(s, seed=seed % 1000)
    # A second tiling over the same masks: the histograms are memoised
    # on the masks per tile plan and shared by the three variants.
    other = dataclasses.replace(cfg, scnn_max_tile=max_tile % 5 + 1)
    for cfg, variant in itertools.product((cfg, other), ("two", "one", "dense")):
        got = _scnn_image_stats(data, cfg, variant)
        want = _reference_scnn_stats(data, cfg, variant)
        for key in ("cycles", "useful", "issued", "inter", "stride_waste",
                    "operand_zero"):
            assert got[key] == want[key], key
        assert np.array_equal(got["counters"].busy, want["busy"])
