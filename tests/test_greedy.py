"""Unit tests for greedy-balancing plan construction (repro.balance.greedy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance.greedy import (
    collocation_helps,
    filter_chunk_densities,
    gb_h_plan,
    gb_s_plan,
    no_gb_plan,
    whole_filter_densities,
)


def random_masks(rng, n_filters=16, k=3, c=20, density=0.4):
    return rng.random((n_filters, k, k, c)) < density


class TestDensities:
    def test_whole_filter_densities(self, rng):
        masks = random_masks(rng)
        d = whole_filter_densities(masks)
        assert d.shape == (16,)
        assert np.allclose(d, masks.reshape(16, -1).mean(axis=1))

    def test_chunk_densities_shape(self, rng):
        masks = random_masks(rng, c=20)  # pads to 32 with chunk 16 -> 2 cpc
        counts = filter_chunk_densities(masks, chunk_size=16)
        assert counts.shape == (16, 9 * 2)

    def test_chunk_densities_values(self, rng):
        masks = random_masks(rng, n_filters=4, k=2, c=10)
        counts = filter_chunk_densities(masks, chunk_size=16)
        # Chunk (ky*k + kx) * 1 + 0 covers all 10 channels of that position.
        for f in range(4):
            for ky in range(2):
                for kx in range(2):
                    assert counts[f, ky * 2 + kx] == masks[f, ky, kx].sum()

    def test_chunk_padding_contributes_zero(self, rng):
        masks = random_masks(rng, c=10)  # 10 -> padded 16, single chunk
        counts = filter_chunk_densities(masks, chunk_size=16)
        assert counts.max() <= 10

    def test_rejects_bad_shape(self, rng):
        with pytest.raises(ValueError, match="F, k, k, C"):
            filter_chunk_densities(rng.random((4, 9)) < 0.5)


class TestNoGB:
    def test_identity_order(self, rng):
        plan = no_gb_plan(random_masks(rng), n_units=4)
        assert np.array_equal(plan.order, np.arange(16))
        assert not plan.collocated
        assert plan.variant == "no_gb"


class TestGBS:
    def test_order_is_density_sort(self, rng):
        masks = random_masks(rng)
        plan = gb_s_plan(masks, n_units=4)
        d = whole_filter_densities(masks)
        assert np.all(np.diff(d[plan.order]) <= 1e-12)

    def test_order_is_permutation(self, rng):
        plan = gb_s_plan(random_masks(rng), n_units=4)
        assert np.array_equal(np.sort(plan.order), np.arange(16))

    def test_pairing_covers_each_filter_once(self, rng):
        plan = gb_s_plan(random_masks(rng), n_units=4)
        used = plan.pairing[plan.pairing >= 0]
        assert np.array_equal(np.sort(used), np.arange(16))

    def test_pairs_densest_with_sparsest(self, rng):
        """Within a group, rank i pairs with rank (2U-1-i) -- Figure 6."""
        masks = random_masks(rng, n_filters=8)
        plan = gb_s_plan(masks, n_units=4)
        d = whole_filter_densities(masks)
        order = np.argsort(-d, kind="stable")
        assert plan.pairing[0, 0] == order[0]
        assert plan.pairing[0, 1] == order[7]
        assert plan.pairing[3, 0] == order[3]
        assert plan.pairing[3, 1] == order[4]

    def test_pair_densities_balanced(self, rng):
        """Pair density sums vary less than individual densities."""
        masks = random_masks(rng, n_filters=64, c=40)
        plan = gb_s_plan(masks, n_units=32)
        d = whole_filter_densities(masks)
        pair_sums = np.array(
            [d[a] + (d[b] if b >= 0 else 0.0) for a, b in plan.pairing]
        )
        assert pair_sums.std() < (2 * d).std()

    def test_odd_filter_count_leaves_unpaired(self, rng):
        plan = gb_s_plan(random_masks(rng, n_filters=7), n_units=4)
        unpaired = np.sum((plan.pairing[:, 0] >= 0) & (plan.pairing[:, 1] < 0))
        assert unpaired == 1

    def test_idle_units_marked(self, rng):
        plan = gb_s_plan(random_masks(rng, n_filters=4), n_units=4)
        idle_rows = np.sum(plan.pairing[:, 0] < 0)
        assert idle_rows == 2  # 4 filters -> 2 pairs on 4 units


class TestGBH:
    def test_chunk_pairing_shape(self, rng):
        masks = random_masks(rng, n_filters=16, c=20)
        plan = gb_h_plan(masks, n_units=4, chunk_size=16)
        n_chunks = 9 * 2
        assert plan.chunk_pairing.shape == (n_chunks, 8, 2)

    def test_each_chunk_covers_all_filters(self, rng):
        masks = random_masks(rng)
        plan = gb_h_plan(masks, n_units=4, chunk_size=16)
        for c in range(plan.chunk_pairing.shape[0]):
            used = plan.chunk_pairing[c][plan.chunk_pairing[c] >= 0]
            assert np.array_equal(np.sort(used), np.arange(16))

    def test_per_chunk_pairs_densest_with_sparsest(self, rng):
        masks = random_masks(rng, n_filters=8, c=20)
        plan = gb_h_plan(masks, n_units=4, chunk_size=16)
        counts = filter_chunk_densities(masks, chunk_size=16)
        for c in range(plan.chunk_pairing.shape[0]):
            pair0 = plan.chunk_pairing[c, 0]
            group_counts = counts[:, c]
            assert group_counts[pair0[0]] == group_counts.max()
            assert group_counts[pair0[1]] == group_counts.min()

    def test_pairings_differ_across_chunks(self, rng):
        """The reason GB-H needs the permutation network."""
        masks = random_masks(rng, n_filters=32, c=40, density=0.35)
        plan = gb_h_plan(masks, n_units=16, chunk_size=16)
        first = plan.chunk_pairing[0]
        assert any(
            not np.array_equal(first, plan.chunk_pairing[c])
            for c in range(1, plan.chunk_pairing.shape[0])
        )

    def test_groups_follow_whole_filter_sort(self, rng):
        masks = random_masks(rng, n_filters=16)
        plan = gb_h_plan(masks, n_units=2, chunk_size=16)
        d = whole_filter_densities(masks)
        order = np.argsort(-d, kind="stable")
        first_group = set(order[:4].tolist())
        chunk0_group0 = set(plan.chunk_pairing[0, :2].reshape(-1).tolist()) - {-1}
        assert chunk0_group0 <= first_group


class TestCollocationHelps:
    def test_enough_filters(self):
        assert collocation_helps(64, 32)
        assert collocation_helps(384, 32)

    def test_too_few_filters(self):
        """The paper's GoogLeNet 5x5-reduce case: 16/48 filters, 32 units."""
        assert not collocation_helps(16, 32)
        assert not collocation_helps(48, 32)

    def test_boundary(self):
        assert collocation_helps(8, 4)
        assert not collocation_helps(7, 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            collocation_helps(0, 4)


@given(
    seed=st.integers(0, 2**31),
    n_filters=st.integers(1, 40),
    n_units=st.integers(1, 16),
)
@settings(max_examples=50, deadline=None)
def test_gb_s_plan_properties(seed, n_filters, n_units):
    gen = np.random.default_rng(seed)
    masks = gen.random((n_filters, 2, 2, 12)) < 0.4
    plan = gb_s_plan(masks, n_units=n_units)
    # Order is always a permutation; pairing covers each filter exactly once.
    assert np.array_equal(np.sort(plan.order), np.arange(n_filters))
    used = plan.pairing[plan.pairing >= 0]
    assert np.array_equal(np.sort(used), np.arange(n_filters))
    # Every group block has exactly n_units rows.
    assert plan.pairing.shape[0] % n_units == 0


def _reference_pair_group(group, n_units):
    """The original per-group pairing loop, frozen as the oracle."""
    pairs = np.full((n_units, 2), -1, dtype=np.int64)
    m = group.size
    for i in range((m + 1) // 2):
        j = m - 1 - i
        pairs[i, 0] = group[i]
        if j > i:
            pairs[i, 1] = group[j]
    return pairs


def _reference_plans(masks, n_units, chunk_size):
    """The original GB-S pairing and GB-H per-(group, chunk) loops."""
    order = np.argsort(-whole_filter_densities(masks), kind="stable")
    n_filters, k, _, c = masks.shape
    cpc = -(-c // chunk_size)
    counts = np.zeros((n_filters, k * k * cpc), dtype=np.int64)
    for ky in range(k):
        for kx in range(k):
            for cz in range(cpc):
                lo = cz * chunk_size
                counts[:, (ky * k + kx) * cpc + cz] = masks[
                    :, ky, kx, lo : lo + chunk_size
                ].sum(axis=1)
    size = 2 * n_units
    groups = [order[b : b + size] for b in range(0, n_filters, size)]
    pairing = np.concatenate([_reference_pair_group(g, n_units) for g in groups])
    blocks = []
    for group in groups:
        per_chunk = np.full((counts.shape[1], n_units, 2), -1, dtype=np.int64)
        for ch in range(counts.shape[1]):
            ranked = group[np.argsort(-counts[group, ch], kind="stable")]
            per_chunk[ch] = _reference_pair_group(ranked, n_units)
        blocks.append(per_chunk)
    return order, counts, pairing, np.concatenate(blocks, axis=1)


@given(
    seed=st.integers(0, 2**31),
    n_filters=st.integers(1, 37),
    n_units=st.integers(1, 9),
    chunk_size=st.sampled_from([4, 5, 8, 12]),
    density=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_vectorised_plans_match_reference_loops(
    seed, n_filters, n_units, chunk_size, density
):
    """Odd group sizes, fewer than ``2 * n_units`` filters, heavy ties."""
    gen = np.random.default_rng(seed)
    masks = gen.random((n_filters, 2, 2, int(gen.integers(1, 14)))) < density
    order, counts, pairing, chunk_pairing = _reference_plans(
        masks, n_units, chunk_size
    )
    assert np.array_equal(filter_chunk_densities(masks, chunk_size), counts)
    s_plan = gb_s_plan(masks, n_units)
    h_plan = gb_h_plan(masks, n_units, chunk_size=chunk_size)
    h_from_counts = gb_h_plan(masks, n_units, chunk_size, chunk_nnz=counts)
    s_from_counts = gb_s_plan(masks, n_units, chunk_nnz=counts)
    for plan in (s_plan, h_plan, h_from_counts, s_from_counts):
        assert np.array_equal(plan.order, order)
    assert np.array_equal(s_plan.pairing, pairing)
    assert np.array_equal(s_from_counts.pairing, pairing)
    assert np.array_equal(h_plan.chunk_pairing, chunk_pairing)
    assert np.array_equal(h_from_counts.chunk_pairing, chunk_pairing)
