"""Unit tests for magnitude pruning (repro.nets.pruning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nets.pruning import (
    per_filter_densities,
    prune_filters,
    prune_to_density,
)


class TestPruneToDensity:
    def test_exact_survivor_count(self, rng):
        t = rng.standard_normal(1000)
        pruned = prune_to_density(t, 0.37)
        assert np.count_nonzero(pruned) == 370

    def test_keeps_largest_magnitudes(self, rng):
        t = rng.standard_normal(100)
        pruned = prune_to_density(t, 0.2)
        kept = np.abs(t[pruned != 0])
        dropped = np.abs(t[(pruned == 0) & (t != 0)])
        assert kept.min() >= dropped.max()

    def test_density_one_is_identity(self, rng):
        t = rng.standard_normal(50)
        assert np.array_equal(prune_to_density(t, 1.0), t)

    def test_density_zero(self, rng):
        assert np.count_nonzero(prune_to_density(rng.standard_normal(50), 0.0)) == 0

    def test_preserves_shape(self, rng):
        t = rng.standard_normal((4, 3, 3, 8))
        assert prune_to_density(t, 0.5).shape == t.shape

    def test_does_not_mutate_input(self, rng):
        t = rng.standard_normal(20)
        copy = t.copy()
        prune_to_density(t, 0.3)
        assert np.array_equal(t, copy)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            prune_to_density(np.ones(4), 1.5)


class TestPerFilterDensities:
    def test_mean_hits_target(self, rng):
        d = per_filter_densities(256, 0.35, spread=0.3, rng=rng)
        assert d.mean() == pytest.approx(0.35, abs=1e-6)

    def test_spread_produces_variation(self, rng):
        d = per_filter_densities(256, 0.35, spread=0.3, rng=rng)
        assert d.max() - d.min() > 0.1

    def test_zero_spread_is_uniform(self, rng):
        d = per_filter_densities(64, 0.4, spread=0.0, rng=rng)
        assert np.allclose(d, 0.4)

    def test_bounds(self, rng):
        d = per_filter_densities(512, 0.2, spread=1.0, rng=rng)
        assert d.min() >= 0.01
        assert d.max() <= 1.0

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            per_filter_densities(0, 0.5)
        with pytest.raises(ValueError):
            per_filter_densities(4, 0.0)
        with pytest.raises(ValueError):
            per_filter_densities(4, 0.5, spread=-1.0)


class TestPruneFilters:
    def test_equals_per_filter_prune_to_density(self):
        filters = np.random.default_rng(0).standard_normal((40, 3, 3, 7))
        filters[3, 0, 0, :3] = 0.0  # exact zeros
        filters[5] = 0.7  # one filter of ties
        filters[6, 1] = -0.7  # ties of opposite sign
        densities = per_filter_densities(40, 0.35, 0.8, np.random.default_rng(1))
        want = np.stack(
            [prune_to_density(f, float(d)) for f, d in zip(filters, densities)]
        )
        got = prune_filters(filters, 0.35, spread=0.8, rng=np.random.default_rng(1))
        assert got.tobytes() == want.tobytes()

    def test_aggregate_density_close_to_target(self, rng):
        filters = rng.standard_normal((128, 3, 3, 64))
        pruned = prune_filters(filters, 0.35, rng=rng)
        measured = np.count_nonzero(pruned) / pruned.size
        assert measured == pytest.approx(0.35, abs=0.02)

    def test_filters_vary_in_density(self, rng):
        filters = rng.standard_normal((64, 3, 3, 32))
        pruned = prune_filters(filters, 0.4, rng=rng)
        densities = (pruned != 0).reshape(64, -1).mean(axis=1)
        assert densities.std() > 0.02  # the Figure 14 spread exists

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError, match="filter bank"):
            prune_filters(rng.standard_normal(10), 0.5)


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 500),
    density=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_prune_count_property(seed, n, density):
    t = np.random.default_rng(seed).standard_normal(n)
    pruned = prune_to_density(t, density)
    assert np.count_nonzero(pruned) == int(round(density * n))
    # Survivors keep their original values.
    mask = pruned != 0
    assert np.array_equal(pruned[mask], t[mask])
