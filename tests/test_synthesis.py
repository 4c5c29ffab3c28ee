"""Unit tests for workload synthesis (repro.nets.synthesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from repro.nets.layers import ConvLayerSpec
from repro.nets.models import alexnet, all_networks
from repro.nets.pruning import (
    DEFAULT_FILTER_SPREAD,
    per_filter_densities,
    prune_to_density,
)
from repro.nets.synthesis import (
    LayerData,
    LayerMasks,
    _quantile_threshold,
    _sample_filters,
    _sample_input,
    _stable_seed,
    synthesize_filters,
    synthesize_input,
    synthesize_layer,
    synthesize_masks,
)


def spec(**kwargs) -> ConvLayerSpec:
    defaults = dict(
        name="synth", in_height=20, in_width=20, in_channels=32,
        kernel=3, n_filters=24, padding=1,
        input_density=0.4, filter_density=0.35,
    )
    defaults.update(kwargs)
    return ConvLayerSpec(**defaults)


class TestSynthesizeLayer:
    def test_densities_near_target(self):
        data = synthesize_layer(spec(), seed=0)
        assert data.measured_input_density == pytest.approx(0.4, abs=0.03)
        assert data.measured_filter_density == pytest.approx(0.35, abs=0.03)

    def test_deterministic(self):
        a = synthesize_layer(spec(), seed=3)
        b = synthesize_layer(spec(), seed=3)
        assert np.array_equal(a.input_map, b.input_map)
        assert np.array_equal(a.filters, b.filters)

    def test_different_seeds_differ(self):
        a = synthesize_layer(spec(), seed=0)
        b = synthesize_layer(spec(), seed=1)
        assert not np.array_equal(a.input_map, b.input_map)

    def test_filters_shared_across_batch_seeds(self):
        """Images in a batch share weights (filters depend on the layer only)."""
        a = synthesize_layer(spec(), seed=0)
        b = synthesize_layer(spec(), seed=5)
        assert np.array_equal(a.filters, b.filters)

    def test_different_layers_get_different_filters(self):
        a = synthesize_layer(spec(name="A"), seed=0)
        b = synthesize_layer(spec(name="B"), seed=0)
        assert not np.array_equal(a.filters, b.filters)

    def test_shapes(self):
        s = spec(in_height=9, in_width=11, in_channels=5, kernel=3, n_filters=7)
        data = synthesize_layer(s, seed=0)
        assert data.input_map.shape == (9, 11, 5)
        assert data.filters.shape == (7, 3, 3, 5)

    def test_dense_input_special_case(self):
        """The first layer's 100%-dense image stays fully dense."""
        data = synthesize_layer(spec(input_density=1.0), seed=0)
        assert data.measured_input_density == 1.0

    def test_masks(self):
        data = synthesize_layer(spec(), seed=0)
        assert np.array_equal(data.input_mask, data.input_map != 0)
        assert np.array_equal(data.filter_masks, data.filters != 0)


class TestSynthesizeInput:
    def test_relu_like_values_nonnegative(self):
        x = synthesize_input(spec(), np.random.default_rng(0))
        assert (x >= 0).all()

    def test_correlated_sparsity_is_blobby(self):
        """Spatial correlation: neighbouring occupancy agrees more than iid."""
        s = spec(in_height=40, in_width=40, in_channels=8, input_density=0.4)
        corr = synthesize_input(s, np.random.default_rng(0), correlated=True) != 0
        iid = synthesize_input(s, np.random.default_rng(0), correlated=False) != 0

        def neighbour_agreement(mask):
            return float((mask[:-1] == mask[1:]).mean())

        assert neighbour_agreement(corr) > neighbour_agreement(iid) + 0.05

    def test_zero_density(self):
        x = synthesize_input(spec(input_density=0.0), np.random.default_rng(0))
        assert np.count_nonzero(x) == 0

    def test_density_accuracy_uncorrelated(self):
        s = spec(in_height=30, in_width=30, input_density=0.25)
        x = synthesize_input(s, np.random.default_rng(0), correlated=False)
        assert np.count_nonzero(x) / x.size == pytest.approx(0.25, abs=0.02)


class TestSynthesizeFilters:
    def test_density(self):
        f = synthesize_filters(spec(), np.random.default_rng(0))
        assert np.count_nonzero(f) / f.size == pytest.approx(0.35, abs=0.03)

    def test_dense_filters(self):
        f = synthesize_filters(spec(filter_density=1.0), np.random.default_rng(0))
        assert np.count_nonzero(f) == f.size


class TestLayerDataValidation:
    def test_input_shape_mismatch(self):
        s = spec()
        with pytest.raises(ValueError, match="input shape"):
            LayerData(spec=s, input_map=np.zeros((2, 2, 2)),
                      filters=np.zeros((24, 3, 3, 32)))

    def test_filter_shape_mismatch(self):
        s = spec()
        with pytest.raises(ValueError, match="filter shape"):
            LayerData(spec=s, input_map=np.zeros((20, 20, 32)),
                      filters=np.zeros((24, 5, 5, 32)))


def _reference_layer(s, seed=0, correlated=True, filter_spread=DEFAULT_FILTER_SPREAD):
    """The dense synthesis before the mask path, frozen: per-filter
    ``prune_to_density`` and an ``np.quantile`` threshold."""
    frng = np.random.default_rng(_stable_seed(s.name, "filters"))
    weights = frng.standard_normal((s.n_filters, s.kernel, s.kernel, s.in_channels))
    filters = weights
    if s.filter_density < 1.0:
        d = per_filter_densities(s.n_filters, s.filter_density, filter_spread, frng)
        filters = np.stack([prune_to_density(w, float(x)) for w, x in zip(weights, d)])
    irng = np.random.default_rng(_stable_seed(s.name, f"input{seed}"))
    shape = (s.in_height, s.in_width, s.in_channels)
    magnitudes = np.abs(irng.standard_normal(shape))
    if s.input_density >= 1.0:
        return filters, magnitudes
    if s.input_density <= 0.0:
        return filters, np.zeros(shape)
    field = irng.standard_normal(shape)
    if correlated and min(s.in_height, s.in_width) >= 4:
        field = ndimage.gaussian_filter(field, sigma=(1.5, 1.5, 0.0), mode="wrap")
    threshold = np.quantile(field, 1.0 - s.input_density)
    return filters, np.where(field > threshold, magnitudes, 0.0)


def _assert_masks_match(s, seed=0, **kwargs):
    got = synthesize_masks(s, seed=seed, **kwargs)
    want = LayerMasks.of(synthesize_layer(s, seed=seed, **kwargs))
    assert got.spec == s
    for name in ("input_mask", "filter_masks"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == bool and a.shape == b.shape
        assert np.array_equal(a, b), name


def _assert_matches_reference(s, seed=0, **kwargs):
    """Dense tensors and masks both equal the frozen reference's, bit for bit."""
    _assert_masks_match(s, seed, **kwargs)
    data = synthesize_layer(s, seed=seed, **kwargs)
    filters, input_map = _reference_layer(s, seed, **kwargs)
    assert data.filters.tobytes() == filters.tobytes()
    assert data.input_map.tobytes() == input_map.tobytes()


class TestSynthesizeMasks:
    """``synthesize_masks`` is the occupancy of ``synthesize_layer``, bit for bit."""

    @pytest.mark.parametrize(
        "net, layer",
        [(net.name, s.name) for net in all_networks() for s in net.layers],
    )
    def test_every_table3_layer(self, net, layer):
        (network,) = [n for n in all_networks() if n.name == net]
        _assert_masks_match(network.layer(layer), seed=0)

    def test_another_image_seed(self):
        _assert_matches_reference(alexnet().layers[2], seed=1)

    def test_correlated_map(self):
        _assert_matches_reference(spec(), seed=4)

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_input_density_extremes(self, density):
        _assert_matches_reference(spec(input_density=density))

    def test_small_map_takes_the_iid_path(self):
        _assert_matches_reference(spec(in_height=3, in_width=7, padding=0))

    def test_uncorrelated(self):
        _assert_matches_reference(spec(), correlated=False)

    def test_dense_filters(self):
        _assert_matches_reference(spec(filter_density=1.0))

    def test_filters_keeping_nothing_and_everything(self):
        # Two weights per filter: keep = round(2 * d) is 0 below d = 0.25
        # and the whole filter above d = 0.75, and a wide spread hits both.
        s = spec(kernel=1, in_channels=2, n_filters=64, padding=0,
                 filter_density=0.5)
        filters = synthesize_layer(s, seed=0, filter_spread=0.8).filters
        per_filter = np.count_nonzero(filters.reshape(64, -1), axis=1)
        assert (per_filter == 0).any() and (per_filter == 2).any()
        _assert_matches_reference(s, filter_spread=0.8)


class _ZeroingRng:
    """A generator whose normal draws hold exact zeros, which real ones
    (almost) never do: a zero draw must never count as occupied."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size=None, out=None):
        x = self._rng.standard_normal(size, out=out)
        x.reshape(-1)[::5] = 0.0
        return x

    def normal(self, *args, **kwargs):
        return self._rng.normal(*args, **kwargs)


class TestZeroDraws:
    @pytest.mark.parametrize(
        "s",
        [
            spec(),
            # Every fifth draw is zero, so a filter keeping over 80 % of
            # its weights would keep zeros without the != 0 test.
            spec(filter_density=0.95),
            spec(input_density=1.0, filter_density=1.0),
        ],
        ids=["sparse", "filters-keep-zeros", "dense"],
    )
    def test_masks_exclude_zero_draws(self, s):
        dense_in = synthesize_input(s, _ZeroingRng(0))
        _, mask_in = _sample_input(s, _ZeroingRng(0), True, keep_draw=False)
        assert np.array_equal(mask_in, dense_in != 0)
        dense_f = synthesize_filters(s, _ZeroingRng(1))
        _, mask_f = _sample_filters(s, _ZeroingRng(1), 0.3, keep_draw=False)
        assert np.array_equal(mask_f, dense_f != 0)
        assert np.count_nonzero(dense_f) < dense_f.size


def _same_quantile(x, q):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, on both sides
        want = np.quantile(x, q)
        got = _quantile_threshold(x, q)
    assert type(got) is float
    # Bit for bit, except the sign of a zero when 0.0 and -0.0 tie.
    assert np.float64(got).tobytes() == np.float64(want).tobytes() or got == want == 0


def _straddle(n, k):
    """The quantiles just below and just above virtual index ``k``."""
    below = above = k / (n - 1)
    while (n - 1) * below >= k:
        below = float(np.nextafter(below, 0.0))
    while (n - 1) * above <= k:
        above = float(np.nextafter(above, 1.0))
    return below, above


class TestQuantileThreshold:
    """The one-partition threshold equals ``np.quantile`` bit for bit
    (but for the sign of a zero where 0.0 and -0.0 tie)."""

    @pytest.mark.parametrize(
        "x",
        [
            np.array([3.0]),
            np.array([2.0, -1.0]),
            np.full(9, 0.25),
            np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 1.0, 3.0]),
            np.random.default_rng(0).standard_normal((7, 5, 3)),
            # The two halves of NumPy's lerp round differently here.
            np.array([0.1257302210933933, -0.1321048632913019]),
        ],
        ids=["n1", "n2", "constant", "ties", "field", "lerp-halves"],
    )
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 0.3, 0.77])
    def test_fixed_cases(self, x, q):
        _same_quantile(x, q)

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_virtual_index_straddles_an_integer(self, k):
        x = np.random.default_rng(k).standard_normal(11)
        x[::3] = x[0]  # ties too
        for q in _straddle(x.size, k):
            _same_quantile(x, q)

    def test_many_larger_arrays(self):
        # After partition(k), rank k + 1 usually but not always sits at
        # index k + 1; only the minimum of the upper part is guaranteed.
        rng = np.random.default_rng(0)
        for _ in range(1500):
            x = rng.standard_normal(int(rng.integers(500, 2000)))
            _same_quantile(x, float(rng.random()))

    @settings(max_examples=300, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.floats(allow_nan=False, width=64),
        ),
        q=st.floats(0.0, 1.0),
    )
    def test_random(self, x, q):
        _same_quantile(x, q)
