"""Unit tests for the vectorised work kernels (repro.sim.kernels)."""

import numpy as np
import pytest

from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import synthesize_layer
from repro.sim import native
from repro.sim.config import HardwareConfig
from repro.sim.kernels import (
    ChunkWork,
    assign_positions,
    compute_chunk_work,
    count_dtype,
)
from repro.tensor.sparsemap import linearize_zfirst, padded_length


def _reference_chunk_work(data, cfg, need_counts=True):
    """The original per-chunk GEMM loop, frozen as the equivalence oracle."""
    spec = data.spec
    chunk = cfg.chunk_size
    padded_c = padded_length(spec.in_channels, chunk)
    cpc = padded_c // chunk
    n_chunks = spec.kernel * spec.kernel * cpc
    assignment = assign_positions(
        spec.out_positions, cfg.n_clusters, cfg.position_sample
    )
    sel = assignment.indices
    oy = sel // spec.out_width
    ox = sel % spec.out_width
    in_mask = data.input_mask
    if spec.padding:
        p = spec.padding
        padded = np.zeros(
            (spec.in_height + 2 * p, spec.in_width + 2 * p, spec.in_channels),
            dtype=bool,
        )
        padded[p : p + spec.in_height, p : p + spec.in_width] = in_mask
    else:
        padded = in_mask
    filt = data.filter_masks
    n_filters = spec.n_filters
    n_sel = sel.size
    counts = (
        np.zeros((n_chunks, n_sel, n_filters), dtype=count_dtype(chunk))
        if need_counts
        else None
    )
    input_pop = np.zeros((n_chunks, n_sel), dtype=np.int32)
    match_sums = np.zeros(n_sel, dtype=np.float64)
    filter_chunk_nnz = np.zeros((n_filters, n_chunks), dtype=np.int64)
    rows = oy * spec.stride
    cols = ox * spec.stride
    for ky in range(spec.kernel):
        for kx in range(spec.kernel):
            window = padded[rows + ky, cols + kx, :]
            for cz in range(cpc):
                lo = cz * chunk
                hi = min(lo + chunk, spec.in_channels)
                c_idx = (ky * spec.kernel + kx) * cpc + cz
                if lo >= spec.in_channels:
                    continue
                a = window[:, lo:hi].astype(np.float32)
                b = filt[:, ky, kx, lo:hi].astype(np.float32)
                filter_chunk_nnz[:, c_idx] = b.sum(axis=1).astype(np.int64)
                input_pop[c_idx] = a.sum(axis=1).astype(np.int32)
                if need_counts:
                    counts[c_idx] = np.rint(a @ b.T).astype(counts.dtype)
                    match_sums += counts[c_idx].sum(axis=1, dtype=np.int64)
                else:
                    match_sums += a @ b.sum(axis=0)
    return ChunkWork(
        counts=counts,
        input_pop=input_pop,
        match_sums=match_sums,
        assignment=assignment,
        n_chunks=n_chunks,
        filter_chunk_nnz=filter_chunk_nnz,
    )


class TestAssignPositions:
    def test_exact_covers_all_positions(self):
        a = assign_positions(100, 4, position_sample=None)
        assert a.indices.size == 100
        assert np.allclose(a.weight_of, 1.0)
        assert a.cluster_positions.sum() == 100

    def test_contiguous_cluster_slices(self):
        a = assign_positions(40, 4, position_sample=None)
        # Cluster ids are non-decreasing over row-major positions.
        assert np.all(np.diff(a.cluster_of) >= 0)

    def test_sampling_caps_and_rescales(self):
        a = assign_positions(1000, 4, position_sample=50)
        assert a.indices.size <= 4 * 50
        # Weights rescale each cluster to its true position count.
        for cluster in range(4):
            sel = a.cluster_of == cluster
            assert a.weight_of[sel].sum() == pytest.approx(250.0)

    def test_small_layer_unsampled(self):
        a = assign_positions(20, 4, position_sample=50)
        assert a.indices.size == 20
        assert np.allclose(a.weight_of, 1.0)

    def test_fewer_positions_than_clusters(self):
        a = assign_positions(3, 8, position_sample=None)
        assert a.cluster_positions.sum() == 3
        assert (a.cluster_positions == 0).sum() == 5  # idle clusters

    def test_invalid(self):
        with pytest.raises(ValueError):
            assign_positions(0, 4, None)

    @pytest.mark.parametrize("sample", [0, -1, -50])
    def test_invalid_position_sample(self, sample):
        with pytest.raises(ValueError, match="position_sample"):
            assign_positions(100, 4, position_sample=sample)

    def test_weights_rescale_even_with_fewer_picks(self):
        # np.unique may return fewer than position_sample picks; weights
        # always rescale each cluster to its true position count.
        for n, clusters, sample in [(997, 3, 100), (64, 5, 7), (1000, 4, 999)]:
            a = assign_positions(n, clusters, position_sample=sample)
            for cluster in range(clusters):
                sel = a.cluster_of == cluster
                assert a.weight_of[sel].sum() == pytest.approx(
                    float(a.cluster_positions[cluster])
                )


class TestComputeChunkWork:
    def brute_force_counts(self, data, cfg):
        """Count matches per (chunk, position, filter) via linearize_zfirst."""
        spec = data.spec
        p = spec.padding
        padded = np.zeros(
            (spec.in_height + 2 * p, spec.in_width + 2 * p, spec.in_channels)
        )
        padded[p:p + spec.in_height, p:p + spec.in_width] = data.input_map
        rows = [
            linearize_zfirst(data.filters[f], chunk_size=cfg.chunk_size)
            for f in range(spec.n_filters)
        ]
        n_chunks = rows[0].n_chunks
        counts = np.zeros((n_chunks, spec.out_positions, spec.n_filters), dtype=int)
        pops = np.zeros((n_chunks, spec.out_positions), dtype=int)
        for oy in range(spec.out_height):
            for ox in range(spec.out_width):
                window = padded[
                    oy * spec.stride:oy * spec.stride + spec.kernel,
                    ox * spec.stride:ox * spec.stride + spec.kernel,
                ]
                x = linearize_zfirst(window, chunk_size=cfg.chunk_size)
                n = oy * spec.out_width + ox
                for c in range(n_chunks):
                    pops[c, n] = int(x.chunk_mask(c).sum())
                    for f in range(spec.n_filters):
                        counts[c, n, f] = int(
                            np.sum(x.chunk_mask(c) & rows[f].chunk_mask(c))
                        )
        return counts, pops

    def test_counts_match_functional_linearisation(self, tiny_data, mini_cfg):
        cfg = mini_cfg
        work = compute_chunk_work(tiny_data, cfg, need_counts=True)
        want_counts, want_pops = self.brute_force_counts(tiny_data, cfg)
        assert work.counts.shape == want_counts.shape
        assert np.array_equal(work.counts, want_counts)
        assert np.array_equal(work.input_pop, want_pops)

    def test_counts_with_stride(self, strided_spec, mini_cfg):
        data = synthesize_layer(strided_spec, seed=2)
        work = compute_chunk_work(data, mini_cfg, need_counts=True)
        want_counts, _ = self.brute_force_counts(data, mini_cfg)
        assert np.array_equal(work.counts, want_counts)

    def test_match_sums_consistent(self, tiny_data, mini_cfg):
        work = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        assert np.allclose(
            work.match_sums, work.counts.sum(axis=(0, 2), dtype=np.int64)
        )

    def test_match_sums_without_counts(self, tiny_data, mini_cfg):
        full = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        cheap = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        assert cheap.counts is None
        assert np.allclose(full.match_sums, cheap.match_sums)

    def test_filter_chunk_nnz(self, tiny_data, mini_cfg):
        from repro.balance.greedy import filter_chunk_densities

        work = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        want = filter_chunk_densities(
            tiny_data.filter_masks, chunk_size=mini_cfg.chunk_size
        )
        assert np.array_equal(work.filter_chunk_nnz, want)

    def test_multi_chunk_channels(self, mini_cfg):
        spec = ConvLayerSpec(
            name="deep", in_height=4, in_width=4, in_channels=40,
            kernel=1, n_filters=6, input_density=0.5, filter_density=0.5,
        )
        data = synthesize_layer(spec, seed=0)
        work = compute_chunk_work(data, mini_cfg, need_counts=True)
        # 40 channels at chunk 16 -> 3 channel-chunks, 1x1 kernel.
        assert work.n_chunks == 3
        want_counts, _ = self.brute_force_counts(data, mini_cfg)
        assert np.array_equal(work.counts, want_counts)


class TestKernelEquivalence:
    """The rewritten kernel is bit-identical to the original chunk loop."""

    def _random_cases(self):
        rng = np.random.default_rng(1234)
        cases = []
        for i in range(10):
            kernel = int(rng.choice([1, 2, 3, 5]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1]))
            side = kernel + int(rng.integers(2, 9))
            spec = ConvLayerSpec(
                name=f"rand{i}",
                in_height=side,
                in_width=side + int(rng.integers(0, 3)),
                # Frequently not a multiple of the chunk size (16).
                in_channels=int(rng.integers(3, 45)),
                kernel=kernel,
                n_filters=int(rng.integers(2, 20)),
                stride=stride,
                padding=padding,
                input_density=float(rng.uniform(0.1, 1.0)),
                filter_density=float(rng.uniform(0.1, 1.0)),
            )
            cfg = HardwareConfig(
                name="equiv",
                n_clusters=int(rng.choice([1, 3, 4])),
                units_per_cluster=4,
                chunk_size=16,
                position_sample=(None if rng.random() < 0.5 else int(rng.integers(2, 9))),
            )
            cases.append((spec, cfg, int(rng.integers(0, 1000))))
        return cases

    def _assert_identical(self, got, want):
        assert got.n_chunks == want.n_chunks
        assert np.array_equal(got.assignment.indices, want.assignment.indices)
        assert np.array_equal(got.input_pop, want.input_pop)
        assert got.input_pop.dtype == want.input_pop.dtype
        assert np.array_equal(got.match_sums, want.match_sums)
        assert np.array_equal(got.filter_chunk_nnz, want.filter_chunk_nnz)
        if want.counts is None:
            assert got.counts is None
        else:
            assert got.counts.dtype == want.counts.dtype
            assert np.array_equal(got.counts, want.counts)

    def test_randomized_equivalence(self):
        for spec, cfg, seed in self._random_cases():
            data = synthesize_layer(spec, seed=seed)
            for need_counts in (True, False):
                got = compute_chunk_work(data, cfg, need_counts=need_counts)
                want = _reference_chunk_work(data, cfg, need_counts=need_counts)
                self._assert_identical(got, want)

    @pytest.mark.parametrize("no_native", [False, True])
    @pytest.mark.parametrize("chunk", [12, 100])
    def test_packed_gather_odd_chunk_sizes(self, chunk, no_native, monkeypatch):
        """Chunks that are not whole bytes, padding, stride, partial chunks.

        With the native kernel forced off, both NumPy branches (the GEMM
        fallback and the ``need_counts=False`` matvec) unpack the
        gathered bytes; they must still match the original loop.
        """
        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
            assert not native.available()
        rng = np.random.default_rng(chunk)
        for i, (kernel, stride, padding) in enumerate(
            [(3, 2, 1), (1, 1, 0), (5, 3, 2), (2, 1, 1)]
        ):
            spec = ConvLayerSpec(
                name=f"odd{i}",
                in_height=int(rng.integers(7, 11)),
                in_width=int(rng.integers(7, 11)),
                # A partial last chunk, sometimes after whole ones.
                in_channels=int(rng.integers(1, 2 * chunk + 1)) | 1,
                kernel=kernel,
                n_filters=int(rng.integers(2, 12)),
                stride=stride,
                padding=padding,
                input_density=float(rng.uniform(0.2, 0.9)),
                filter_density=float(rng.uniform(0.2, 0.9)),
            )
            cfg = HardwareConfig(
                name="odd",
                n_clusters=3,
                units_per_cluster=4,
                chunk_size=chunk,
                position_sample=None if i % 2 else 4,
            )
            data = synthesize_layer(spec, seed=i)
            for need_counts in (True, False):
                got = compute_chunk_work(data, cfg, need_counts=need_counts)
                want = _reference_chunk_work(data, cfg, need_counts=need_counts)
                self._assert_identical(got, want)

    def test_native_and_fallback_agree(self, tiny_data, mini_cfg, monkeypatch):
        native_work = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        fallback = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        self._assert_identical(fallback, native_work)


class TestCountsLayout:
    """Counts keep their (n_chunks, n_sel, F) shape over filter-major storage."""

    def test_both_paths_hand_out_the_filter_major_view(self, monkeypatch):
        spec = ConvLayerSpec(
            name="layout", in_height=7, in_width=6, in_channels=40, kernel=3,
            n_filters=11, padding=1, input_density=0.6, filter_density=0.5,
        )
        cfg = HardwareConfig(
            name="layout", n_clusters=2, units_per_cluster=4, chunk_size=16
        )
        data = synthesize_layer(spec, seed=5)
        works = []
        for no_native in (False, True):
            if no_native:
                monkeypatch.setenv("REPRO_NO_NATIVE", "1")
            work = compute_chunk_work(data, cfg, need_counts=True)
            n_sel = work.assignment.indices.size
            assert work.counts.shape == (work.n_chunks, n_sel, spec.n_filters)
            assert work.counts.transpose(0, 2, 1).flags.c_contiguous
            works.append(work)
        assert np.array_equal(works[0].counts, works[1].counts)
        assert np.array_equal(works[0].match_sums, works[1].match_sums)


class TestCountDtype:
    def test_dtype_scales_with_chunk_size(self):
        assert count_dtype(128) == np.uint8
        assert count_dtype(255) == np.uint8
        assert count_dtype(256) == np.uint16
        assert count_dtype(65536) == np.uint32

    def test_dense_chunk_256_does_not_wrap(self):
        # A fully dense 256-wide chunk matches 256 times; uint8 counts
        # (the seed kernel's dtype) wrap that to 0.
        spec = ConvLayerSpec(
            name="dense256", in_height=2, in_width=2, in_channels=256,
            kernel=1, n_filters=4, input_density=1.0, filter_density=1.0,
        )
        cfg = HardwareConfig(
            name="c256", n_clusters=1, units_per_cluster=4, chunk_size=256
        )
        data = synthesize_layer(spec, seed=0)
        work = compute_chunk_work(data, cfg, need_counts=True)
        assert work.counts.dtype == np.uint16
        assert work.counts.max() == 256
        assert np.all(work.counts == 256)
        assert np.array_equal(
            work.match_sums, work.counts.sum(axis=(0, 2), dtype=np.int64)
        )
