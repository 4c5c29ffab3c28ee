"""The scheme-reduction engine: bit-exactness, caching, telemetry.

The engine (:mod:`repro.sim.reduce`) promises that both paths -- native
``reduce_pairs`` and the blocked NumPy fallback -- are *bit-identical*
to the original Python group loops the simulators shipped with. These
tests pin that promise across variants, chunk sizes, collocation,
sampled positions and ``REPRO_NO_NATIVE`` settings, plus a property
test of native against fallback over every :class:`GroupReduction`
shape; they also cover the batch-path workload-cache routing, exact
``_pair_nbytes`` accounting, and the reduce-dispatch and relayout
telemetry counters.

The reference loops below are frozen copies of the pre-engine
``_two_sided_cluster_cycles`` / dynamic group-sweep bodies (the same
copies the benchmarks time in ``benchmarks/_seed_reference.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import workload
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import synthesize_layer
from repro.sim import native, reduce
from repro.sim.config import HardwareConfig
from repro.sim.dynamic import simulate_dynamic_dispatch
from repro.sim.kernels import compute_chunk_work, count_dtype
from repro.sim.sparten import (
    simulate_sparten,
    sparten_variant_plan,
    two_sided_reduction_spec,
)

VARIANTS = ("no_gb", "gb_s", "gb_h")
CHUNK_SIZES = (64, 128, 256)


# ---------------------------------------------------------------------------
# Frozen reference loops (the pre-engine reduction semantics).


def _gather_pair_work(counts, a_idx, b_idx):
    n_chunks, n_sel, _ = counts.shape
    out = np.zeros((n_chunks, n_sel, a_idx.size), dtype=np.float64)
    valid_a = a_idx >= 0
    if np.any(valid_a):
        out[:, :, valid_a] += counts[:, :, a_idx[valid_a]]
    valid_b = b_idx >= 0
    if np.any(valid_b):
        out[:, :, valid_b] += counts[:, :, b_idx[valid_b]]
    return out


def reference_two_sided(counts, plan, units, bisection_width, collocate):
    """The original per-group Python loops, verbatim semantics."""
    n_chunks, n_sel, n_filters = counts.shape
    use_network = collocate and plan.variant == "gb_h" and units >= 2
    barrier_acc = np.zeros(n_sel, dtype=np.float64)
    busy_acc = np.zeros(n_sel, dtype=np.float64)
    permute_acc = np.zeros(n_sel, dtype=np.float64)
    if collocate and plan.variant == "gb_s":
        pair_a, pair_b = plan.pairing[:, 0], plan.pairing[:, 1]
        for base in range(0, plan.pairing.shape[0], units):
            gw = _gather_pair_work(
                counts, pair_a[base : base + units], pair_b[base : base + units]
            )
            barrier_acc += np.maximum(gw.max(axis=2), 1).sum(axis=0)
            busy_acc += gw.sum(axis=(0, 2))
    elif collocate and plan.variant == "gb_h":
        n_pairs = plan.chunk_pairing.shape[1]
        for base in range(0, n_pairs, units):
            pair_slice = plan.chunk_pairing[:, base : base + units, :]
            shipped = np.zeros(n_chunks, dtype=np.float64)
            if n_chunks > 1:
                shipped[:-1] = (pair_slice[1:] != pair_slice[:-1]).sum(axis=(1, 2))
            shipped[-1] = 2.0 * units
            route_floor = np.ceil(shipped / 2.0 / bisection_width)
            barrier = np.zeros((n_chunks, n_sel), dtype=np.float64)
            busy = np.zeros((n_chunks, n_sel), dtype=np.float64)
            for c in range(n_chunks):
                gw = _gather_pair_work(
                    counts[c : c + 1], pair_slice[c, :, 0], pair_slice[c, :, 1]
                )[0]
                barrier[c] = np.maximum(gw.max(axis=1), 1)
                busy[c] = gw.sum(axis=1)
            if use_network:
                floor = route_floor[:, None]
                permute_acc += np.maximum(0.0, floor - barrier).sum(axis=0)
                barrier = np.maximum(barrier, floor)
            barrier_acc += barrier.sum(axis=0)
            busy_acc += busy.sum(axis=0)
    else:
        for base in range(0, n_filters, units):
            gw = counts[:, :, plan.order[base : base + units]].astype(np.float64)
            barrier_acc += np.maximum(gw.max(axis=2), 1).sum(axis=0)
            busy_acc += gw.sum(axis=2).sum(axis=0)
    return barrier_acc, busy_acc, permute_acc


def reference_dynamic(counts, units):
    """The original dynamic-dispatch makespan sweep, verbatim semantics."""
    counts = counts.astype(np.float64)
    _, n_sel, n_filters = counts.shape
    barrier_acc = np.zeros(n_sel, dtype=np.float64)
    busy_acc = np.zeros(n_sel, dtype=np.float64)
    for base in range(0, n_filters, 2 * units):
        group = counts[:, :, base : base + 2 * units]
        total = group.sum(axis=2)
        barrier = np.maximum(
            np.maximum(np.ceil(total / units), group.max(axis=2)), 1.0
        )
        barrier_acc += barrier.sum(axis=0)
        busy_acc += total.sum(axis=0)
    return barrier_acc, busy_acc


# ---------------------------------------------------------------------------
# Fixtures.


def _cfg(chunk_size=64, units=4, bisection_width=2, **kw) -> HardwareConfig:
    return HardwareConfig(
        name=f"red{chunk_size}",
        n_clusters=3,
        units_per_cluster=units,
        chunk_size=chunk_size,
        bisection_width=bisection_width,
        scnn_pe_grid=(2, 2),
        scnn_max_tile=3,
        **kw,
    )


@pytest.fixture(scope="module")
def deep_spec() -> ConvLayerSpec:
    """Enough channels for multiple chunks at every tested chunk size."""
    return ConvLayerSpec(
        name="deep",
        in_height=6,
        in_width=6,
        in_channels=300,
        kernel=3,
        n_filters=22,
        stride=1,
        padding=1,
        input_density=0.5,
        filter_density=0.4,
    )


@pytest.fixture(scope="module")
def deep_data(deep_spec):
    return synthesize_layer(deep_spec, seed=3)


def _counts(data, cfg):
    work = compute_chunk_work(data, cfg, need_counts=True)
    assert work.counts is not None
    return work


# ---------------------------------------------------------------------------
# Engine vs the frozen seed loops, native and NumPy fallback.


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_matches_seed_loop(
    deep_data, variant, chunk_size, no_native, monkeypatch
):
    cfg = _cfg(chunk_size=chunk_size)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work = _counts(deep_data, cfg)
    plan = sparten_variant_plan(deep_data, cfg, variant)
    units = cfg.units_per_cluster
    for collocate in (plan.collocated, False):
        rspec = two_sided_reduction_spec(plan, cfg, collocate)
        ref = reference_two_sided(
            work.counts, plan, units, cfg.bisection_width, collocate
        )
        red = reduce.reduce_scheme(work, rspec)
        assert np.array_equal(red.barrier, ref[0])
        assert np.array_equal(red.busy, ref[1])
        assert np.array_equal(red.permute, ref[2])


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_dynamic_engine_matches_seed_loop(
    deep_data, chunk_size, no_native, monkeypatch
):
    cfg = _cfg(chunk_size=chunk_size)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work = _counts(deep_data, cfg)
    units = cfg.units_per_cluster
    rspec = reduce.order_groups(
        np.arange(deep_data.spec.n_filters, dtype=np.int64),
        2 * units,
        dyn_units=units,
    )
    ref = reference_dynamic(work.counts, units)
    red = reduce.reduce_scheme(work, rspec)
    assert np.array_equal(red.barrier, ref[0])
    assert np.array_equal(red.busy, ref[1])
    assert np.array_equal(red.permute, np.zeros_like(ref[0]))


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
def test_gb_h_floors_bind_on_thin_network(deep_data, no_native, monkeypatch):
    """bisection_width=1 makes routing floors bind -> unhidden permute."""
    cfg = _cfg(chunk_size=64, bisection_width=1)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work = _counts(deep_data, cfg)
    plan = sparten_variant_plan(deep_data, cfg, "gb_h")
    rspec = two_sided_reduction_spec(plan, cfg, True)
    assert rspec.floors is not None
    red = reduce.reduce_scheme(work, rspec)
    ref = reference_two_sided(work.counts, plan, cfg.units_per_cluster, 1, True)
    assert np.array_equal(red.barrier, ref[0])
    assert np.array_equal(red.permute, ref[2])
    assert red.permute.sum() > 0  # the thin network actually stalls


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
def test_engine_with_sampled_positions(deep_data, no_native, monkeypatch):
    cfg = _cfg(chunk_size=64, position_sample=4)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work = _counts(deep_data, cfg)
    assert work.counts.shape[1] < deep_data.spec.out_positions
    for variant in VARIANTS:
        plan = sparten_variant_plan(deep_data, cfg, variant)
        rspec = two_sided_reduction_spec(plan, cfg, plan.collocated)
        ref = reference_two_sided(
            work.counts, plan, cfg.units_per_cluster, cfg.bisection_width,
            plan.collocated,
        )
        red = reduce.reduce_scheme(work, rspec)
        assert np.array_equal(red.barrier, ref[0])
        assert np.array_equal(red.busy, ref[1])
        assert np.array_equal(red.permute, ref[2])


# ---------------------------------------------------------------------------
# Native reduce_pairs vs the NumPy fallback, over every GroupReduction shape.


def _scatter_filters(rng, n_filters, n_pairs):
    """A (n_pairs, 2) pairing holding each filter once, -1 elsewhere."""
    flat = np.full(2 * n_pairs, -1, dtype=np.int64)
    flat[rng.choice(2 * n_pairs, n_filters, replace=False)] = rng.permutation(
        n_filters
    )
    return flat.reshape(n_pairs, 2)


def _random_rspec(rng, shape, n_chunks, n_filters, units):
    if shape in ("order", "dynamic"):
        order = rng.permutation(n_filters)[: rng.integers(1, n_filters + 1)]
        if shape == "order":
            return reduce.order_groups(order, units)
        return reduce.order_groups(order, 2 * units, dyn_units=units)
    # Enough whole groups of pairs to hold every filter, sometimes one spare.
    groups = -(-n_filters // (2 * units)) + int(rng.integers(0, 2))
    n_pairs = groups * units
    if shape == "static":
        return reduce.static_pairs(_scatter_filters(rng, n_filters, n_pairs), units)
    pairing = np.stack(
        [_scatter_filters(rng, n_filters, n_pairs) for _ in range(n_chunks)]
    )
    floors = None
    if shape == "chunk_floors":
        floors = rng.integers(0, 6, (n_chunks, n_pairs // units)).astype(np.float64)
    return reduce.chunk_pairs(pairing, units, floors)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(("order", "dynamic", "static", "chunk", "chunk_floors")),
    # u8 (64; 255 is the top of the kernel's int32-lane range), u16 and u32.
    chunk_size=st.sampled_from((64, 255, 256, 1 << 16)),
    block_elems=st.sampled_from((1, reduce._BLOCK_ELEMS)),
    filter_major=st.booleans(),
)
def test_native_reduce_matches_numpy_fallback(
    seed, shape, chunk_size, block_elems, filter_major
):
    if not native.available():
        pytest.skip("native kernel unavailable")
    rng = np.random.default_rng(seed)
    n_chunks = int(rng.integers(1, 9))
    # Positions cross several 8-wide vector blocks and usually leave a tail.
    n_sel = int(rng.integers(1, 71))
    n_filters = int(rng.integers(1, 601))
    units = int(rng.integers(1, 257))
    dtype = count_dtype(chunk_size)
    # Small counts make the one-cycle and routing floors bind; large ones
    # reach the top of the dtype.
    high = chunk_size if rng.random() < 0.5 else 4
    counts = rng.integers(0, high + 1, (n_chunks, n_sel, n_filters)).astype(dtype)
    if filter_major:
        # The layout compute_chunk_work hands out: a view of (chunk, F, pos).
        counts = np.ascontiguousarray(counts.transpose(0, 2, 1)).transpose(0, 2, 1)
    rspec = _random_rspec(rng, shape, n_chunks, n_filters, units)
    got = native.reduce_pairs(
        counts,
        rspec.pair_a,
        rspec.pair_b,
        rspec.floors,
        rspec.rows_per_group,
        rspec.dyn_units,
    )
    prior = reduce._BLOCK_ELEMS
    reduce._BLOCK_ELEMS = block_elems  # 1 => one chunk per fallback block
    try:
        want = reduce._reduce_counts_numpy(counts, rspec)
    finally:
        reduce._BLOCK_ELEMS = prior
    assert np.array_equal(got[0], want.barrier)
    assert np.array_equal(got[1], want.busy)
    assert np.array_equal(got[2], want.permute)


# ---------------------------------------------------------------------------
# Telemetry: reduction dispatches are observable.


def test_reduce_dispatch_counters(deep_data, monkeypatch):
    cfg = _cfg(chunk_size=64)
    work = _counts(deep_data, cfg)
    plan = sparten_variant_plan(deep_data, cfg, "gb_s")
    rspec = two_sided_reduction_spec(plan, cfg, True)
    telemetry.reset()
    reduce.reduce_scheme(work, rspec)
    counters = telemetry.snapshot(events=False)["counters"]
    if native.available():
        assert counters.get("kernel.reduce_native_dispatch", 0) == 1
    else:
        assert counters.get("kernel.reduce_fallback_dispatch", 0) == 1
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    telemetry.reset()
    reduce.reduce_scheme(work, rspec)
    counters = telemetry.snapshot(events=False)["counters"]
    assert counters.get("kernel.reduce_fallback_dispatch", 0) == 1
    telemetry.reset()


def test_reduce_relayout_counts_position_major_inputs(deep_data):
    if not native.available():
        pytest.skip("native kernel unavailable")
    cfg = _cfg(chunk_size=64)
    work = _counts(deep_data, cfg)
    plan = sparten_variant_plan(deep_data, cfg, "gb_s")
    rspec = two_sided_reduction_spec(plan, cfg, True)
    position_major = dataclasses.replace(
        work, counts=np.ascontiguousarray(work.counts)
    )
    telemetry.reset()
    fast = reduce.reduce_scheme(work, rspec)
    assert telemetry.snapshot(events=False)["counters"].get(
        "kernel.reduce_relayout", 0
    ) == 0
    slow = reduce.reduce_scheme(position_major, rspec)
    assert telemetry.snapshot(events=False)["counters"][
        "kernel.reduce_relayout"
    ] == 1
    telemetry.reset()
    assert np.array_equal(fast.barrier, slow.barrier)
    assert np.array_equal(fast.busy, slow.busy)
    assert np.array_equal(fast.permute, slow.permute)


# ---------------------------------------------------------------------------
# Satellite: batch loops route per-image workloads through the cache.


def test_batch_paths_share_workload_cache(deep_spec):
    cfg = _cfg(chunk_size=64, batch=3)
    workload.clear_caches()
    simulate_sparten(deep_spec, cfg, variant="gb_h", seed=0)
    first = workload.cache_stats()["workloads"]
    assert first["misses"] >= cfg.batch  # one compute per image
    assert first["hits"] == 0
    # A different simulator over the same batch reuses every image.
    simulate_dynamic_dispatch(deep_spec, cfg, seed=0)
    second = workload.cache_stats()["workloads"]
    assert second["misses"] == first["misses"]
    assert second["hits"] >= cfg.batch
    workload.clear_caches()


# ---------------------------------------------------------------------------
# Satellite: exact workload-cache byte accounting.


def _expected_pair_nbytes(pair):
    masks, work = pair
    arrays = [
        masks.input_mask,
        masks.filter_masks,
        work.input_pop,
        work.match_sums,
        work.filter_chunk_nnz,
        work.assignment.indices,
        work.assignment.cluster_of,
        work.assignment.weight_of,
        work.assignment.cluster_positions,
    ]
    if work.counts is not None:
        arrays.append(work.counts)
    return sum(a.nbytes for a in arrays)


def test_pair_nbytes_counts_every_array(deep_spec):
    workload.clear_caches()
    pair = workload.get_workload(deep_spec, _cfg(chunk_size=64), seed=0)
    assert workload._pair_nbytes(pair) == _expected_pair_nbytes(pair)
    # The assignment arrays alone are non-trivial: undercounting them
    # would let the LRU hold far more than REPRO_CACHE_BYTES.
    assignment_bytes = (
        pair[1].assignment.cluster_of.nbytes
        + pair[1].assignment.weight_of.nbytes
        + pair[1].assignment.cluster_positions.nbytes
    )
    assert assignment_bytes > 0
    assert workload._pair_nbytes(pair) >= assignment_bytes
    workload.clear_caches()
