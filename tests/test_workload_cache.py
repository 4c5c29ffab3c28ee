"""Tests for the cross-experiment workload cache (core/workload.py)."""

import dataclasses
import gc
import sys
import warnings

import numpy as np
import pytest

from repro import config
from repro.core import workload
from repro.core.workload import (
    cache_stats,
    clear_caches,
    get_layer_data,
    get_workload,
    lookup_result,
    result_key,
    store_result,
    workload_key,
)
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import HardwareConfig


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _spec(**overrides):
    base = dict(
        name="cachespec", in_height=6, in_width=6, in_channels=20,
        kernel=3, n_filters=4, input_density=0.5, filter_density=0.5,
    )
    base.update(overrides)
    return ConvLayerSpec(**base)


def _cfg(**overrides):
    base = dict(name="cachecfg", n_clusters=2, units_per_cluster=4, chunk_size=16)
    base.update(overrides)
    return HardwareConfig(**base)


class TestKeys:
    def test_distinct_parameters_never_collide(self):
        spec = _spec()
        cfg = _cfg()
        keys = {
            workload_key(spec, cfg, seed=0),
            workload_key(spec, cfg, seed=1),
            workload_key(spec, _cfg(chunk_size=32), seed=0),
            workload_key(spec, _cfg(position_sample=4), seed=0),
            workload_key(spec, _cfg(n_clusters=3), seed=0),
            workload_key(_spec(in_channels=24), cfg, seed=0),
            workload_key(_spec(input_density=0.4), cfg, seed=0),
        }
        assert len(keys) == 7

    def test_key_ignores_unrelated_config_knobs(self):
        # Sweeps over e.g. bisection_width share one workload entry.
        spec = _spec()
        assert workload_key(spec, _cfg(bisection_width=2), seed=0) == workload_key(
            spec, _cfg(bisection_width=16), seed=0
        )

    def test_result_key_uses_full_config(self):
        spec = _spec()
        assert result_key("sparten", spec, _cfg(bisection_width=2), 0) != result_key(
            "sparten", spec, _cfg(bisection_width=16), 0
        )
        assert result_key("sparten", spec, _cfg(), 0) != result_key(
            "dense", spec, _cfg(), 0
        )


class TestWorkloadCache:
    def test_hit_returns_same_objects(self):
        spec, cfg = _spec(), _cfg()
        data1, work1 = get_workload(spec, cfg, seed=0)
        data2, work2 = get_workload(spec, cfg, seed=0)
        assert data1 is data2
        assert work1 is work2
        stats = cache_stats()["workloads"]
        assert stats["hits"] >= 1

    def test_distinct_keys_distinct_arrays(self):
        spec, cfg = _spec(), _cfg()
        _, work_a = get_workload(spec, cfg, seed=0)
        _, work_b = get_workload(spec, cfg, seed=1)
        _, work_c = get_workload(spec, _cfg(chunk_size=32), seed=0)
        _, work_d = get_workload(spec, _cfg(position_sample=4), seed=0)
        assert not np.array_equal(work_a.input_pop, work_b.input_pop)
        assert work_c.n_chunks != work_a.n_chunks
        assert work_d.assignment.indices.shape != work_a.assignment.indices.shape

    def test_need_counts_upgrade_reuses_layer_data(self):
        spec, cfg = _spec(), _cfg()
        data1, work1 = get_workload(spec, cfg, seed=0, need_counts=False)
        assert work1.counts is None
        data2, work2 = get_workload(spec, cfg, seed=0, need_counts=True)
        assert work2.counts is not None
        assert data1 is data2
        # Counts-free callers are satisfied by the upgraded entry.
        _, work3 = get_workload(spec, cfg, seed=0, need_counts=False)
        assert work3 is work2

    def test_layer_data_memoised(self):
        spec = _spec()
        assert get_layer_data(spec, seed=0) is get_layer_data(spec, seed=0)
        assert get_layer_data(spec, seed=0) is not get_layer_data(spec, seed=1)


class TestResultMemo:
    def test_roundtrip_and_isolation(self):
        spec, cfg = _spec(), _cfg()
        key = result_key("sparten", spec, cfg, 0)
        assert lookup_result(key) is None
        sentinel = {"cycles": 123}
        store_result(key, sentinel)
        assert lookup_result(key) is sentinel
        assert lookup_result(result_key("dense", spec, cfg, 0)) is None


class TestDiskStore:
    def test_npz_roundtrip_across_process_state(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec, cfg = _spec(), _cfg()
        data, work = get_workload(spec, cfg, seed=0)
        files = list(tmp_path.glob("workload-*.npz"))
        assert len(files) == 1
        # Simulate a new process: drop the in-memory LRU, reload from disk.
        clear_caches()
        data2, work2 = get_workload(spec, cfg, seed=0)
        assert cache_stats()["workloads"]["disk_hits"] == 1
        assert np.array_equal(data2.input_mask, data.input_mask)
        assert np.array_equal(data2.filter_masks, data.filter_masks)
        assert data2.input_mask.dtype == data2.filter_masks.dtype == bool
        assert np.array_equal(work2.counts, work.counts)
        assert work2.counts.dtype == work.counts.dtype
        assert np.array_equal(work2.input_pop, work.input_pop)
        assert np.array_equal(work2.match_sums, work.match_sums)
        assert np.array_equal(work2.filter_chunk_nnz, work.filter_chunk_nnz)
        assert np.array_equal(work2.assignment.indices, work.assignment.indices)
        assert work2.n_chunks == work.n_chunks

    def test_corrupt_file_falls_back_to_compute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec, cfg = _spec(), _cfg()
        get_workload(spec, cfg, seed=0)
        (path,) = tmp_path.glob("workload-*.npz")
        path.write_bytes(b"not an npz")
        clear_caches()
        data, work = get_workload(spec, cfg, seed=0)  # must not raise
        assert work.counts is not None
        assert cache_stats()["workloads"]["disk_hits"] == 0

    def test_truncated_npz_quarantined_and_recomputed(self, tmp_path, monkeypatch):
        # Regression: a half-written archive from a crashed process raises
        # zipfile.BadZipFile, which the loader used to let propagate and
        # kill the run. It must quarantine the entry and recompute.
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec, cfg = _spec(), _cfg()
        data, work = get_workload(spec, cfg, seed=0)
        (path,) = tmp_path.glob("workload-*.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn write / truncation
        clear_caches()
        telemetry.reset()
        data2, work2 = get_workload(spec, cfg, seed=0)  # must not raise
        assert np.array_equal(work2.counts, work.counts)
        # The damaged bytes are preserved for postmortem, not deleted.
        assert path.with_suffix(".npz.corrupt").exists()
        assert not path.exists() or path.stat().st_size > len(raw) // 2
        counters = telemetry.get_recorder().counters()
        assert counters["cache.disk.quarantine"] == 1.0
        # The recompute re-stored a healthy entry: next cold load hits disk.
        clear_caches()
        get_workload(spec, cfg, seed=0)
        assert cache_stats()["workloads"]["disk_hits"] == 1

    def test_truncated_npz_load_closes_its_file(self, tmp_path, monkeypatch):
        # Regression: np.load(path) raised on a truncated archive before
        # its own ``with`` owned the file, leaking the handle.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec, cfg = _spec(), _cfg()
        get_workload(spec, cfg, seed=0)
        (path,) = tmp_path.glob("workload-*.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        key = workload_key(spec, cfg, 0)
        # A warning raised in a finalizer is routed to sys.unraisablehook,
        # not to the caller, so collect it there.
        unraisable = []
        prior_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                assert workload._disk_load(key, spec, need_counts=True) is None
                gc.collect()
        finally:
            sys.unraisablehook = prior_hook
        assert [u.exc_value for u in unraisable] == []
        assert path.with_suffix(".npz.corrupt").exists()

    def test_packed_masks_reload_bit_for_bit(self, tmp_path, monkeypatch):
        # 5*7*3 = 105 input and 3*3*3*3 = 81 filter elements: neither is
        # a multiple of 8, so the last packed byte of each is partial.
        from repro.nets.synthesis import synthesize_layer

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = _spec(in_height=5, in_width=7, in_channels=3, n_filters=3)
        get_workload(spec, _cfg(chunk_size=8), seed=3)
        clear_caches()
        masks, _ = get_workload(spec, _cfg(chunk_size=8), seed=3)
        assert cache_stats()["workloads"]["disk_hits"] == 1
        dense = synthesize_layer(spec, seed=3)
        assert masks.input_mask.dtype == masks.filter_masks.dtype == bool
        assert np.array_equal(masks.input_mask, dense.input_map != 0)
        assert np.array_equal(masks.filter_masks, dense.filters != 0)

    def test_short_packed_mask_quarantined_and_recomputed(self, tmp_path, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec, cfg = _spec(), _cfg()
        masks, work = get_workload(spec, cfg, seed=0)
        (path,) = tmp_path.glob("workload-*.npz")
        with np.load(path) as z:
            members = {name: z[name] for name in z.files}
        members["input_mask"] = members["input_mask"][:-1]  # one byte short
        with open(path, "wb") as fh:
            np.savez(fh, **members)
        clear_caches()
        telemetry.reset()
        masks2, work2 = get_workload(spec, cfg, seed=0)  # must not raise
        assert cache_stats()["workloads"]["disk_hits"] == 0
        assert telemetry.get_recorder().counters()["cache.disk.quarantine"] == 1.0
        assert path.with_suffix(".npz.corrupt").exists()
        assert np.array_equal(masks2.input_mask, masks.input_mask)
        assert np.array_equal(work2.counts, work.counts)

    def test_garbage_bytes_quarantined(self, tmp_path, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec, cfg = _spec(), _cfg()
        get_workload(spec, cfg, seed=0)
        (path,) = tmp_path.glob("workload-*.npz")
        path.write_bytes(b"\x00\xffgarbage that is definitely not a zip")
        clear_caches()
        telemetry.reset()
        get_workload(spec, cfg, seed=0)  # must not raise
        assert path.with_suffix(".npz.corrupt").exists()
        assert telemetry.get_recorder().counters()["cache.disk.quarantine"] == 1.0


class TestMasksOnly:
    def test_no_dense_float_array_in_the_lru(self):
        spec, cfg = _spec(), _cfg()
        get_workload(spec, cfg, seed=0)
        dense_shapes = {
            (spec.in_height, spec.in_width, spec.in_channels),
            (spec.n_filters, spec.kernel, spec.kernel, spec.in_channels),
        }
        held = [buf for bufs in workload._WORKLOADS._held.values() for buf in bufs]
        assert held
        assert not [
            a for a in held if a.dtype == np.float64 and a.shape in dense_shapes
        ]


class TestWarmRunAllHits:
    def test_warm_headline_means_is_all_hits(self):
        from repro import telemetry
        from repro.eval.experiments import headline_means

        cold = headline_means(fast=True, seed=0)
        workload.reset_cache_stats()
        telemetry.reset()
        warm = headline_means(fast=True, seed=0)
        assert warm["sim_vs_dense"] == cold["sim_vs_dense"]
        stats = cache_stats()
        # The result memo answers every warm lookup (100% hits), which
        # also means the workload cache sees no traffic at all.
        for cache in ("workloads", "results"):
            assert stats[cache]["misses"] == 0, f"{cache} missed on a warm run"
        assert stats["results"]["hits"] > 0
        assert stats["results"]["hit_rate"] == 1.0
        counters = telemetry.get_recorder().counters()
        assert counters.get("cache.workload.miss", 0) == 0
        assert counters.get("cache.result.miss", 0) == 0
        assert counters["cache.result.hit"] > 0


def _owner(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class TestLRUBounds:
    def test_bytes_count_each_shared_buffer_once(self):
        spec = _spec()
        pairs = [
            get_workload(spec, _cfg(chunk_size=chunk, n_clusters=clusters))
            for chunk in (16, 32)
            for clusters in (1, 2, 3)
        ]
        arrays = []
        for data, work in pairs:
            # Every config of one layer reuses the same synthesized arrays.
            assert data.input_mask is pairs[0][0].input_mask
            arrays += [
                data.input_mask, data.filter_masks, work.counts, work.input_pop,
                work.match_sums, work.filter_chunk_nnz,
                work.assignment.indices, work.assignment.cluster_of,
                work.assignment.weight_of, work.assignment.cluster_positions,
            ]
        held = {id(_owner(a)): _owner(a) for a in arrays if a is not None}
        distinct = sum(a.nbytes for a in held.values())
        assert cache_stats()["workloads"]["entries"] == len(pairs) + 1
        assert cache_stats()["workloads"]["bytes"] == distinct

    def test_shared_buffer_freed_with_its_last_holder(self):
        lru = workload._LRU(max_entries=2)
        buf = np.zeros(100, dtype=np.uint8)
        lru.put("x", 1, arrays=(buf,))
        lru.put("y", 2, arrays=(buf, buf[10:]))  # a view of the same buffer
        assert lru.nbytes == 100
        lru.put("z", 3)  # evicts x; y still holds the buffer
        assert lru.nbytes == 100
        lru.put("w", 4)  # evicts y, the last holder
        assert lru.nbytes == 0

    def test_entry_bound_evicts_oldest(self):
        lru = workload._LRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert lru.get("a") is None
        assert lru.get("b") == 2
        assert lru.get("c") == 3
        assert lru.stats.evictions == 1

    def test_byte_bound_keeps_at_least_one(self):
        lru = workload._LRU(max_entries=100, max_bytes=10)
        lru.put("big", object(), nbytes=50)
        assert lru.get("big") is not None  # a single oversized entry survives
        lru.put("big2", object(), nbytes=50)
        assert lru.get("big") is None
        assert lru.get("big2") is not None

    def test_workload_bound_follows_the_bound_config(self):
        lru = workload._WORKLOADS
        lru.clear()
        try:
            with config.use(dataclasses.replace(config.current(), cache_bytes=1)):
                lru.put("a", object(), nbytes=8)
                lru.put("b", object(), nbytes=8)
                # Nothing it held survives an insert: only the newest entry.
                assert lru.get("a") is None
                assert len(lru) == 1
            lru.put("c", object(), nbytes=8)
            assert len(lru) == 2  # the default bound applies again
        finally:
            lru.clear()
