"""Tests for the store's result tier and its entry codec.

The codec (``repro.resilience.checkpoint.encode``/``decode``) must
round-trip every result bit for bit and refuse anything outside its
closed set of types; the tier (``lookup_result``/``store_result`` over
``$REPRO_CACHE_DIR``) must let a fresh process answer from the store
alone, and must never trust a damaged, foreign or stale entry.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import config, telemetry
from repro.arch.memory import Traffic
from repro.core import compare, parallel, workload
from repro.core.workload import cache_stats, clear_caches
from repro.profiling.counters import CounterSet
from repro.resilience import checkpoint
from repro.resilience.doctor import scan_store
from repro.sim.results import Breakdown, LayerResult


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    telemetry.reset()
    yield
    clear_caches()


def _counter(name: str) -> float:
    return telemetry.get_recorder().counters().get(name, 0.0)


def _same_bits(a, b) -> None:
    """Assert *a* and *b* are equal down to every float's bit pattern."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, float):
        assert struct.pack(">d", a) == struct.pack(">d", b), (a, b)
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            _same_bits(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same_bits(x, y)
    else:
        assert a == b


# -- codec ----------------------------------------------------------------------

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308)
#: Comparable floats: subnormals, signed zeros and infinities, no NaN.
_FLOATS = st.floats(allow_nan=False, allow_subnormal=True) | st.sampled_from(_SPECIAL)
#: NaNs of both signs, with and without a payload.
_NANS = tuple(
    struct.unpack(">d", bytes.fromhex(bits))[0]
    for bits in ("7ff8000000000000", "fff8000000000000", "7ff0000000000bad", "fff4000000c0ffee")
)
#: Every float bit pattern, NaN payloads and signs included.
_ANY_FLOAT = st.sampled_from(_NANS + _SPECIAL) | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack(">d", bits.to_bytes(8, "big"))[0]
)
_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=6) | _FLOATS
_EXTRAS = st.dictionaries(
    st.text(max_size=8),
    _SCALARS | st.lists(_SCALARS, max_size=3) | st.tuples(_SCALARS, _SCALARS),
    max_size=6,
)


#: Tag names of the codec's wrappers, as dict keys and as strings.
_TAG_NAMES = ("f8", "dict", "tuple", "ndarray", "LayerResult", "Figure14Data")
#: Integers JSON readers commonly round through a double.
_WIDE_INTS = st.sampled_from((2**53 + 1, -(2**53) - 1, 2**64 + 3, -(3**50)))
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _WIDE_INTS | _ANY_FLOAT
    | st.text(max_size=6) | st.sampled_from(_TAG_NAMES)
)
#: Nested values: lists, tuples, dicts (one-key dicts keyed by a tag name too).
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=6) | st.sampled_from(_TAG_NAMES), inner, max_size=3)
        | st.builds(lambda k, v: {k: v}, st.sampled_from(_TAG_NAMES), inner)
    ),
    max_leaves=12,
)


def _bit_arrays(shape):
    return hnp.arrays(np.uint64, shape).map(lambda a: a.view(np.float64))


@st.composite
def _counter_sets(draw):
    n = draw(st.integers(1, 4))
    bins = draw(st.integers(1, 5))
    timeline = draw(st.booleans())
    return CounterSet(
        scheme=draw(st.text(max_size=6)),
        n_clusters=n,
        units_per_cluster=draw(st.integers(1, 64)),
        total_cycles=draw(_ANY_FLOAT),
        busy=draw(_bit_arrays(n)),
        filter_zero=draw(_bit_arrays(n)),
        barrier_wait=draw(_bit_arrays(n)),
        permute_stall=draw(_bit_arrays(n)),
        imbalance_idle=draw(_bit_arrays(n)),
        memory_stall=draw(_bit_arrays(n)),
        barriers=draw(_ANY_FLOAT),
        buffer_hwm=draw(st.dictionaries(st.text(max_size=6), st.integers() | _ANY_FLOAT, max_size=3)),
        timeline_cycles=draw(_bit_arrays((n, bins))) if timeline else None,
        timeline_busy=draw(_bit_arrays((n, bins))) if timeline else None,
    )


@st.composite
def _layer_results(draw):
    return LayerResult(
        scheme=draw(st.text(max_size=10)),
        layer_name=draw(st.text(max_size=10)),
        cycles=draw(_FLOATS),
        compute_cycles=draw(_FLOATS),
        total_macs=draw(st.integers()),
        breakdown=Breakdown(*(draw(_FLOATS) for _ in range(4))),
        traffic=Traffic(*(draw(_FLOATS) for _ in range(3))),
        extras=draw(_EXTRAS),
        counters=draw(st.none() | _counter_sets()),
    )


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(result=_layer_results())
    def test_layer_result_round_trips_bit_exactly(self, result):
        back = checkpoint.decode(checkpoint.encode(result))
        assert back == result
        _same_bits(back, result)  # counters, -0.0 and NaN payloads included

    @settings(max_examples=50, deadline=None)
    @given(result=_layer_results())
    def test_entry_bytes_round_trip(self, result):
        key = ("result", "fingerprint", "sparten", (1, 2.5, None), 0)
        found, back = checkpoint.parse_entry(checkpoint._entry_bytes(key, result))
        assert found == key
        _same_bits(back, result)

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([True, False]),
            np.array([1 + 2j, -0.0 - 1j]),
            np.zeros((0, 3), dtype=np.uint8),
            np.array(7.5),
            np.arange(8, dtype=">u2"),
            np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2],
        ],
    )
    def test_numeric_arrays_keep_dtype_and_shape(self, array):
        back = checkpoint.decode(checkpoint.encode(array))
        assert (back.dtype, back.shape) == (array.dtype, array.shape)
        assert np.array_equal(back, array)
        back[...] = 0  # decoded arrays own writable memory

    @pytest.mark.parametrize(
        "value",
        [
            {1, 2},
            object(),
            b"bytes",
            np.int64(3),
            np.float32(1.5),
            {1: "int key"},
            np.array(["a"]),
            np.array([None], dtype=object),
            [1, {"nested": {2.0}}],
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            checkpoint.encode(value)

    @settings(max_examples=200, deadline=None)
    @given(value=_NESTED)
    def test_values_round_trip_bit_exactly(self, value):
        _same_bits(checkpoint.decode(checkpoint.encode(value)), value)
        key = ("result", value)
        found, back = checkpoint.parse_entry(checkpoint._entry_bytes(key, value))
        _same_bits(found, key)
        _same_bits(back, value)

    def test_finite_floats_travel_as_numbers(self):
        raw = checkpoint._entry_bytes(("k",), [0.1, -0.0, 5e-324, 2.0**60, math.inf])
        assert b"0.1,-0.0,5e-324,1.152921504606847e+18" in raw
        assert b'{"f8":"7ff0000000000000"}' in raw

    def test_figure14_data_is_a_record(self):
        from repro.balance.metrics import Figure14Data

        data = Figure14Data(3, np.array([0.25, 0.5]), np.array([0.375]))
        _same_bits(checkpoint.decode(checkpoint.encode(data)), data)

    def test_decode_refuses_object_arrays(self):
        forged = {"ndarray": ["|O", [1], "AAAAAAAAAAA="]}
        with pytest.raises(ValueError):
            checkpoint.decode(forged)

    def test_unencodable_result_never_touches_the_disk(self, tmp_path):
        path = tmp_path / "result-x.json"
        with pytest.raises(TypeError):
            checkpoint.write_entry(path, ("k",), {"bad": {1, 2}})
        assert not list(tmp_path.iterdir())


# -- the store tier -------------------------------------------------------------


def _spans(name: str) -> int:
    return telemetry.get_recorder().span_totals().get(name, {}).get("calls", 0)


def _dispatches() -> float:
    counters = telemetry.get_recorder().counters()
    return sum(v for k, v in counters.items() if k.startswith("kernel.") and k.endswith("dispatch"))


def _sim_counts() -> float:
    counters = telemetry.get_recorder().counters()
    return sum(v for k, v in counters.items() if k.startswith("sim."))


def _result_entry(tmp_path):
    (path,) = tmp_path.glob("result-*.json")
    return path


class TestWarmFromStore:
    def test_second_process_answers_from_result_entries(self, tmp_path, monkeypatch):
        from repro.eval.experiments import speedup_figure
        from repro.nets.models import alexnet

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "1")
        cold = speedup_figure(alexnet(), fast=True)
        assert _sim_counts() > 0 and _dispatches() > 0

        clear_caches()  # a fresh process over the populated store
        telemetry.reset()
        warm = speedup_figure(alexnet(), fast=True)

        assert warm["layers"] == cold["layers"]
        assert warm["geomean"] == cold["geomean"]
        results = [
            (r_cold, warm["comparison"].results[scheme][layer])
            for scheme, per_layer in cold["comparison"].results.items()
            for layer, r_cold in per_layer.items()
        ]
        for r_cold, r_warm in results:
            _same_bits(r_warm, r_cold)
        assert _sim_counts() == 0
        assert _spans("synthesize") == 0
        assert _spans("simulate") == 0
        assert _spans("chunk_work") == 0
        assert _dispatches() == 0
        assert cache_stats()["results"]["disk_hits"] == len(results)
        assert _counter("cache.result.disk_hit") == len(results)

    def test_fig14_answers_from_the_store_without_synthesis(self, tmp_path, monkeypatch):
        from repro.eval.experiments import gb_impact_figure

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = gb_impact_figure()
        assert _spans("synthesize") == 1
        assert _counter("cache.result.disk_store") == 1

        clear_caches()
        telemetry.reset()
        warm = gb_impact_figure()
        _same_bits(warm, cold)
        assert _spans("synthesize") == 0
        assert _counter("cache.result.disk_hit") == 1


def _fig7():
    from repro.eval.experiments import speedup_figure
    from repro.nets.models import alexnet

    return speedup_figure(alexnet(), fast=True)


@pytest.fixture(scope="module")
def fig7_store(tmp_path_factory):
    """A store populated by one serial fig7 run, and that run's figure."""
    store = tmp_path_factory.mktemp("fig7-store")
    clear_caches()
    with config.use(dataclasses.replace(config.current(), cache_dir=str(store), jobs=1)):
        fig = _fig7()
    clear_caches()
    return store, fig


class TestPreResolvedWarmRuns:
    """A ``REPRO_JOBS=2`` fig7 answers stored results in the parent."""

    @pytest.fixture
    def store(self, fig7_store, tmp_path, monkeypatch):
        store = tmp_path / "store"
        shutil.copytree(fig7_store[0], store)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        yield store
        parallel.shutdown_pool()

    @staticmethod
    def _same_figure(got, want):
        assert got["layers"] == want["layers"]
        assert got["geomean"] == want["geomean"]
        for scheme, per_layer in want["comparison"].results.items():
            for layer, result in per_layer.items():
                _same_bits(got["comparison"].results[scheme][layer], result)

    def _rerun(self):
        clear_caches()
        telemetry.reset()
        return _fig7()

    def test_warm_run_starts_no_pool_and_counts_deterministically(self, store, fig7_store):
        splits = []
        for _ in range(3):
            self._same_figure(self._rerun(), fig7_store[1])
            assert _counter("parallel.pool_start") == 0
            assert _spans("synthesize") == _spans("simulate") == _spans("chunk_work") == 0
            splits.append((_counter("cache.result.hit"), _counter("cache.result.disk_hit")))
        assert splits[0][1] > 0
        assert splits == [splits[0]] * 3

    def _layer_keys(self, fig, layer):
        from repro.eval.experiments import _fast_cfg
        from repro.nets.models import alexnet
        from repro.sim.config import config_for

        net = alexnet()
        cfg = _fast_cfg(config_for(net), True)
        spec = net.layer(layer)
        return [workload.result_key(s, spec, cfg, 0) for s in fig["comparison"].schemes]

    def test_a_missing_layer_recomputes_alone_in_a_worker(self, store, fig7_store):
        fig = fig7_store[1]
        keys = self._layer_keys(fig, "Layer2")
        for key in keys:
            workload._result_path(key).unlink()
        self._same_figure(self._rerun(), fig)
        # One item missed, and the call asked for a pool: one pool starts.
        assert _counter("parallel.pool_start") == 1
        assert _spans("simulate") == len(keys)
        # The store keeps no workloads: the worker rebuilds the layer.
        assert _spans("synthesize") == 1
        # The parent memoised only what it pre-resolved; the worker
        # computed the missing layer.
        n_layers = len(fig["comparison"].layer_names)
        assert cache_stats()["results"]["entries"] == (n_layers - 1) * len(keys)

    def test_a_truncated_entry_is_quarantined_and_counted_once(self, store, fig7_store):
        fig = fig7_store[1]
        (key,) = [k for k in self._layer_keys(fig, "Layer2") if k[2] == "sparten"]
        path = workload._result_path(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        self._same_figure(self._rerun(), fig)
        assert _counter("cache.disk.quarantine") == 1
        assert path.with_suffix(".json.corrupt").exists()
        assert _counter("parallel.pool_start") == 1
        assert _spans("simulate") == 1


class TestDamage:
    def _populate(self, tmp_path, monkeypatch, spec, cfg):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = compare.run_scheme_cached("sparten", spec, cfg, 0)
        clear_caches()
        telemetry.reset()
        return result

    def test_bit_flip_is_quarantined_not_trusted(self, tmp_path, monkeypatch, tiny_spec, mini_cfg):
        result = self._populate(tmp_path, monkeypatch, tiny_spec, mini_cfg)
        path = _result_entry(tmp_path)
        raw = bytearray(path.read_bytes())
        # Change the leading digit of the cycles (the record's third
        # field): same length, still valid JSON, another float -- only
        # the checksum can tell.
        names = json.dumps([result.scheme, result.layer_name], separators=(",", ":"))
        head = b'{"LayerResult":[' + names[1:-1].encode() + b","
        at = raw.index(head) + len(head)
        assert raw[at:].startswith(repr(result.cycles).encode())
        raw[at] = ord("2") if raw[at] == ord("1") else ord("1")
        path.write_bytes(bytes(raw))
        assert len(raw) == path.stat().st_size

        again = compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 0)
        _same_bits(again, result)
        assert _counter("cache.disk.quarantine") == 1
        assert _spans("simulate") == 1
        assert path.with_suffix(".json.corrupt").exists()
        assert path.exists()  # the recompute republished a healthy entry

    @pytest.mark.parametrize("damage", ["truncate", "garble"])
    def test_torn_or_garbled_entry_is_quarantined(
        self, tmp_path, monkeypatch, tiny_spec, mini_cfg, damage
    ):
        result = self._populate(tmp_path, monkeypatch, tiny_spec, mini_cfg)
        path = _result_entry(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] if damage == "truncate" else b"\x00\xffjunk")
        again = compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 0)
        _same_bits(again, result)
        assert _counter("cache.disk.quarantine") == 1

    def test_collision_counts_and_recomputes(self, tmp_path, monkeypatch, tiny_spec, mini_cfg):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seed0 = compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 0)
        key0 = workload.result_key("sparten", tiny_spec, mini_cfg, 0)
        key1 = workload.result_key("sparten", tiny_spec, mini_cfg, 1)
        # Fake a digest collision: seed 1's file name holds seed 0's entry.
        shutil.copy(workload._result_path(key0), workload._result_path(key1))
        clear_caches()
        telemetry.reset()
        seed1 = compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 1)
        assert _counter("cache.disk.collision") == 1
        assert _spans("simulate") == 1
        assert _counter("cache.disk.quarantine") == 0  # healthy, just foreign
        clear_caches()
        direct = compare._run_scheme(
            "sparten", tiny_spec, mini_cfg,
            *workload.get_workload(tiny_spec, mini_cfg, 1), 1,
        )
        assert seed1 == direct
        assert seed1 != seed0

    def test_source_fingerprint_keys_both_tiers(self, tmp_path, monkeypatch, tiny_spec, mini_cfg):
        self._populate(tmp_path, monkeypatch, tiny_spec, mini_cfg)
        compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 0)
        assert _counter("cache.result.disk_hit") == 1  # the store is warm
        clear_caches()
        telemetry.reset()
        monkeypatch.setattr(workload, "source_fingerprint", lambda: "edited source")
        compare.run_scheme_cached("sparten", tiny_spec, mini_cfg, 0)
        assert _counter("cache.result.disk_hit") == 0
        assert _spans("chunk_work") == 1
        assert _spans("simulate") == 1

    def test_both_key_kinds_carry_the_fingerprint(self, tiny_spec, mini_cfg):
        fingerprint = workload.source_fingerprint()
        assert len(fingerprint) == 64
        assert workload.result_key("x", tiny_spec, mini_cfg, 0)[1] == fingerprint
        assert workload.workload_key(tiny_spec, mini_cfg, 0)[1] == fingerprint

    def test_cache_corrupt_damages_one_entry_of_each_kind(
        self, tmp_path, monkeypatch, tiny_spec, mini_cfg
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT", "cache_corrupt:1")
        monkeypatch.setenv("REPRO_FAULT_SEED", "91")  # a fresh plan, fresh budgets
        for scheme in ("dense", "sparten"):
            compare.run_scheme_cached(scheme, tiny_spec, mini_cfg, 0)
        # The store has one entry kind; the budget of 1 spends on the first.
        assert _counter("fault.cache_corrupt") == 1
        monkeypatch.delenv("REPRO_FAULT")
        report = scan_store(tmp_path)
        assert report.healthy == 1
        (quarantined,) = report.quarantined
        assert quarantined.endswith(".json.corrupt")


class TestDoctor:
    def test_scan_verifies_result_entries(self, tmp_path, monkeypatch, tiny_spec, mini_cfg):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for scheme in ("dense", "sparten"):
            compare.run_scheme_cached(scheme, tiny_spec, mini_cfg, 0)
        entries = sorted(tmp_path.glob("result-*.json"))
        assert len(entries) == 2
        raw = bytearray(entries[0].read_bytes())
        raw[-10] ^= 0x02
        entries[0].write_bytes(bytes(raw))
        report = scan_store(tmp_path)
        assert report.healthy == 1
        assert report.quarantined == [str(entries[0]) + ".corrupt"]
