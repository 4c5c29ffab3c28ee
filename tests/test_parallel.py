"""Tests for the process fan-out helper and parallel determinism."""

import dataclasses
import json
import os
import pickle
import threading
import time
import warnings

import pytest

from repro import telemetry
from repro import config
from repro.core import parallel
from repro.core.compare import compare_architectures
from repro.core.workload import clear_caches
from repro.nets.layers import ConvLayerSpec
from repro.nets.models import NetworkSpec


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel.parallel_map(_square, [3, 1, 4, 1, 5], jobs=1) == [
            9, 1, 16, 1, 25,
        ]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        serial = parallel.parallel_map(_square, items, jobs=1)
        fanned = parallel.parallel_map(_square, items, jobs=2)
        assert fanned == serial

    def test_single_item_stays_serial(self):
        # No pool spin-up for a single element, whatever jobs says.
        assert parallel.parallel_map(_square, [7], jobs=8) == [49]

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel.default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert parallel.default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert parallel.default_jobs() == 1


def _tiny_network():
    mk = ConvLayerSpec
    layers = (
        mk("L0", 8, 8, 20, kernel=3, n_filters=8, padding=1,
           input_density=0.5, filter_density=0.5),
        mk("L1", 6, 6, 24, kernel=3, n_filters=8, stride=2,
           input_density=0.3, filter_density=0.4),
        mk("L2", 5, 5, 16, kernel=1, n_filters=12,
           input_density=0.6, filter_density=0.3),
    )
    return NetworkSpec(name="tinynet", layers=layers)


class TestParallelDeterminism:
    def test_fanned_comparison_identical_to_serial(self, mini_cfg):
        import warnings

        net = _tiny_network()
        with warnings.catch_warnings():
            # mini_cfg lacks SCNN MAC parity; irrelevant to determinism.
            warnings.filterwarnings("ignore", message="resource parity")
            clear_caches()
            serial = compare_architectures(net, cfg=mini_cfg, jobs=1)
            clear_caches()
            fanned = compare_architectures(net, cfg=mini_cfg, jobs=2)
        assert fanned.schemes == serial.schemes
        assert fanned.layer_names == serial.layer_names
        for scheme in serial.results:
            for name in serial.results[scheme]:
                a = serial.results[scheme][name]
                b = fanned.results[scheme][name]
                # Dataclass equality covers every figure-facing field;
                # counters (compare=False, numpy arrays) are checked via
                # their JSON form so fan-out determinism includes them.
                assert a == b, (scheme, name)
                assert (a.counters is None) == (b.counters is None), (scheme, name)
                if a.counters is not None:
                    assert a.counters.to_dict() == b.counters.to_dict(), (
                        scheme, name,
                    )

    def test_worker_never_nests_fanout(self):
        # Workers bind a config with jobs=1 in the initializer so a
        # parallel layer fan-out cannot recursively spawn pools.
        results = parallel.parallel_map(_probe_worker_env, list(range(4)), jobs=2)
        assert all(jobs == 1 for jobs in results)


def _probe_worker_env(_):
    assert parallel._IN_WORKER
    return parallel.default_jobs()


def _emit_marker(x):
    from repro.telemetry import events

    events.emit("test.marker", item=x)
    return x


class TestPoolEventStream:
    def test_worker_events_reach_the_merged_stream(self, tmp_path, monkeypatch):
        from repro import telemetry
        from repro.telemetry import aggregate, events

        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        telemetry.reset()
        events.start_run()
        try:
            assert parallel.parallel_map(_emit_marker, [0, 1, 2, 3], jobs=2) == [
                0, 1, 2, 3,
            ]
            records = events.read_events(path)
            events.validate_events(records)
            markers = [r for r in records if r["kind"] == "test.marker"]
            assert sorted(m["item"] for m in markers) == [0, 1, 2, 3]
            assert {m["pid"] for m in markers} - {os.getpid()}
            # The file is append-only; a reader that wants one timeline
            # sorts it.
            ordered = aggregate.merge_event_streams([path]).records
            assert sorted(map(json.dumps, ordered)) == sorted(map(json.dumps, records))
            assert [r["ts"] for r in ordered] == sorted(r["ts"] for r in records)
            assert not list(tmp_path.glob("*.part"))
        finally:
            telemetry.reset()

    def test_stream_off_leaves_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        assert parallel.parallel_map(_emit_marker, [0, 1], jobs=2) == [0, 1]
        assert not list(tmp_path.iterdir())


def _worker_pid(_):
    return os.getpid()


def _bound_settings(x):
    from repro.telemetry import events

    events.emit("test.marker", item=x)
    cfg = config.current()
    return cfg.events, cfg.worker_id, cfg.jobs


def _kill_worker_on_zero(x):
    """Item 0 hard-exits its worker (a broken pool); elsewhere it squares."""
    if x == 0 and parallel._IN_WORKER:
        os._exit(87)
    return x * x


def _layer_then_pid(spec):
    from repro.core.workload import get_layer_data

    get_layer_data(spec, seed=0)
    return os.getpid()


class TestSharedPool:
    @pytest.fixture(autouse=True)
    def fresh_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        parallel.shutdown_pool()
        telemetry.reset()
        yield
        parallel.shutdown_pool()
        telemetry.reset()

    @staticmethod
    def _counter(name):
        return telemetry.get_recorder().counters().get(name, 0)

    def test_consecutive_fanouts_reuse_the_workers(self):
        first = parallel.parallel_map(_worker_pid, range(6), jobs=2)
        second = parallel.parallel_map(_worker_pid, range(6), jobs=2)
        assert os.getpid() not in first + second
        # One worker may serve every item of a map, so the second map's
        # pids need not be a subset of the first's; a reused pool of two
        # never shows more than two pids across both.
        assert len(set(first) | set(second)) <= 2
        assert self._counter("parallel.pool_start") == 1

    def test_changed_repro_env_starts_a_new_pool(self, monkeypatch):
        # The pool keys on the parsed run configuration: a knob whose
        # value changes starts fresh workers bound to the new config.
        first = parallel.parallel_map(_worker_pid, range(4), jobs=2)
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
        second = parallel.parallel_map(_worker_pid, range(4), jobs=2)
        assert set(second).isdisjoint(first)
        assert self._counter("parallel.pool_start") == 2

    def test_equal_config_reuses_the_pool(self, monkeypatch):
        # "0" and "0.0" parse to the same config, so the workers stay.
        first = parallel.parallel_map(_worker_pid, range(4), jobs=2)
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.0")
        second = parallel.parallel_map(_worker_pid, range(4), jobs=2)
        assert len(set(first) | set(second)) <= 2
        assert self._counter("parallel.pool_start") == 1

    def test_workers_see_a_config_bound_in_the_parent(self, tmp_path, monkeypatch):
        from repro.telemetry import events

        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        monkeypatch.delenv("REPRO_WORKER_ID", raising=False)
        path = tmp_path / "events.jsonl"
        bound = dataclasses.replace(
            config.current(), events=str(path), worker_id="bound-in-parent"
        )
        with config.use(bound):
            events.start_run()
            seen = parallel.parallel_map(_bound_settings, [0, 1, 2, 3], jobs=2)
        assert "REPRO_EVENTS" not in os.environ
        assert "REPRO_WORKER_ID" not in os.environ
        assert seen == [(str(path), "bound-in-parent", 1)] * 4
        markers = [r for r in events.read_events(path) if r["kind"] == "test.marker"]
        assert sorted(m["item"] for m in markers) == [0, 1, 2, 3]
        assert {m["pid"] for m in markers} - {os.getpid()}

    def test_broken_pool_is_replaced_on_the_next_call(self):
        items = [0, 1, 2, 3]
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            killed = parallel.parallel_map(_kill_worker_on_zero, items, jobs=2)
        assert killed == [x * x for x in items]
        assert self._counter("pool_fallback") == 1
        serial = parallel.parallel_map(_kill_worker_on_zero, items[1:], jobs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fanned = parallel.parallel_map(_kill_worker_on_zero, items[1:], jobs=2)
        assert pickle.dumps(fanned) == pickle.dumps(serial)
        assert self._counter("pool_fallback") == 1  # no second fallback
        assert self._counter("parallel.pool_start") == 2

    def test_watchdog_retires_pool_without_blocking(self, monkeypatch):
        # Each worker's first item stalls far past the watchdog.
        monkeypatch.setenv("REPRO_FAULT", "timeout:1")
        monkeypatch.setenv("REPRO_FAULT_SLEEP", "3")
        monkeypatch.setenv("REPRO_ITEM_TIMEOUT", "0.2")
        t0 = time.perf_counter()
        assert parallel.parallel_map(_square, [1, 2], jobs=2) == [1, 4]
        assert time.perf_counter() - t0 < 2.5
        assert self._counter("resilience.timeout") >= 1
        assert parallel._POOL is None

    def test_concurrent_callers_share_one_pool(self):
        # Several threads race to start the pool; exactly one may win.
        results = {}

        def fan(tid):
            results[tid] = parallel.parallel_map(_square, range(tid, tid + 8), jobs=3)

        threads = [threading.Thread(target=fan, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert results == {
            t: [x * x for x in range(t, t + 8)] for t in range(4)
        }
        assert self._counter("parallel.pool_start") == 1

    def test_clear_caches_retires_warm_workers(self, tiny_spec):
        specs = [tiny_spec] * 4
        warm = parallel.parallel_map(_layer_then_pid, specs, jobs=2)
        clear_caches()
        telemetry.reset()
        cold = parallel.parallel_map(_layer_then_pid, specs, jobs=2)
        assert set(cold).isdisjoint(warm)
        # Every fresh worker misses the shared layer once, then hits.
        assert self._counter("cache.workload.miss") == len(set(cold))
