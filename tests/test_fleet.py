"""Tests for fleet observability: stream heartbeats and liveness,
aggregation, the fleet view, reconcile failure paths, the doctor's
worker counts, and the CLI surfaces (``repro top`` / ``repro inspect``,
labelled Prometheus, attributed ``bench diff``).

The FleetView tests drive a real two-worker store in-process: two
``run_shard`` calls under distinct ``REPRO_WORKER_ID``/``REPRO_EVENTS``
identities, exactly the artifact layout the CLI sweeps produce. Liveness
tests forge a stream's age with ``os.utime`` on its mtime.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro import cli, telemetry
from repro.core.workload import clear_caches
from repro.dist import fleet, health
from repro.dist import shard as dist_shard
from repro.dist import worker as dist_worker
from repro.dist.shard import SweepPlan, WorkUnit
from repro.resilience import faults
from repro.resilience.doctor import render_report, scan_store
from repro.telemetry import aggregate, events
from repro.telemetry import metrics as tmetrics


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _tiny_plan():
    return SweepPlan(
        units=tuple(
            WorkUnit("alexnet", layer, scheme, 0)
            for layer in ("Layer1", "Layer2")
            for scheme in ("sparten", "dense")
        ),
        fidelity="analytical",
        position_sample=50,
    )


def _run_two_worker_store(store, monkeypatch):
    """Plan + two sharded workers with store-resident event streams."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store / "cache"))
    plan = dist_shard.publish_plan(store, _tiny_plan())
    telemetry.reset()
    for index, worker_id in enumerate(("w0", "w1")):
        monkeypatch.setenv("REPRO_WORKER_ID", worker_id)
        monkeypatch.setenv(
            "REPRO_EVENTS", str(store / "events" / f"{worker_id}.jsonl")
        )
        dist_worker.run_shard(store, plan, shard=(index, 2), steal=False)
    monkeypatch.delenv("REPRO_EVENTS")
    return plan


def _heartbeat_stream(store, worker, age=0.0, **fields):
    """Append a heartbeat to *worker*'s stream, then age the file's mtime."""
    path = store / health.EVENTS_DIR / f"{worker}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"schema": events.EVENTS_SCHEMA, "ts": time.time(), "pid": 1,
              "seq": 0, "kind": health.HEARTBEAT, "worker": worker,
              "final": False, **fields}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


def _states(store, ttl=None):
    beats = health.latest_heartbeats(health.store_streams(store), ttl)
    return {beat["worker"]: beat["state"] for beat in beats}


def _heartbeats(path):
    # Lenient: a live tick thread may be mid-append while the test reads.
    records = aggregate.merge_event_streams([path]).records
    return [r for r in records if r["kind"] == health.HEARTBEAT]


# -- reconcile failure paths -------------------------------------------------


class TestReconcileFailures:
    def test_incomplete_plan_reports_missing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        # Only shard 0 runs, no stealing: shard 1's units stay missing.
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        report = dist_worker.reconcile(tmp_path, plan)
        assert not report["complete"]
        assert report["missing"]
        assert set(report["missing"]) <= {u.token for u in plan.units}
        assert report["exactly_once"]  # incomplete, but no double compute

    def test_duplicates_flagged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        summary = dist_worker.run_shard(tmp_path, plan, shard=None)
        # Forge a second manifest claiming one of the same computes.
        forged = dict(summary)
        forged["worker"] = "w-evil"
        forged["computed_tokens"] = [summary["computed_tokens"][0]]
        forged["computed"] = 1
        dist_worker.write_shard_manifest(tmp_path, forged)
        report = dist_worker.reconcile(tmp_path, plan)
        assert report["duplicates"] == [summary["computed_tokens"][0]]
        assert not report["exactly_once"]
        assert report["complete"]

    def test_foreign_manifest_not_a_duplicate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        summary = dist_worker.run_shard(tmp_path, plan, shard=None)
        # A manifest from some other sweep dropped into this store:
        # its tokens are not in the plan.
        alien = dict(summary)
        alien["worker"] = "w-alien"
        alien["computed_tokens"] = ["vggnet:Layer9:scnn:7"] * 2
        alien["computed"] = 2
        dist_worker.write_shard_manifest(tmp_path, alien)
        report = dist_worker.reconcile(tmp_path, plan)
        assert report["foreign"] == ["vggnet:Layer9:scnn:7"]
        # Foreign repetition is surfaced, never an exactly-once breach.
        assert report["exactly_once"]
        assert not report["duplicates"]


# -- stream heartbeats and liveness ------------------------------------------


class TestHealth:
    def test_classify_states(self, tmp_path):
        _heartbeat_stream(tmp_path, "alive", age=0.1)
        _heartbeat_stream(tmp_path, "stuck", age=1.5)
        _heartbeat_stream(tmp_path, "gone", age=2.5)
        # A clean exit's final heartbeat is never "dead", whatever its age.
        _heartbeat_stream(tmp_path, "done", age=99.0, final=True)
        assert _states(tmp_path, ttl=1.0) == {
            "alive": health.LIVE, "stuck": health.SUSPECT,
            "gone": health.DEAD, "done": health.EXITED,
        }

    def test_stream_without_heartbeat_has_no_liveness(self, tmp_path):
        path = tmp_path / health.EVENTS_DIR / "run.jsonl"
        path.parent.mkdir()
        path.write_text(json.dumps({"schema": events.EVENTS_SCHEMA, "ts": 1.0,
                                    "pid": 1, "seq": 0, "kind": "run.start"}) + "\n")
        assert _states(tmp_path) == {}

    def test_beacon_writes_start_and_final_snapshots(self, tmp_path, monkeypatch):
        stream = tmp_path / "events" / "hb-test.jsonl"
        monkeypatch.setenv("REPRO_WORKER_ID", "hb-test")
        monkeypatch.setenv("REPRO_EVENTS", str(stream))
        with health.beacon(shard="0/2") as state:
            (first,) = _heartbeats(stream)
            assert not first["final"]
            assert first["worker"] == "hb-test"
            assert first["shard"] == "0/2"
            assert first["pid"] == os.getpid()
            state.update(current_unit="u1", units_done=3)
        last = _heartbeats(stream)[-1]
        assert last["final"] and last["units_done"] == 3
        assert last["current_unit"] == "u1"
        assert _states(tmp_path) == {"hb-test": health.EXITED}

    def test_beacon_tick_rewrites_the_metrics_exposition(self, tmp_path, monkeypatch):
        stream = tmp_path / "events" / "hb-metrics.jsonl"
        prom = tmp_path / "metrics" / "hb.prom"
        monkeypatch.setenv("REPRO_WORKER_ID", "hb-metrics")
        monkeypatch.setenv("REPRO_EVENTS", str(stream))
        monkeypatch.setenv("REPRO_METRICS", str(prom))
        monkeypatch.setenv("REPRO_CLAIM_TTL", "0.6")  # one tick per 0.2 s
        telemetry.reset()
        telemetry.count("cache.workload.hit", 2)
        hits = ("repro_cache_workload_hit_total", ())
        with health.beacon():
            assert tmetrics.parse_prometheus(prom.read_text())[hits] == 2.0
            telemetry.count("cache.workload.hit")
            deadline = time.monotonic() + 10.0
            while (tmetrics.parse_prometheus(prom.read_text())[hits] != 3.0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            # Only the tick thread can have rewritten the exposition, and it
            # emits its heartbeat first: both ran under the bound config.
            assert tmetrics.parse_prometheus(prom.read_text())[hits] == 3.0
            ticked = _heartbeats(stream)[1]
            assert not ticked["final"]
            assert ticked["counters"]["cache.workload.hit"] == 3
        # The heartbeat carries the recorder's whole counter dict (the
        # final one is emitted, then counted in events.records).
        counters = dict(telemetry.get_recorder().counters())
        counters[events.RECORDS_COUNTER] -= 1
        assert _heartbeats(stream)[-1]["counters"] == counters
        telemetry.reset()

    def test_heartbeat_never_reports_a_torn_state(self, tmp_path, monkeypatch):
        # The tick thread copies the beacon's state dict without a lock
        # while the worker updates it: every heartbeat must show one
        # update whole.
        stream = tmp_path / "events" / "hb-stress.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(stream))
        state = {"current_unit": "u0", "units_done": 0}
        stop = threading.Event()

        def worker():
            i = 0
            while not stop.is_set():
                i += 1
                state.update(current_unit=f"u{i}", units_done=i)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writers = [threading.Thread(target=worker) for _ in range(3)]
        for writer in writers:
            writer.start()
        try:
            for _ in range(3000):
                health._heartbeat(state)
        finally:
            stop.set()
            for writer in writers:
                writer.join(timeout=10.0)
            sys.setswitchinterval(switch)
        assert not any(writer.is_alive() for writer in writers)
        beats = _heartbeats(stream)
        assert len(beats) == 3000 and beats[-1]["units_done"] > 0
        assert all(b["current_unit"] == f"u{b['units_done']}" for b in beats)

    def test_run_shard_leaves_exited_heartbeat(self, tmp_path, monkeypatch):
        stream = tmp_path / "events" / "w0.jsonl"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        monkeypatch.setenv("REPRO_EVENTS", str(stream))
        plan = _tiny_plan()
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        beats = _heartbeats(stream)
        assert not beats[0]["final"] and beats[0]["units_done"] == 0
        assert beats[-1]["final"] and beats[-1]["units_done"] >= 1
        assert _states(tmp_path) == {"w0": health.EXITED}
        assert not (tmp_path / "health").exists()


# -- aggregation primitives --------------------------------------------------


class TestAggregate:
    def test_merge_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        good = {"schema": events.EVENTS_SCHEMA, "ts": 1.0, "pid": 1,
                "seq": 0, "kind": "run.start"}
        path.write_text(json.dumps(good) + "\n" + '{"schema": "repro-ev')
        merged = aggregate.merge_event_streams([path])
        assert len(merged.records) == 1
        assert merged.truncated_lines == 1

    def test_merge_orders_globally(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        rec = lambda ts, pid, seq: json.dumps(  # noqa: E731
            {"schema": events.EVENTS_SCHEMA, "ts": ts, "pid": pid,
             "seq": seq, "kind": "x"}
        )
        a.write_text(rec(2.0, 1, 0) + "\n" + rec(4.0, 1, 1) + "\n")
        b.write_text(rec(1.0, 2, 0) + "\n" + rec(3.0, 2, 1) + "\n")
        merged = aggregate.merge_event_streams([a, b])
        assert [r["ts"] for r in merged.records] == [1.0, 2.0, 3.0, 4.0]

    def test_robust_zscores_flag_outlier(self):
        durations = [1.0] * 20 + [50.0]
        scores = aggregate.robust_zscores(durations)
        assert scores[-1] > aggregate.STRAGGLER_ZSCORE
        assert all(abs(s) < 1.0 for s in scores[:-1])

    def test_robust_zscores_degenerate_mad(self):
        assert aggregate.robust_zscores([3.0, 3.0, 3.0]) == [0.0, 0.0, 0.0]
        assert aggregate.robust_zscores([]) == []

    def test_find_stragglers(self):
        spans = [
            {"unit": f"u{i}", "status": "computed", "seconds": 1.0,
             "ts": float(i), "pid": 1, "shard": None, "stolen": False}
            for i in range(20)
        ]
        spans.append({"unit": "slow", "status": "computed", "seconds": 60.0,
                      "ts": 99.0, "pid": 2, "shard": None, "stolen": False})
        out = aggregate.find_stragglers(spans)
        assert [s["unit"] for s in out] == ["slow"]
        assert out[0]["zscore"] > aggregate.STRAGGLER_ZSCORE


# -- the fleet view ----------------------------------------------------------


class TestFleetView:
    def test_two_worker_store_reconciles(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.units_total == len(plan.units)
        assert view.published == len(plan.units)
        assert view.healthy
        audit = view.audit
        assert audit["complete"] and audit["exactly_once"]
        assert audit["counters_consistent"]
        assert audit["attributed"] == len(plan.units)
        assert audit["lost_attribution"] == []
        # Counter totals from the merged streams equal the manifests.
        assert audit["event_computed_total"] == audit["manifest_computed_total"]
        # Shard table covers both shards and sums to the plan.
        assert [row["shard"] for row in view.per_shard] == ["0/2", "1/2"]
        assert sum(row["units"] for row in view.per_shard) == len(plan.units)
        assert all(row["published"] == row["units"] for row in view.per_shard)
        # Both workers present, exited cleanly.
        assert [w["worker"] for w in view.workers] == ["w0", "w1"]
        assert all(w["state"] == health.EXITED for w in view.workers)

    def test_render_top_frame(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        # Recorder counters are floats; the frame prints tallies as integers.
        _heartbeat_stream(tmp_path, "w0", final=True,
                          counters={"store.claim.steal": 1.0})
        frame = fleet.render_top(fleet.build_fleet_view(tmp_path, plan))
        assert f"{len(plan.units)}/{len(plan.units)} units published" in frame
        assert "w0" in frame and "w1" in frame
        assert "0/2" in frame and "1/2" in frame
        assert "   claim-steals 1   " in frame

    def test_render_inspect_report(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        report = fleet.render_inspect(fleet.build_fleet_view(tmp_path, plan))
        assert "## Exactly-once audit" in report
        assert "verdict: HEALTHY" in report
        assert "dist.shard.start" in report  # the timeline is rendered

    def test_chrome_trace_one_lane_per_worker(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        trace = fleet.build_fleet_view(tmp_path, plan).chrome_trace()
        names = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(names) == len({e["pid"] for e in names}) >= 1
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        computed = [s for s in slices if s["args"].get("status") == "computed"]
        assert len(computed) == len(plan.units)
        assert all(s["dur"] > 0 for s in computed)

    def test_dead_worker_flagged(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        # A stream whose last heartbeat was never final and whose file is
        # stale past two TTLs: exactly what a SIGKILL'd worker leaves.
        _heartbeat_stream(tmp_path, "w-dead", age=1000.0, pid=99999,
                          shard="1/2", current_unit="x", units_done=1)
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.anomalies["dead_workers"] == ["w-dead"]
        dead = [w for w in view.workers if w["worker"] == "w-dead"]
        assert dead and dead[0]["state"] == health.DEAD
        assert dead[0]["pid"] == 99999 and dead[0]["current_unit"] == "x"
        report = fleet.render_inspect(view)
        assert "w-dead" in report and "dead workers" in report

    def test_injected_fault_is_tallied(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        # One fault fired in w0, its record in w0's stream: the fault
        # counter is named fault.<kind>, so the tally reads the record.
        monkeypatch.setenv("REPRO_EVENTS", str(tmp_path / "events" / "w0.jsonl"))
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1")
        assert faults.fire("worker_crash", token="item0")
        monkeypatch.delenv("REPRO_EVENTS")
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.tallies["faults"] == 1
        assert view.anomalies["faults"] == 1
        assert "faults 1 " in fleet.render_inspect(view)

    def test_cache_and_steal_figures_come_from_heartbeats(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        # Each stream's latest heartbeat carries its worker's counters.
        for worker, counters in (
            ("w0", {"cache.workload.hit": 3, "cache.workload.miss": 1,
                    "store.claim.steal": 1}),
            ("w1", {"cache.workload.hit": 1, "cache.workload.miss": 3}),
        ):
            _heartbeat_stream(tmp_path, worker, final=True, counters=counters)
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.cache_hit_rate == 0.5
        assert view.tallies["claim_steals"] == 1

    def test_view_without_event_streams(self, tmp_path, monkeypatch):
        # A library-level store with no REPRO_EVENTS: journal+manifests
        # are the only evidence; the audit must not fabricate losses.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        plan = dist_shard.publish_plan(tmp_path, _tiny_plan())
        dist_worker.run_shard(tmp_path, plan, shard=None)
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.healthy
        assert view.audit["lost_attribution"] == []
        assert view.events_info["streams"] == 0
        # No stream, no liveness: the worker's state renders as "-".
        (worker,) = view.workers
        assert worker["worker"] == "w0" and worker["state"] is None
        assert not (tmp_path / "health").exists()


# -- CLI surfaces ------------------------------------------------------------


class TestFleetCli:
    def test_top_once(self, tmp_path, monkeypatch, capsys):
        _run_two_worker_store(tmp_path, monkeypatch)
        assert cli.main(["top", "--store", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet:")
        assert "units published" in out

    def test_top_once_without_plan(self, tmp_path, capsys):
        assert cli.main(["top", "--store", str(tmp_path), "--once"]) == 1
        assert "repro top" in capsys.readouterr().out

    def test_inspect_writes_artifacts(self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "store"
        _run_two_worker_store(store, monkeypatch)
        trace = tmp_path / "fleet-trace.json"
        report = tmp_path / "fleet-report.md"
        payload = tmp_path / "fleet.json"
        code = cli.main([
            "inspect", "--store", str(store),
            "--trace", str(trace), "--report", str(report),
            "--json", str(payload),
        ])
        assert code == 0
        assert "Exactly-once audit" in capsys.readouterr().out
        assert "traceEvents" in json.loads(trace.read_text())
        assert "## Timeline" in report.read_text()
        view = json.loads(payload.read_text())
        assert view["healthy"] and view["audit"]["complete"]

    def test_inspect_timeline_skips_heartbeats(self, tmp_path, monkeypatch, capsys):
        _run_two_worker_store(tmp_path, monkeypatch)
        streams = health.store_streams(tmp_path)
        assert any(r["kind"] == health.HEARTBEAT for r in streams.records)
        report, trace = tmp_path / "report.md", tmp_path / "trace.json"
        assert cli.main([
            "inspect", "--store", str(tmp_path), "--report", str(report),
            "--trace", str(trace),
        ]) == 0
        timeline = report.read_text().split("## Timeline", 1)[1]
        assert "dist.unit" in timeline
        assert "heartbeat" not in timeline
        assert "heartbeat" not in capsys.readouterr().out
        marks = json.loads(trace.read_text())["traceEvents"]
        assert not [e for e in marks if e.get("name") == health.HEARTBEAT]

    def test_inspect_incomplete_exits_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = dist_shard.publish_plan(tmp_path, _tiny_plan())
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        assert cli.main(["inspect", "--store", str(tmp_path)]) == 1


# -- doctor worker counts -----------------------------------------------------


class TestDoctorHealth:
    def test_live_vs_dead_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_TTL", "10")
        _heartbeat_stream(tmp_path, "alive", age=0.0)
        _heartbeat_stream(tmp_path, "stuck", age=15.0)
        _heartbeat_stream(tmp_path, "gone", age=100.0)
        _heartbeat_stream(tmp_path, "done", age=100.0, final=True)
        report = scan_store(tmp_path)
        assert report.workers_live == 1
        assert report.workers_suspect == 1
        assert report.workers_dead == 1
        assert report.workers_exited == 1
        text = render_report(report)
        assert "live 1" in text and "dead 1" in text

    def test_streams_never_pruned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_TTL", "10")
        streams = [
            _heartbeat_stream(tmp_path, "alive", age=0.0),
            _heartbeat_stream(tmp_path, "gone", age=100.0),
            _heartbeat_stream(tmp_path, "done", age=100.0, final=True),
        ]
        report = scan_store(tmp_path, prune=True)
        assert report.workers_dead == 1 and report.workers_exited == 1
        assert report.pruned == [] and report.orphans == []
        assert all(path.exists() for path in streams)

    def test_suspect_heartbeat_not_reaped(self, tmp_path, monkeypatch):
        # Older than one TTL (so "suspect") but not yet provably dead:
        # the doctor must not destroy a possibly-live worker's stream.
        monkeypatch.setenv("REPRO_CLAIM_TTL", "10")
        suspect = _heartbeat_stream(tmp_path, "stuck", age=15.0)
        report = scan_store(tmp_path, prune=True)
        assert report.workers_suspect == 1
        assert str(suspect) not in report.pruned
        assert suspect.exists()


# -- prometheus labels (satellite) -------------------------------------------


class TestPrometheusLabels:
    def test_unsharded_exposition_unlabelled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        assert tmetrics.default_labels() == {}
        telemetry.reset()
        telemetry.count("cache.workload.hit", 2)
        samples = tmetrics.parse_prometheus(tmetrics.prometheus_text())
        assert samples[("repro_cache_workload_hit_total", ())] == 2.0

    def test_sharded_exposition_carries_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "1/4")
        telemetry.reset()
        telemetry.count("cache.workload.hit", 3)
        samples = tmetrics.parse_prometheus(tmetrics.prometheus_text())
        (key,) = [k for k in samples if k[0] == "repro_cache_workload_hit_total"]
        labels = dict(key[1])
        assert labels["shard"] == "1/4"
        assert labels["pid"] == str(os.getpid())
        assert "host" in labels
        assert samples[key] == 3.0

    def test_manifest_rendering_matches_live_when_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "0/2")
        monkeypatch.delenv("REPRO_WORKER_ID", raising=False)
        telemetry.reset()
        telemetry.count("dist.unit.computed", 5)
        with telemetry.span("simulate"):
            pass
        manifest = telemetry.build_manifest(config={})
        assert tmetrics.prometheus_from_manifest(manifest) == (
            tmetrics.prometheus_text()
        )

    def test_span_samples_merge_labels(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "0/2")
        telemetry.reset()
        with telemetry.span("simulate"):
            pass
        samples = tmetrics.parse_prometheus(tmetrics.prometheus_text())
        (key,) = [k for k in samples if k[0] == "repro_span_calls_total"]
        labels = dict(key[1])
        assert labels["span"] == "simulate" and labels["shard"] == "0/2"


# -- bench diff attribution (satellite) --------------------------------------


class TestBenchDiffAttribution:
    def test_render_diff_names_baseline_and_sha(self):
        from repro.eval import benchtrack

        rows = [{"metric": "m", "status": "ok", "value": 1.0,
                 "expected": 1.0, "tolerance": 0.1, "direction": "band"}]
        out = benchtrack.render_diff(
            rows, baseline_path="benchmarks/bench_baseline_shard.json",
            git_sha="abc1234",
        )
        first = out.splitlines()[0]
        assert "bench_baseline_shard.json" in first
        assert "abc1234" in first
        # Without attribution the table is unchanged (old callers).
        assert "baseline" in benchtrack.render_diff(rows)

    def test_cli_bench_diff_prints_attribution(self, tmp_path, capsys):
        out_dir = tmp_path / "output"
        out_dir.mkdir()
        (out_dir / "BENCH_x.json").write_text(json.dumps(
            {"schema": "repro-bench/1", "metric": 2.0}
        ))
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps({
            "schema": "repro-bench-baseline/1",
            "metrics": {"x.metric": {"value": 2.0, "tolerance": 0.1,
                                     "direction": "band"}},
        }))
        assert cli.main([
            "bench", "diff", "--baseline", str(base),
            "--output-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert str(base) in out
