"""Tests for the observability layer: event stream, metrics, progress,
log format, bench regression tracking.

The pool tests use spawn workers, so their work functions live at module
level (picklable) and the event stream is routed to tmp paths through
``REPRO_EVENTS``. The reconciliation tests assert the stream's
invariant: it holds lifecycle records only, each kept worker attempt's
records exactly once, and its record count equals the manifest's
``events.records`` counter *exactly*, including under retries, because
a worker attempt's records and counters travel in one snapshot that is
kept or discarded whole.
"""

import dataclasses
import io
import json
import os
import pathlib

import pytest

from repro import cli, config, telemetry
from repro.core import parallel
from repro.eval import benchtrack
from repro.telemetry import events
from repro.telemetry.metrics import (
    parse_prometheus,
    prometheus_from_manifest,
    prometheus_text,
    write_metrics_snapshot,
)
from repro.telemetry.progress import ProgressRenderer

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def fresh_telemetry(monkeypatch):
    monkeypatch.delenv("REPRO_EVENTS", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture
def event_log(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(path))
    events.start_run(test=True)
    return path


def _count_and_square(x):
    """Module-level so spawn workers can unpickle it."""
    telemetry.count("test.items")
    events.emit("test.item", item=x)
    with telemetry.span("test.work", item=x):
        return x * x


def _fail_first_attempt(arg):
    """Fails once per item (cross-process marker dir), then succeeds."""
    base, x = arg
    telemetry.count("test.attempts")
    marker = pathlib.Path(base) / f"done-{x}"
    failing = not marker.exists()
    events.emit("test.attempt", item=x, failing=failing)
    if failing:
        marker.write_text("seen")
        raise RuntimeError(f"first attempt of {x} fails")
    return x


def _stream_dir_listing(_):
    """What a worker sees next to the stream while its attempt runs."""
    events.emit("test.item")
    return sorted(os.listdir(os.path.dirname(config.current().events)))


class TestStream:
    def test_disabled_is_inert(self, tmp_path):
        assert not events.enabled()
        assert events.emit("anything") is False
        assert events.describe() is None

    def test_emit_records_schema_and_fields(self, event_log):
        assert events.enabled()
        assert events.emit("pipeline.layer", name="L0", value=3, density=0.5)
        records = events.read_events(event_log)
        assert records[0]["kind"] == "run.start"
        layer = records[-1]
        assert layer["schema"] == events.EVENTS_SCHEMA
        assert layer["kind"] == "pipeline.layer"
        assert layer["name"] == "L0"
        assert layer["value"] == 3.0
        assert layer["density"] == 0.5
        assert {"ts", "pid", "seq"} <= set(layer)

    def test_start_run_truncates(self, tmp_path, monkeypatch):
        path = tmp_path / "ev.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        events.start_run()
        events.emit("x")
        events.start_run()
        records = events.read_events(path)
        assert [r["kind"] for r in records] == ["run.start"]

    def test_counters_and_gauges_stay_out_of_the_stream(self, event_log):
        telemetry.count("test.hits")
        telemetry.count("test.hits", 2)
        telemetry.gauge("test.level", 0.5)
        records = events.read_events(event_log)
        assert [r["kind"] for r in records] == ["run.start"]
        counters = telemetry.get_recorder().counters()
        assert counters["test.hits"] == 3.0
        # The recorder counts the records instead of the stream the counts.
        assert counters[events.RECORDS_COUNTER] == len(records)

    def test_describe_feeds_the_manifest(self, event_log):
        telemetry.count("test.hits")
        events.emit("test.marker")
        manifest = telemetry.build_manifest()
        assert manifest["schema"] == "repro-manifest/2"
        assert manifest["events"]["path"] == str(event_log)
        assert manifest["events"]["schema"] == events.EVENTS_SCHEMA
        assert manifest["counters"][events.RECORDS_COUNTER] == len(
            events.read_events(event_log)
        ) == 2
        assert manifest["metrics_snapshot"] is None


class TestValidation:
    def _record(self, seq, ts=1.0, pid=1, kind="counter"):
        return {
            "schema": events.EVENTS_SCHEMA,
            "ts": ts,
            "pid": pid,
            "seq": seq,
            "kind": kind,
        }

    def test_accepts_clean_stream(self):
        records = [self._record(i, ts=float(i)) for i in range(4)]
        summary = events.validate_events(records)
        assert summary["records"] == 4
        assert summary["pids"] == [1]

    def test_rejects_duplicates_gaps_and_time_travel(self):
        with pytest.raises(ValueError, match="duplicated"):
            events.validate_events([self._record(0), self._record(0)])
        with pytest.raises(ValueError, match="lost events"):
            events.validate_events([self._record(0), self._record(2)])
        with pytest.raises(ValueError, match="regressed"):
            events.validate_events(
                [self._record(0, ts=2.0), self._record(1, ts=1.0)]
            )
        with pytest.raises(ValueError, match="missing required"):
            events.validate_events([{"schema": events.EVENTS_SCHEMA}])
        with pytest.raises(ValueError, match="schema"):
            events.validate_events(
                [dict(self._record(0), schema="repro-events/999")]
            )

    def test_cross_pid_clock_skew_is_not_a_regression(self):
        # Workers on skewed clocks legitimately interleave equal or
        # backward timestamps in the merged stream; only each pid's own
        # (ts, seq) order is an invariant.
        records = [
            self._record(0, ts=5.0, pid=1),
            self._record(0, ts=3.0, pid=2),  # pid 2's clock runs behind
            self._record(1, ts=5.0, pid=1),  # equal ts within pid 1 is fine
            self._record(1, ts=4.0, pid=2),
        ]
        summary = events.validate_events(records)
        assert summary["pids"] == [1, 2]
        # ...but a single pid's own stream going backward still fails.
        with pytest.raises(ValueError, match="regressed"):
            events.validate_events(
                [self._record(0, ts=5.0, pid=2), self._record(1, ts=3.0, pid=2)]
            )

    def test_allow_gaps_relaxes_contiguity_only(self):
        records = [self._record(0, ts=1.0), self._record(2, ts=2.0)]
        summary = events.validate_events(records, allow_gaps=True)
        assert summary["records"] == 2
        with pytest.raises(ValueError, match="duplicated"):
            events.validate_events(
                [self._record(0), self._record(0)], allow_gaps=True
            )


class TestPoolMerge:
    def test_two_worker_pool_merges_without_loss(self, event_log, tmp_path):
        results = parallel.parallel_map(_count_and_square, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        records = events.read_events(event_log)
        summary = events.validate_events(records)  # strict: no gaps allowed
        assert len(summary["pids"]) >= 2  # parent + at least one worker
        # Each kept attempt's records appear exactly once, from a worker.
        items = [r for r in records if r["kind"] == "test.item"]
        assert sorted(r["item"] for r in items) == [1, 2, 3, 4]
        assert os.getpid() not in {r["pid"] for r in items}
        assert not list(tmp_path.glob("*.part"))
        # The stream holds lifecycle records only, counted exactly.
        assert not {"counter", "gauge"} & set(summary["kinds"])
        counters = telemetry.build_manifest()["counters"]
        assert counters[events.RECORDS_COUNTER] == len(records)
        assert counters["test.items"] == 4.0

    def test_retried_failures_keep_reconciliation_exact(
        self, event_log, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        markers = tmp_path / "markers"
        markers.mkdir()
        items = [(str(markers), x) for x in (1, 2, 3)]
        assert parallel.parallel_map(_fail_first_attempt, items, jobs=2) == [1, 2, 3]
        records = events.read_events(event_log)
        # Discarded attempts consume worker seq numbers: gaps are expected.
        events.validate_events(records, allow_gaps=True)
        # Only the kept (second) attempts' records and counters survive.
        attempts = [r for r in records if r["kind"] == "test.attempt"]
        assert sorted(r["item"] for r in attempts) == [1, 2, 3]
        assert not any(r["failing"] for r in attempts)
        counters = telemetry.build_manifest()["counters"]
        assert counters["test.attempts"] == 3.0
        assert counters[events.RECORDS_COUNTER] == len(records)
        # ...and the parent logged each retry as a lifecycle event.
        retries = [r for r in records if r["kind"] == "resilience.retry"]
        assert len(retries) == 3
        assert counters["resilience.retry"] == 3.0

    def test_workers_never_create_part_files(self, event_log):
        listings = parallel.parallel_map(_stream_dir_listing, [0, 1, 2], jobs=2)
        # Seen from inside each running attempt: the stream is the only file.
        assert listings == [[event_log.name]] * 3
        assert len([r for r in events.read_events(event_log)
                    if r["kind"] == "test.item"]) == 3

    def test_a_later_pool_call_only_appends(self, event_log):
        parallel.parallel_map(_count_and_square, [1, 2], jobs=2)
        before = event_log.read_bytes()
        parallel.parallel_map(_count_and_square, [3, 4], jobs=2)
        after = event_log.read_bytes()
        assert len(after) > len(before)
        assert after.startswith(before)


class TestTraceContext:
    def test_worker_spans_reparent_and_trace_links_flows(self, event_log):
        parallel.parallel_map(_count_and_square, [1, 2, 3, 4], jobs=2)
        rec = telemetry.get_recorder()
        span_events = rec.events()
        pool = [e for e in span_events if e["name"] == "parallel_map"]
        assert len(pool) == 1
        pool_id = pool[0]["id"]
        cross = [
            e
            for e in span_events
            if e["name"] == "test.work" and e["pid"] != os.getpid()
        ]
        assert cross, "no item actually ran in a worker"
        assert all(e["parent"] == pool_id for e in cross)
        trace = telemetry.chrome_trace(rec)["traceEvents"]
        flows = [e for e in trace if e["ph"] in ("s", "f")]
        assert flows and len(flows) % 2 == 0
        assert all(e["cat"] == "repro.flow" for e in flows)
        nested = [
            e
            for e in trace
            if e["ph"] == "X" and e.get("args", {}).get("parent_span") == pool_id
        ]
        assert len(nested) >= len(cross)


class TestPrometheus:
    def test_live_text_round_trips_through_scraper(self):
        telemetry.count("cache.workload.hit", 3)
        telemetry.gauge("mac_utilization", 0.42)
        with telemetry.span("simulate"):
            pass
        text = prometheus_text()
        samples = parse_prometheus(text)
        assert samples[("repro_cache_workload_hit_total", ())] == 3.0
        assert samples[("repro_mac_utilization", ())] == 0.42
        assert samples[("repro_span_calls_total", (("span", "simulate"),))] == 1.0
        assert ("repro_span_seconds_total", (("span", "simulate"),)) in samples

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_prometheus("repro_x 1\nrepro_x 2")

    def test_stats_prometheus_flag(self, tmp_path, capsys):
        telemetry.count("kernel.native_dispatch", 7)
        path = tmp_path / "manifest.json"
        telemetry.write_manifest(str(path), seed=0)
        assert cli.main(["stats", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        samples = parse_prometheus(out)
        assert samples[("repro_kernel_native_dispatch_total", ())] == 7.0

    def test_manifest_rendering_matches_live(self, tmp_path):
        telemetry.count("test.hits", 2)
        manifest = telemetry.build_manifest()
        assert prometheus_from_manifest(manifest) == prometheus_text()

    def test_snapshot_file_and_final_window_write(self, tmp_path):
        telemetry.count("test.hits", 4)
        path = tmp_path / "metrics.prom"
        write_metrics_snapshot(path)
        assert parse_prometheus(path.read_text())[("repro_test_hits_total", ())] == 4.0
        # A CLI run window (which resets the recorder) always writes a
        # final snapshot on exit.
        bound = dataclasses.replace(config.current(), metrics=str(path))
        with config.use(bound), cli._run_window("test"):
            telemetry.count("test.hits")
        assert parse_prometheus(path.read_text())[("repro_test_hits_total", ())] == 1.0


class TestProgress:
    def test_heartbeat_lines_off_tty(self):
        out = io.StringIO()
        progress = ProgressRenderer(total=4, label="sweep", stream=out, mode="heartbeat")
        for done in (1, 2, 3, 4):
            progress.update(done=done)
        progress.close()
        lines = [l for l in out.getvalue().splitlines() if l]
        # Rate-limited: only the final update is guaranteed a line.
        assert lines
        assert "sweep 4/4 (100%)" in lines[-1]

    def test_tty_mode_rewrites_in_place(self):
        out = io.StringIO()
        with ProgressRenderer(total=2, label="pool", stream=out, mode="tty") as p:
            p.update(done=1, retries=2)
            p.update(done=2, retries=2)
        text = out.getvalue()
        assert "\r" in text
        assert text.endswith("\n")
        assert "pool 2/2 (100%)" in text
        assert "retries 2" in text

    def test_off_mode_still_emits_events(self, event_log):
        out = io.StringIO()
        progress = ProgressRenderer(total=2, label="x", stream=out, mode="off")
        progress.update(done=2)
        progress.close()
        assert out.getvalue() == ""
        kinds = [r["kind"] for r in events.read_events(event_log)]
        assert "progress" in kinds

    def test_env_gating(self, monkeypatch):
        from repro.telemetry.progress import progress_mode

        monkeypatch.setenv("REPRO_PROGRESS", "off")
        assert progress_mode() == "off"
        monkeypatch.setenv("REPRO_PROGRESS", "on")
        assert progress_mode() in ("tty", "heartbeat")


class TestLogFormat:
    def test_json_format_emits_parseable_lines(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "INFO")
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        telemetry.get_logger("fmt").info("structured %s", telemetry.kv(k=1))
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.fmt"
        assert record["message"] == "structured k=1"
        assert isinstance(record["ts"], float)

    def test_human_format_stays_default(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "INFO")
        monkeypatch.delenv("REPRO_LOG_FORMAT", raising=False)
        telemetry.get_logger("fmt").info("plain message")
        err = capsys.readouterr().err
        assert "plain message" in err
        with pytest.raises(ValueError):
            json.loads(err.strip().splitlines()[-1])


class TestDoctorEvents:
    def test_quarantine_and_prune_emit_events(self, tmp_path, event_log):
        from repro.resilience.doctor import scan_store

        store = tmp_path / "cache"
        store.mkdir()
        (store / "result-bad.json").write_bytes(b"not an entry")
        report = scan_store(store, prune=True)
        assert not report.ok
        records = events.read_events(event_log)
        kinds = [r["kind"] for r in records]
        assert "doctor.quarantine" in kinds
        assert "doctor.prune" in kinds
        summary = [r for r in records if r["kind"] == "doctor.report"][-1]
        assert summary["quarantined"] == 1
        assert summary["ok"] is False
        counters = telemetry.get_recorder().counters()
        assert counters["cache.disk.quarantine"] == 1.0
        assert counters["cache.disk.prune"] == 1.0


class TestBenchTrack:
    def _write_bench(self, outdir, speedup=10.0, ratio=6.0):
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "BENCH_demo.json").write_text(
            json.dumps(
                {
                    "schema": "x/1",
                    "native": True,
                    "memory": {"ratio": ratio},
                    "variants": {"gb_h": {"speedup": speedup}},
                }
            )
        )

    def _write_baseline(self, path, speedup=10.0, ratio=6.0, tol=0.2):
        path.write_text(
            json.dumps(
                {
                    "schema": benchtrack.BASELINE_SCHEMA,
                    "metrics": {
                        "demo.variants.gb_h.speedup": {
                            "value": speedup,
                            "tolerance": tol,
                            "direction": "higher",
                        },
                        "demo.memory.ratio": {
                            "value": ratio,
                            "tolerance": 0.05,
                            "direction": "band",
                        },
                    },
                }
            )
        )

    def test_collect_flattens_numeric_leaves_only(self, tmp_path):
        self._write_bench(tmp_path, speedup=12.5, ratio=6.5)
        metrics = benchtrack.collect_bench_metrics(tmp_path)
        assert metrics == {
            "demo.memory.ratio": 6.5,
            "demo.variants.gb_h.speedup": 12.5,
        }  # schema string and native bool excluded

    def test_diff_statuses(self, tmp_path):
        self._write_bench(tmp_path, speedup=10.0, ratio=6.0)
        base = tmp_path / "baseline.json"
        self._write_baseline(base, speedup=10.0, ratio=6.0)
        current = benchtrack.collect_bench_metrics(tmp_path)
        rows = benchtrack.diff_against_baseline(
            current, benchtrack.load_baseline(base)
        )
        assert {r["status"] for r in rows} == {"ok"}
        assert not benchtrack.regressions(rows)
        # A >=-tolerance drop regresses; a rise improves; absence is missing.
        rows = benchtrack.diff_against_baseline(
            {"demo.variants.gb_h.speedup": 7.0}, benchtrack.load_baseline(base)
        )
        by_name = {r["metric"]: r["status"] for r in rows}
        assert by_name["demo.variants.gb_h.speedup"] == "regression"
        assert by_name["demo.memory.ratio"] == "missing"
        assert len(benchtrack.regressions(rows)) == 2
        assert len(benchtrack.regressions(rows, allow_missing=True)) == 1
        rows = benchtrack.diff_against_baseline(
            {"demo.variants.gb_h.speedup": 20.0, "demo.memory.ratio": 6.0},
            benchtrack.load_baseline(base),
        )
        assert {r["metric"]: r["status"] for r in rows}[
            "demo.variants.gb_h.speedup"
        ] == "improved"

    def test_cli_bench_diff_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "output"
        self._write_bench(out, speedup=10.0)
        base = tmp_path / "baseline.json"
        self._write_baseline(base, speedup=10.0)
        assert (
            cli.main(
                ["bench", "diff", "--baseline", str(base), "--output-dir", str(out)]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out
        # Synthetic regression beyond tolerance -> non-zero exit.
        self._write_bench(out, speedup=10.0 * (1 - 0.2) - 0.1)
        assert (
            cli.main(
                ["bench", "diff", "--baseline", str(base), "--output-dir", str(out)]
            )
            == 1
        )
        assert "FAIL" in capsys.readouterr().out

    def test_committed_baseline_passes_on_committed_outputs(self, capsys):
        baseline = REPO / "benchmarks" / "bench_baseline.json"
        outdir = REPO / "benchmarks" / "output"
        assert baseline.exists() and outdir.is_dir()
        assert (
            cli.main(
                [
                    "bench",
                    "diff",
                    "--baseline",
                    str(baseline),
                    "--output-dir",
                    str(outdir),
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_history_appends_csv_rows(self, tmp_path):
        history = tmp_path / "hist.csv"
        n = benchtrack.append_history(
            history, {"demo.variants.gb_h.speedup": 10.0}, git_sha="abc", timestamp=5
        )
        assert n == 1
        benchtrack.append_history(
            history, {"demo.variants.gb_h.speedup": 11.0}, git_sha="def", timestamp=6
        )
        lines = history.read_text().splitlines()
        assert lines[0] == "timestamp,git_sha,bench,metric,value"
        assert lines[1] == "5,abc,demo,variants.gb_h.speedup,10.0"
        assert lines[2] == "6,def,demo,variants.gb_h.speedup,11.0"


class TestCheckEventsScript:
    def test_gate_passes_on_instrumented_pool_run(self, event_log, tmp_path, capsys):
        import importlib.util

        parallel.parallel_map(_count_and_square, [1, 2, 3], jobs=2)
        manifest_path = tmp_path / "manifest.json"
        telemetry.write_manifest(str(manifest_path))
        spec = importlib.util.spec_from_file_location(
            "check_events", REPO / "benchmarks" / "check_events.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main([str(event_log), str(manifest_path)]) == 0
        records = events.read_events(event_log)
        worker = next(r for r in records if r["pid"] != os.getpid())

        def gate(tampered):
            event_log.write_text(
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in tampered)
            )
            return mod.main([str(event_log), str(manifest_path), "--allow-gaps"])

        # Tamper: one worker record dropped, or one duplicated -> must fail.
        assert gate([r for r in records if r is not worker]) == 1
        assert gate(records + [worker]) == 1
        assert gate(records) == 0

        # --min-pids: the pool run's workers wrote records; a stream the
        # parent wrote alone fails on the process count.
        args = [str(event_log), str(manifest_path), "--min-pids", "2"]
        assert mod.main(args) == 0
        gate([r for r in records if r["pid"] == os.getpid()])
        capsys.readouterr()
        assert mod.main(args) == 1
        assert "--min-pids asks for 2" in capsys.readouterr().out
