"""Chaos tests: the engine under injected crashes, stalls and corruption.

Every test here follows the same contract: inject a fault through
``REPRO_FAULT`` (or a purpose-built crashing worker), let the resilience
layer absorb it, and assert that (a) the run completes, (b) the output is
identical to a clean run, and (c) the telemetry counters prove the
degradation path actually fired -- a chaos test that silently exercises
the happy path is worse than no test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time
import warnings

import pytest

from repro import telemetry
from repro.core import parallel
from repro.core.workload import clear_caches
from repro.resilience import checkpoint, faults, resilience_summary
from repro.resilience.doctor import render_report, scan_store
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.retry import RetryPolicy, call_with_retry


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    # Chaos knobs must never leak between tests; registering the vars
    # with monkeypatch restores whatever state the test started from,
    # including mutations made by code under test (cli --resume).
    for var in ("REPRO_FAULT", "REPRO_FAULT_SEED", "REPRO_FAULT_SLEEP",
                "REPRO_CACHE_DIR", "REPRO_JOBS",
                "REPRO_RETRIES", "REPRO_ITEM_TIMEOUT"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    clear_caches()
    telemetry.reset()
    yield
    clear_caches()
    telemetry.reset()


# ---------------------------------------------------------------------------
# Fault plan semantics.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rate_mode_is_deterministic(self):
        a = FaultPlan.parse("worker_crash:0.3", seed=7)
        b = FaultPlan.parse("worker_crash:0.3", seed=7)
        draws_a = [a.should_fire("worker_crash", f"t{i}") for i in range(64)]
        draws_b = [b.should_fire("worker_crash", f"t{i}") for i in range(64)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_rate_mode_depends_on_seed_and_attempt(self):
        plan = FaultPlan.parse("worker_crash:0.3", seed=7)
        other = FaultPlan.parse("worker_crash:0.3", seed=8)
        by_seed = [plan.should_fire("worker_crash", f"t{i}") for i in range(64)]
        by_other = [other.should_fire("worker_crash", f"t{i}") for i in range(64)]
        assert by_seed != by_other
        by_attempt = [
            plan.should_fire("worker_crash", "t0", attempt=k) for k in range(64)
        ]
        assert any(by_attempt) and not all(by_attempt)

    def test_budget_mode_fires_exactly_n_times(self):
        plan = FaultPlan.parse("cache_corrupt:3")
        fired = [plan.should_fire("cache_corrupt") for _ in range(10)]
        assert fired == [True] * 3 + [False] * 7

    def test_malformed_clauses_drop_without_crashing(self):
        plan = FaultPlan.parse("nonsense,rate:,neg:-2,ok:0.5")
        assert plan.rates == {"ok": 0.5}
        assert plan.budgets == {}

    def test_suppression_blocks_firing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1000")
        assert faults.fire("worker_crash", "a")
        with faults.suppressed():
            assert not faults.fire("worker_crash", "b")
        assert faults.fire("worker_crash", "c")

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        assert faults.active_plan() is None
        assert not faults.fire("worker_crash", "x")


# ---------------------------------------------------------------------------
# Retry policy.
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_env_roundtrip_with_clamping(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_ITEM_TIMEOUT", "-3")
        policy = RetryPolicy.from_config()
        assert policy.retries == 5
        assert policy.backoff == 0.5
        assert policy.item_timeout == 0.0  # negative clamps to disabled

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(retries=3, backoff=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_call_with_retry_recovers_and_counts(self):
        telemetry.reset()
        state = {"failures": 2}

        def flaky(x):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise RuntimeError("transient")
            return x + 1

        policy = RetryPolicy(retries=3, backoff=0.0)
        assert call_with_retry(flaky, 41, policy, token="t") == 42
        assert telemetry.get_recorder().counters()["resilience.retry"] == 2.0

    def test_exhausted_budget_propagates_original_error(self):
        def always_fails(_):
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError, match="deterministic bug"):
            call_with_retry(always_fails, 0, RetryPolicy(retries=2, backoff=0.0))

    def test_final_attempt_suppresses_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1000")

        def crashes_unless_suppressed(x):
            if faults.fire("worker_crash", "inner"):
                raise InjectedFault("boom")
            return x

        # Even a crash-always plan cannot defeat the final attempt.
        assert call_with_retry(
            crashes_unless_suppressed, 9, RetryPolicy(retries=1, backoff=0.0)
        ) == 9


# ---------------------------------------------------------------------------
# parallel_map under injected failures.
# ---------------------------------------------------------------------------


def _identity_x10(x):
    return x * 10


def _logged_call(x):
    """Append one line per invocation to a per-item side-effect file."""
    base = pathlib.Path(os.environ["REPRO_TEST_INVOKE_DIR"])
    with open(base / f"calls-{x}.log", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return x * 10


def _logged_then_kill(x):
    """Item 1 kills its worker -- after item 0 has visibly completed."""
    base = pathlib.Path(os.environ["REPRO_TEST_INVOKE_DIR"])
    with open(base / f"calls-{x}.log", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    if x == 1 and parallel._IN_WORKER:
        deadline = time.monotonic() + 30.0
        while not (base / "calls-0.log").exists():
            if time.monotonic() > deadline:  # pragma: no cover - safety net
                break
            time.sleep(0.01)
        time.sleep(0.3)  # let the pool's manager thread collect item 0
        os._exit(1)
    return x * 10


def _invocations(base: pathlib.Path, item: int) -> int:
    path = base / f"calls-{item}.log"
    return len(path.read_text().splitlines()) if path.exists() else 0


class TestParallelMapChaos:
    def test_injected_crash_retries_and_matches_serial(self, monkeypatch):
        serial = parallel.parallel_map(_identity_x10, list(range(6)), jobs=1)
        telemetry.reset()
        # Every worker's first item raises InjectedFault; retries absorb it.
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        fanned = parallel.parallel_map(_identity_x10, list(range(6)), jobs=2)
        assert fanned == serial
        counters = telemetry.get_recorder().counters()
        assert counters["resilience.retry"] >= 1

    def test_pool_death_keeps_completed_items(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INVOKE_DIR", str(tmp_path))
        telemetry.reset()
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            results = parallel.parallel_map(_logged_then_kill, [0, 1], jobs=2)
        assert results == [0, 10]
        # Item 0 completed before the pool died: kept, never recomputed.
        assert _invocations(tmp_path, 0) == 1
        # Item 1 killed its worker, then recomputed serially in the parent.
        assert _invocations(tmp_path, 1) == 2
        assert telemetry.get_recorder().counters()["pool_fallback"] == 1.0

    def test_item_timeout_recomputes_locally(self, monkeypatch):
        telemetry.reset()
        # Each worker's first item stalls well past the watchdog.
        monkeypatch.setenv("REPRO_FAULT", "timeout:1")
        monkeypatch.setenv("REPRO_FAULT_SLEEP", "1.5")
        monkeypatch.setenv("REPRO_ITEM_TIMEOUT", "0.3")
        results = parallel.parallel_map(_identity_x10, [0, 1], jobs=2)
        assert results == [0, 10]
        assert telemetry.get_recorder().counters()["resilience.timeout"] >= 1

    def test_serial_path_never_injects(self, monkeypatch):
        # Faults live at the worker boundary: a serial run (jobs=1) is the
        # clean baseline even with a crash-everything plan in the env.
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1000,worker_kill:1000")
        assert parallel.parallel_map(_identity_x10, [1, 2, 3], jobs=1) == [
            10, 20, 30,
        ]

    def test_invalid_jobs_env_warns_and_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        telemetry.reset()
        assert parallel.default_jobs() == 1
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err
        assert telemetry.get_recorder().counters()["env.invalid"] >= 1

    def test_negative_jobs_env_clamps_with_warning(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "-4")
        assert parallel.default_jobs() == 1
        assert "REPRO_JOBS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Checkpoint/resume.
# ---------------------------------------------------------------------------


def _tiny_comparison(mini_cfg):
    from repro.core.compare import compare_architectures
    from repro.nets.layers import ConvLayerSpec
    from repro.nets.models import NetworkSpec

    mk = ConvLayerSpec
    net = NetworkSpec(
        name="ckptnet",
        layers=(
            mk("L0", 8, 8, 20, kernel=3, n_filters=8, padding=1,
               input_density=0.5, filter_density=0.5),
            mk("L1", 6, 6, 24, kernel=3, n_filters=8, stride=2,
               input_density=0.3, filter_density=0.4),
            mk("L2", 5, 5, 16, kernel=1, n_filters=12,
               input_density=0.6, filter_density=0.3),
        ),
    )
    schemes = ("dense", "one_sided", "sparten")
    return compare_architectures(net, schemes=schemes, cfg=mini_cfg, jobs=1)


class TestCheckpointResume:
    def test_results_journal_as_they_finish(self, tmp_path, monkeypatch, mini_cfg):
        # Every finished result is published to the store's result tier.
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(run_dir))
        _tiny_comparison(mini_cfg)
        entries = list(run_dir.glob("result-*.json"))
        assert len(entries) == 9  # 3 layers x 3 schemes
        counters = telemetry.get_recorder().counters()
        assert counters["cache.result.disk_store"] == 9.0

    def test_resume_reruns_only_unfinished_work(self, tmp_path, monkeypatch, mini_cfg):
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(run_dir))
        baseline = _tiny_comparison(mini_cfg)
        entries = sorted(run_dir.glob("result-*.json"))
        assert len(entries) == 9
        # Simulate a mid-run kill: two results never made it to the
        # store. A resumed run must redo exactly those two.
        for victim in entries[:2]:
            victim.unlink()
        clear_caches()
        telemetry.reset()
        resumed = _tiny_comparison(mini_cfg)
        spans = telemetry.get_recorder().span_totals()
        assert spans["simulate"]["calls"] == 2  # only the deleted pair re-ran
        for scheme in baseline.results:
            for layer, a in baseline.results[scheme].items():
                b = resumed.results[scheme][layer]
                assert a == b
                assert (a.counters is None) == (b.counters is None)
                if a.counters is not None:
                    assert a.counters.to_dict() == b.counters.to_dict()


# ---------------------------------------------------------------------------
# End-to-end determinism under faults (the acceptance criterion).
# ---------------------------------------------------------------------------


def _figure_values(fig: dict) -> str:
    """Canonical bytes of a headline dict minus instrumentation."""
    return json.dumps(
        {k: v for k, v in fig.items() if k != "extras"}, sort_keys=True
    )


@pytest.mark.slow
class TestChaosDeterminism:
    def test_headline_identical_under_crashes_and_corruption(
        self, tmp_path, monkeypatch
    ):
        from repro.eval.experiments import headline_means

        clean = _figure_values(headline_means(fast=True, seed=0))

        # Faulted pass: 2-way fan-out, every worker's first item crashes,
        # the first result entry each process publishes is truncated.
        clear_caches()
        telemetry.reset()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1,cache_corrupt:1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            faulted = headline_means(fast=True, seed=0)
        assert _figure_values(faulted) == clean
        retry_count = telemetry.get_recorder().counters().get("resilience.retry", 0)
        assert retry_count >= 1, "injected crashes never exercised the retry path"
        assert faulted["extras"]["resilience"]["retries"] == retry_count

        # Third pass over the (partially corrupted) disk cache: the
        # truncated entries quarantine and recompute, figures unchanged.
        clear_caches()
        telemetry.reset()
        monkeypatch.delenv("REPRO_FAULT")
        monkeypatch.setenv("REPRO_JOBS", "1")
        requarantined = headline_means(fast=True, seed=0)
        assert _figure_values(requarantined) == clean
        counters = telemetry.get_recorder().counters()
        assert counters.get("cache.disk.quarantine", 0) >= 1, (
            "corrupted cache entries never exercised the quarantine path"
        )
        corrupt = list((tmp_path / "cache").glob("*.corrupt"))
        assert corrupt, "quarantine must preserve the damaged bytes"


# ---------------------------------------------------------------------------
# Doctor.
# ---------------------------------------------------------------------------


class TestDoctor:
    def _populate_cache(self, cache_dir, monkeypatch):
        from repro.core.compare import run_scheme_cached
        from tests.test_workload_cache import _cfg, _spec

        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        run_scheme_cached("sparten", _spec(), _cfg(), 0)
        run_scheme_cached("sparten", _spec(), _cfg(), 1)
        return sorted(cache_dir.glob("result-*.json"))

    def test_scan_verifies_quarantines_and_prunes(self, tmp_path, monkeypatch):
        entries = self._populate_cache(tmp_path, monkeypatch)
        assert len(entries) == 2
        raw = entries[0].read_bytes()
        entries[0].write_bytes(raw[: len(raw) // 2])
        (tmp_path / "result-orphan.json.tmp").write_bytes(b"partial write")
        # An entry of the retired workload tier: nothing reads it.
        (tmp_path / "workload-old.npz").write_bytes(b"PK old workload entry")

        report = scan_store(tmp_path)
        assert report.healthy == 1
        assert len(report.quarantined) == 1
        assert not report.ok
        assert entries[0].with_suffix(".json.corrupt").exists()
        assert str(tmp_path / "workload-old.npz") in report.orphans
        text = render_report(report)
        assert "corruption found" in text

        report2 = scan_store(tmp_path, prune=True)
        assert report2.healthy == 1
        assert report2.ok
        assert report2.pruned  # the .corrupt, .tmp and .npz debris is gone
        assert not list(tmp_path.glob("*.corrupt"))
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.npz"))

    def test_scan_verifies_checkpoint_entries(self, tmp_path):
        good = tmp_path / "result-aaaa.json"
        assert checkpoint.write_entry(good, ("result", "x"), 1)
        bad = tmp_path / "result-bbbb.json"
        assert checkpoint.write_entry(bad, ("result", "y"), 2.5)
        raw = bad.read_bytes()
        bad.write_bytes(raw.replace(b"result", b"resuIt"))  # garbled body
        report = scan_store(tmp_path)
        assert report.healthy == 1
        assert len(report.quarantined) == 1

    def test_cli_doctor(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        entries = self._populate_cache(tmp_path, monkeypatch)
        raw = entries[0].read_bytes()
        entries[0].write_bytes(raw[: len(raw) // 2])
        assert main(["doctor", str(tmp_path)]) == 1  # corruption found
        capsys.readouterr()
        assert main(["doctor", str(tmp_path), "--prune"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "clean" in out

    def test_cli_doctor_requires_directory(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["doctor"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().out

    def test_cli_resume_flag_sets_journal(self, tmp_path, monkeypatch, capsys):
        # --resume DIR makes DIR the store, winning over an inherited
        # REPRO_CACHE_DIR -- for this call only: the environment is
        # left as it was.
        from repro.cli import main

        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
        run_dir = tmp_path / "run"
        clear_caches()
        assert main(["run", "fig7", "--resume", str(run_dir)]) == 0
        assert os.environ["REPRO_CACHE_DIR"] == str(elsewhere)
        assert list(run_dir.glob("result-*.json"))
        assert not list(elsewhere.glob("result-*.json"))


# ---------------------------------------------------------------------------
# Manifest integration.
# ---------------------------------------------------------------------------


class TestManifestResilience:
    def test_summary_names_are_stable(self):
        summary = resilience_summary(
            {
                "resilience.retry": 3,
                "resilience.timeout": 1,
                "pool_fallback": 1,
                "cache.disk.quarantine": 2,
                "fault.worker_crash": 4,
                "fault.cache_corrupt": 2,
                "unrelated.counter": 99,
            }
        )
        assert summary == {
            "retries": 3,
            "timeouts": 1,
            "pool_fallbacks": 1,
            "quarantines": 2,
            "faults_injected": 6,
        }

    def test_manifest_carries_and_renders_resilience(self, tmp_path):
        telemetry.reset()
        telemetry.count("resilience.retry", 2)
        telemetry.count("cache.disk.quarantine")
        manifest = telemetry.write_manifest(str(tmp_path / "m.json"), seed=0)
        assert manifest["resilience"]["retries"] == 2
        assert manifest["resilience"]["quarantines"] == 1
        rendered = telemetry.render_manifest(
            telemetry.read_manifest(str(tmp_path / "m.json"))
        )
        assert "resilience:" in rendered
        assert "retries" in rendered
