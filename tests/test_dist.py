"""Tests for distributed sweeps: claims, shard planning, the worker loop,
and the concurrent-writer stress test.

The stress test runs N OS processes over one ``REPRO_CACHE_DIR`` with
overlapping keys: every process must see identical results, and the
store must end with exactly one healthy result entry per key and no
corrupt entries or orphaned temp/claim files. Spawn workers need
module-level functions; the barrier maximises contention by releasing
every process onto the same first key at once.
"""

import json
import multiprocessing as mp
import os
import time
import types

import pytest

from repro.core import workload
from repro.core.workload import clear_caches
from repro.dist import shard as dist_shard
from repro.dist import store as dist_store
from repro.dist import worker as dist_worker
from repro.dist.shard import SweepPlan, WorkUnit
from repro.resilience import checkpoint
from repro.resilience.doctor import scan_store


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


# -- claim leases -----------------------------------------------------------


class TestClaims:
    def test_single_flight_and_release(self, tmp_path):
        target = tmp_path / "entry.json"
        claim = dist_store.try_claim(target)
        assert claim is not None
        assert dist_store.claim_path(target).exists()
        # The lease is exclusive while fresh.
        assert dist_store.try_claim(target) is None
        claim.release()
        assert not dist_store.claim_path(target).exists()
        assert dist_store.try_claim(target) is not None

    def test_claim_body_records_owner(self, tmp_path):
        target = tmp_path / "entry.json"
        claim = dist_store.try_claim(target)
        body = json.loads(dist_store.claim_path(target).read_text())
        assert body["pid"] == os.getpid()
        assert body["target"] == "entry.json"
        assert body["owner"] == claim.owner

    def test_stale_claim_is_stolen(self, tmp_path):
        target = tmp_path / "entry.json"
        dead = dist_store.try_claim(target)
        assert dead is not None
        # Backdate the lease past the TTL: the owner "died" holding it.
        old = time.time() - 1000.0
        os.utime(dead.path, (old, old))
        stolen = dist_store.try_claim(target, ttl=1.0)
        assert stolen is not None
        stolen.release()

    def test_refresh_keeps_a_lease_fresh(self, tmp_path):
        target = tmp_path / "entry.json"
        claim = dist_store.try_claim(target)
        old = time.time() - 1000.0
        os.utime(claim.path, (old, old))
        claim.refresh()
        assert dist_store.try_claim(target, ttl=10.0) is None

    def test_wait_sees_publication(self, tmp_path):
        target = tmp_path / "entry.json"
        other = dist_store.try_claim(target)
        target.write_bytes(b"published")  # owner publishes...
        other.release()  # ...then releases
        claim, published = dist_store.wait_for_publication(target, ttl=5.0)
        assert claim is None and published

    def test_wait_inherits_a_lapsed_lease(self, tmp_path):
        target = tmp_path / "entry.json"
        dead = dist_store.try_claim(target)
        old = time.time() - 1000.0
        os.utime(dead.path, (old, old))  # owner died without publishing
        claim, published = dist_store.wait_for_publication(
            target, ttl=0.5, poll=0.01
        )
        assert claim is not None and not published
        claim.release()

    def test_wait_times_out_on_a_healthy_slow_owner(self, tmp_path):
        target = tmp_path / "entry.json"
        slow = dist_store.try_claim(target)
        claim, published = dist_store.wait_for_publication(
            target, ttl=30.0, poll=0.01, max_wait=0.05
        )
        assert claim is None and not published
        slow.release()

    def test_reap_orphans_age_gated(self, tmp_path):
        old = time.time() - 1000.0
        for name in ("a.tmp", "b.part", "c.json.claim"):
            (tmp_path / name).write_text("debris")
            os.utime(tmp_path / name, (old, old))
        (tmp_path / "fresh.claim").write_text("live")
        (tmp_path / "result-abc.json").write_text("healthy")
        reaped = dist_store.reap_orphans(tmp_path, age=1.0)
        assert len(reaped) == 2
        assert (tmp_path / "b.part").exists()  # not store debris
        assert (tmp_path / "fresh.claim").exists()
        assert (tmp_path / "result-abc.json").exists()


# -- shard planning ---------------------------------------------------------


class TestShardPlanner:
    def test_parse_shard(self):
        assert dist_shard.parse_shard("0/2") == (0, 2)
        assert dist_shard.parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "0/0", "1", "a/b", "1/2/3x"):
            with pytest.raises(ValueError):
                dist_shard.parse_shard(bad)

    def test_shard_of_is_deterministic_and_covering(self):
        units = [
            WorkUnit("alexnet", f"Layer{i}", scheme, seed)
            for i in range(5)
            for scheme in ("sparten", "dense")
            for seed in range(10)
        ]
        shards = dist_shard.plan_shards(units, 4)
        assert sorted(shards) == [0, 1, 2, 3]
        assert sum(len(v) for v in shards.values()) == len(units)
        # Content hashing spreads 100 units over 4 shards non-degenerately.
        assert all(len(v) > 0 for v in shards.values())
        again = dist_shard.plan_shards(units, 4)
        assert shards == again

    def test_shard_and_foreign_partition(self):
        units = tuple(
            WorkUnit("alexnet", f"Layer{i}", "sparten", s)
            for i in range(4) for s in range(4)
        )
        plan = SweepPlan(units=units)
        own = plan.shard_units((1, 3))
        foreign = plan.foreign_units((1, 3))
        assert set(u.token for u in own).isdisjoint(u.token for u in foreign)
        assert len(own) + len(foreign) == len(units)
        assert plan.shard_units(None) == units
        assert plan.foreign_units(None) == ()

    def test_plan_publish_and_adopt(self, tmp_path):
        plan = SweepPlan(
            units=(WorkUnit("alexnet", "Layer1", "sparten", 0),),
            fidelity="analytical",
            position_sample=50,
        )
        published = dist_shard.publish_plan(tmp_path, plan)
        assert published == plan
        # A second publisher with the same unit set adopts the original.
        assert dist_shard.publish_plan(tmp_path, plan) == plan
        loaded = dist_shard.load_plan(tmp_path)
        assert loaded == plan
        # A *different* sweep aimed at the same store is a loud error.
        other = SweepPlan(units=(WorkUnit("alexnet", "Layer2", "dense", 1),))
        with pytest.raises(ValueError, match="different sweep plan"):
            dist_shard.publish_plan(tmp_path, other)

    def test_load_plan_missing(self, tmp_path):
        assert dist_shard.load_plan(tmp_path, missing_ok=True) is None
        with pytest.raises(FileNotFoundError):
            dist_shard.load_plan(tmp_path)

    def test_shard_identity_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        assert dist_shard.shard_identity() is None
        monkeypatch.setenv("REPRO_SHARD", "1/2")
        identity = dist_shard.shard_identity()
        assert identity["index"] == 1 and identity["count"] == 2
        monkeypatch.setenv("REPRO_SHARD", "garbage")
        assert dist_shard.shard_identity() == {
            "shard": "garbage",
            "worker": dist_store.worker_identity(),
        }


# -- the worker loop --------------------------------------------------------


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


class TestExecuteUnit:
    def test_compute_then_skip(self, tmp_path):
        plan = _tiny_plan()
        unit = plan.units[0]
        assert dist_worker.execute_unit(tmp_path, unit, plan) == "computed"
        assert dist_worker.unit_entry(tmp_path, unit, plan).exists()
        # The result entry, not the in-memory memo, is the done marker.
        clear_caches()
        assert dist_worker.execute_unit(tmp_path, unit, plan) == "skipped"

    def test_fresh_foreign_claim_defers(self, tmp_path):
        plan = _tiny_plan()
        unit = plan.units[0]
        entry = dist_worker.unit_entry(tmp_path, unit, plan)
        peer = dist_store.try_claim(entry)  # a live peer is computing
        assert dist_worker.execute_unit(tmp_path, unit, plan) == "deferred"
        peer.release()
        assert dist_worker.execute_unit(tmp_path, unit, plan) == "computed"

    def test_wait_resolves_a_dead_peers_claim(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_TTL", "0.2")
        plan = _tiny_plan()
        unit = plan.units[0]
        entry = dist_worker.unit_entry(tmp_path, unit, plan)
        dead = dist_store.try_claim(entry)
        old = time.time() - 10.0
        os.utime(dead.path, (old, old))  # SIGKILL'd peer: stale lease
        assert dist_worker.execute_unit(tmp_path, unit, plan, wait=True) == "computed"
        assert entry.exists()

    def test_unit_key_matches_the_published_entry(self, tmp_path):
        # The dist coordination predicate (unit_entry exists) must hit
        # the exact file simulate_at_fidelity publishes through the memo.
        from repro.analytical.fidelity import fidelity_result_key

        plan = _tiny_plan()
        unit = plan.units[0]
        dist_worker.execute_unit(tmp_path, unit, plan)
        spec, cfg = dist_worker._resolve(unit, plan)
        key = fidelity_result_key(unit.scheme, spec, cfg, unit.seed, plan.fidelity)
        assert checkpoint.entry_path(tmp_path, key).exists()


class TestRunShard:
    def test_two_shards_cover_exactly_once(self, tmp_path, monkeypatch):
        plan = _tiny_plan()
        dist_shard.publish_plan(tmp_path, plan)
        # Distinct worker identities, as two OS processes would have --
        # otherwise the second manifest overwrites the first.
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        s0 = dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        clear_caches()
        monkeypatch.setenv("REPRO_WORKER_ID", "w1")
        s1 = dist_worker.run_shard(tmp_path, plan, shard=(1, 2), steal=False)
        assert s0["computed"] == len(plan.shard_units((0, 2)))
        assert s1["computed"] == len(plan.shard_units((1, 2)))
        assert s0["computed"] + s1["computed"] == len(plan.units)
        report = dist_worker.reconcile(tmp_path, plan)
        assert report["complete"] and report["exactly_once"]
        assert report["computed"] == len(plan.units)

    def test_restart_skips_published_work(self, tmp_path):
        plan = _tiny_plan()
        dist_shard.publish_plan(tmp_path, plan)
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        mtimes = {
            p.name: p.stat().st_mtime for p in tmp_path.glob("result-*.json")
        }
        assert mtimes  # shard 0 published something
        clear_caches()
        # "Restarted" run over the whole grid: result entries from the
        # first life are never rewritten -- mtime is the proof.
        summary = dist_worker.run_shard(tmp_path, plan, shard=None, steal=False)
        assert summary["skipped"] == len(mtimes)
        assert summary["computed"] == len(plan.units) - len(mtimes)
        for path in tmp_path.glob("result-*.json"):
            if path.name in mtimes:
                assert path.stat().st_mtime == mtimes[path.name]

    def test_stealing_finishes_a_dead_shard(self, tmp_path):
        plan = _tiny_plan()
        dist_shard.publish_plan(tmp_path, plan)
        # Shard 1 never runs (dead worker); shard 0 steals its units.
        summary = dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=True)
        assert summary["computed"] == len(plan.units)
        assert summary["stolen"] == len(plan.foreign_units((0, 2)))
        assert dist_worker.reconcile(tmp_path, plan)["complete"]

    def test_run_worker_long_poll(self, tmp_path):
        plan = _tiny_plan()
        dist_shard.publish_plan(tmp_path, plan)
        summary = dist_worker.run_worker(tmp_path, poll=0.01, max_idle=5.0)
        assert summary["computed"] == len(plan.units)
        assert summary["passes"] >= 1
        report = dist_worker.reconcile(tmp_path)
        assert report["complete"] and report["manifests"] == 1

    def test_run_worker_idles_out_without_a_plan(self, tmp_path):
        summary = dist_worker.run_worker(tmp_path, poll=0.01, max_idle=0.05)
        assert summary["computed"] == 0 and summary["passes"] == 0

    def test_sweep_cli_keeps_one_copy_per_unit(self, tmp_path, monkeypatch):
        # `repro sweep --store S` uses S itself as the store: one result
        # entry per unit, no second copy under another name or S/cache.
        from repro.cli import main

        for var in ("REPRO_CACHE_DIR", "REPRO_EVENTS", "REPRO_METRICS"):
            monkeypatch.setenv(var, "")  # restored on teardown
        store = tmp_path / "store"
        assert main([
            "sweep", "--store", str(store), "--network", "alexnet",
            "--layers", "Layer1,Layer2", "--schemes", "sparten,dense",
            "--seeds", "0", "--fidelity", "analytical", "--sample", "50",
            "--reconcile",
        ]) == 0
        plan = dist_shard.load_plan(store)
        entries = sorted(store.glob("result-*.json"))
        assert len(entries) == len(plan.units) == 4
        assert entries == sorted(
            dist_worker.unit_entry(store, u, plan) for u in plan.units
        )
        assert not list(store.glob("ckpt-*.json"))
        assert not (store / "cache").exists()
        assert scan_store(store).ok

    def test_published_entries_hold_the_computed_result(self, tmp_path, monkeypatch):
        # No cache dir and a result memo that keeps nothing: the unit's
        # entry must still hold the value the simulation returned.
        from repro.analytical.fidelity import simulate_at_fidelity

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(workload._RESULTS, "max_entries", 0)
        plan = _tiny_plan()
        dist_shard.publish_plan(tmp_path, plan)
        summary = dist_worker.run_shard(tmp_path, plan, steal=False)
        assert summary["computed"] == len(plan.units)
        assert len(list(tmp_path.glob("result-*.json"))) == len(plan.units)
        for unit in plan.units:
            key, value = checkpoint.parse_entry(
                dist_worker.unit_entry(tmp_path, unit, plan).read_bytes()
            )
            spec, cfg = dist_worker._resolve(unit, plan)
            expected = simulate_at_fidelity(
                unit.scheme, spec, cfg, seed=unit.seed, fidelity=plan.fidelity
            )
            assert key == dist_worker.unit_key(unit, plan)
            assert value is not None and value == expected

    def test_reconcile_flags_duplicates(self, tmp_path):
        plan = _tiny_plan()
        dist_shard.publish_plan(tmp_path, plan)
        dist_worker.run_shard(tmp_path, plan, steal=False)
        # Forge a second manifest claiming a compute the first also did:
        # the exactly-once verdict must flip.
        token = plan.units[0].token
        dist_worker.write_shard_manifest(tmp_path, {
            "schema": dist_worker.SHARD_MANIFEST_SCHEMA,
            "store": str(tmp_path), "worker": "forged-1", "pid": 1,
            "shard": None, "units_total": len(plan.units), "units_own": 1,
            "computed": 1, "skipped": 0, "stolen": 0, "deferred": 0,
            "computed_tokens": [token],
        })
        report = dist_worker.reconcile(tmp_path, plan)
        assert not report["exactly_once"]
        assert report["duplicates"] == [token]


# -- concurrent-writer stress test ------------------------------------------


def _hammer_worker(barrier, queue, worker_idx: int, n_keys: int):
    """One stress process: run every key, report counters + results."""
    from repro import telemetry
    from repro.core.compare import run_scheme_cached
    from repro.nets.layers import ConvLayerSpec
    from repro.sim.config import HardwareConfig

    spec = ConvLayerSpec(
        name="distspec", in_height=6, in_width=6, in_channels=20,
        kernel=3, n_filters=4, input_density=0.5, filter_density=0.5,
    )
    cfg = HardwareConfig(
        name="distcfg", n_clusters=2, units_per_cluster=4, chunk_size=16
    )
    barrier.wait()  # maximal contention: everyone hits seed 0 together
    cycles = {}
    for seed in range(n_keys):
        cycles[seed] = run_scheme_cached("sparten", spec, cfg, seed).cycles
    counters = telemetry.get_recorder().counters()
    queue.put({
        "worker": worker_idx,
        "cycles": cycles,
        "collisions": counters.get("cache.disk.collision", 0.0),
        "quarantines": counters.get("cache.disk.quarantine", 0.0),
    })


class TestConcurrentWriters:
    N_PROCS = 4
    N_KEYS = 3

    def test_exactly_once_compute_no_corruption_no_orphans(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ctx = mp.get_context("spawn")
        barrier = ctx.Barrier(self.N_PROCS)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_hammer_worker,
                args=(barrier, queue, i, self.N_KEYS),
            )
            for i in range(self.N_PROCS)
        ]
        for p in procs:
            p.start()
        reports = [queue.get(timeout=300) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert len(reports) == self.N_PROCS

        # No lost/corrupt entries: every worker saw identical results.
        reference = reports[0]["cycles"]
        for report in reports[1:]:
            assert report["cycles"] == reference
        assert sum(r["collisions"] for r in reports) == 0
        assert sum(r["quarantines"] for r in reports) == 0

        # No orphaned temp or claim files survive the stampede, and the
        # store holds exactly one result entry per key.
        leftovers = [
            p.name for p in tmp_path.iterdir()
            if p.suffix in (".tmp", ".claim", ".part")
        ]
        assert leftovers == []
        entries = list(tmp_path.glob("result-*.json"))
        assert len(entries) == self.N_KEYS

        # And the doctor agrees the store is healthy.
        report = scan_store(tmp_path)
        assert report.ok and report.healthy == self.N_KEYS
        assert report.orphans == []


# -- clock hygiene ----------------------------------------------------------


class TestMonotonicProgress:
    def test_progress_never_reads_the_wall_clock(self):
        # An NTP step must not bend elapsed/rate/ETA: the renderer's
        # arithmetic may only touch the monotonic clock.
        import io

        import repro.telemetry.progress as progress_mod

        def _wall_clock_forbidden():
            raise AssertionError("progress math read time.time()")

        stub = types.SimpleNamespace(
            monotonic=time.monotonic, time=_wall_clock_forbidden
        )
        original = progress_mod.time
        progress_mod.time = stub
        try:
            renderer = progress_mod.ProgressRenderer(
                total=3, label="x", stream=io.StringIO(), mode="heartbeat"
            )
            for _ in range(3):
                renderer.update()
            renderer.close()
        finally:
            progress_mod.time = original

    def test_eta_is_finite_and_nonnegative(self):
        import io

        from repro.telemetry.progress import ProgressRenderer

        renderer = ProgressRenderer(
            total=10, label="x", stream=io.StringIO(), mode="heartbeat"
        )
        renderer.update()
        stats = renderer._snapshot_stats({})
        assert stats["elapsed"] >= 0
        assert stats["rate"] >= 0
        assert stats["eta_seconds"] is None or stats["eta_seconds"] >= 0


# -- doctor: stale claim reaping --------------------------------------------


class TestDoctorOrphans:
    def test_fresh_part_and_claim_are_protected(self, tmp_path):
        (tmp_path / "events.jsonl.123.0.part").write_text("{}\n")
        (tmp_path / "result-x.json.claim").write_text("{}")
        report = scan_store(tmp_path, prune=True)
        assert report.orphans == []
        assert (tmp_path / "events.jsonl.123.0.part").exists()
        assert (tmp_path / "result-x.json.claim").exists()

    def test_stale_claim_is_pruned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_TTL", "1")
        claim = tmp_path / "result-x.json.claim"
        claim.write_text("{}")
        old = time.time() - 1000.0
        os.utime(claim, (old, old))
        report = scan_store(tmp_path, prune=True)
        assert report.orphans == [str(claim)]
        assert not claim.exists()
