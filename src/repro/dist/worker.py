"""The distributed execution loop: run a shard, steal, long-poll, reconcile.

A worker process is handed a shared store directory. The published
``sweep.json`` plan (:mod:`repro.dist.shard`) tells it every work unit in
the sweep; the ``shard=`` argument (or the configured shard, ``--shard``
/ ``REPRO_SHARD=I/N``) tells it which slice it owns. Execution is three
nested guarantees:

1. **The store's result tier is the coordination log.** A unit is
   *done* exactly when its result entry (``result-<sha>.json`` under the
   store directory) exists. Entries are written atomically by
   :func:`repro.resilience.checkpoint.write_entry` and never rewritten,
   so "does the entry exist" is a crash-consistent, cross-host
   predicate -- and a restarted worker resumes by simply skipping every
   published unit.
2. **Claims make compute single-flight.** Before simulating, a worker
   claims the unit's entry path (:func:`repro.dist.store.try_claim`).
   Losing the race defers the unit; a later pass waits the claim out
   (publication -> skip; lapse/steal -> compute). A SIGKILL'd owner's
   claim goes stale after ``REPRO_CLAIM_TTL`` and is stolen.
3. **Work stealing keeps finished workers busy.** After its own shard, a
   worker walks the other shards' unpublished units (rotated so stealers
   spread out) under the same claim protocol -- a dead or slow peer's
   units get finished by whoever is alive, with no coordinator.

Every worker writes a per-shard manifest (``manifests/`` in the store)
whose counters :func:`reconcile` sums against the published entries,
proving the exactly-once accounting that ``benchmarks/check_shard.py``
gates in CI.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time

from repro import telemetry
from repro import config
from repro.dist import health
from repro.dist import shard as dist_shard
from repro.dist import store as dist_store
from repro.dist.shard import SweepPlan, WorkUnit
from repro.resilience import checkpoint
from repro.telemetry import events
from repro.telemetry.progress import ProgressRenderer

__all__ = [
    "SHARD_MANIFEST_SCHEMA",
    "unit_key",
    "unit_entry",
    "execute_unit",
    "run_shard",
    "run_worker",
    "write_shard_manifest",
    "load_shard_manifests",
    "reconcile",
]

SHARD_MANIFEST_SCHEMA = "repro-shard-manifest/1"

#: Store subdirectory holding one manifest per worker run.
MANIFEST_DIR = "manifests"

#: :func:`execute_unit` outcomes.
COMPUTED, SKIPPED, DEFERRED = "computed", "skipped", "deferred"

_log = telemetry.get_logger("dist.worker")


def _resolve(unit: WorkUnit, plan: SweepPlan):
    """A unit's (layer spec, hardware config) under the plan's knobs."""
    from repro.eval.experiments import network_by_name
    from repro.sim.config import config_for

    network = network_by_name(unit.network)
    spec = network.layer(unit.layer)
    cfg = config_for(network)
    if plan.position_sample is not None or plan.batch != 1:
        cfg = cfg.with_sampling(plan.position_sample, batch=plan.batch)
    return spec, cfg


def unit_key(unit: WorkUnit, plan: SweepPlan) -> tuple:
    """The result-memo key this unit publishes under (fidelity-aware)."""
    from repro.analytical.fidelity import fidelity_result_key

    spec, cfg = _resolve(unit, plan)
    return fidelity_result_key(unit.scheme, spec, cfg, unit.seed, plan.fidelity)


def unit_entry(
    store_dir: str | os.PathLike, unit: WorkUnit, plan: SweepPlan
) -> pathlib.Path:
    """The result entry whose existence marks *unit* done."""
    return checkpoint.entry_path(pathlib.Path(store_dir), unit_key(unit, plan))


def execute_unit(
    store_dir: str | os.PathLike,
    unit: WorkUnit,
    plan: SweepPlan,
    wait: bool = False,
    stolen: bool = False,
) -> str:
    """Bring one unit to the published state (or learn it already is).

    Returns :data:`COMPUTED` (this process simulated and published it),
    :data:`SKIPPED` (the entry already exists -- possibly published by a
    peer while we waited) or :data:`DEFERRED` (a peer holds a fresh
    claim and ``wait=False``; revisit later). With ``wait=True`` the
    claim is waited out, so the return is never deferred.
    """
    key = unit_key(unit, plan)
    entry = checkpoint.entry_path(pathlib.Path(store_dir), key)
    started = time.monotonic()
    status = None
    claim = None
    if entry.exists():
        status = SKIPPED
    else:
        claim = dist_store.try_claim(entry)
        if claim is None:
            if not wait:
                status = DEFERRED
            else:
                claim, published = dist_store.wait_for_publication(entry)
                if published:
                    status = SKIPPED
                # else: won the lapsed lease (or timed out claimless)
    try:
        if status is None and entry.exists():
            status = SKIPPED  # published between claim and here
        if status is None:
            from repro.analytical.fidelity import simulate_at_fidelity

            spec, cfg = _resolve(unit, plan)
            if claim is not None:
                claim.refresh()
            with telemetry.span("dist.unit", unit=unit.token, stolen=stolen):
                result = simulate_at_fidelity(
                    unit.scheme, spec, cfg,
                    seed=unit.seed, fidelity=plan.fidelity,
                )
            # Publish what this call returned. When the store is also
            # $REPRO_CACHE_DIR the memo already wrote the entry and this
            # is a no-op; under any other cache dir, or none, it is the
            # only publication the fleet coordinates on.
            checkpoint.write_entry(entry, key, result)
            status = COMPUTED
            if stolen:
                telemetry.count("dist.unit.stolen")
    finally:
        if claim is not None:
            claim.release()
    telemetry.count(f"dist.unit.{status}")
    # The wall duration rides on the event so fleet aggregation can
    # reconstruct per-worker trace lanes and flag stragglers.
    events.emit(
        "dist.unit", unit=unit.token, status=status, stolen=stolen,
        seconds=round(time.monotonic() - started, 6),
    )
    return status


def _summary_skeleton(
    store_dir, plan: SweepPlan, shard: tuple[int, int] | None
) -> dict:
    return {
        "schema": SHARD_MANIFEST_SCHEMA,
        "store": str(store_dir),
        "worker": dist_store.worker_identity(),
        "pid": os.getpid(),
        "shard": (
            {"index": shard[0], "count": shard[1]} if shard else None
        ),
        "units_total": len(plan.units),
        "units_own": len(plan.shard_units(shard)),
        "computed": 0,
        "skipped": 0,
        "stolen": 0,
        "deferred": 0,
        "computed_tokens": [],
    }


def _tally(summary: dict, unit: WorkUnit, status: str, stolen: bool) -> None:
    if status == COMPUTED:
        summary["computed"] += 1
        summary["computed_tokens"].append(unit.token)
        if stolen:
            summary["stolen"] += 1
    elif status == SKIPPED:
        summary["skipped"] += 1
    else:
        summary["deferred"] += 1


def run_shard(
    store_dir: str | os.PathLike,
    plan: SweepPlan | None = None,
    shard: tuple[int, int] | None = None,
    steal: bool = True,
    manifest: bool = True,
) -> dict:
    """Execute one shard of the sweep (then steal) and write its manifest.

    Own units get two passes: a claiming pass that defers anything a
    peer is already computing, then a waiting pass that resolves each
    deferral into skip (peer published) or compute (peer died). With
    *steal* on, other shards' unpublished units are then claimed
    opportunistically -- never waited on, because their owner is
    presumed alive until its claims go stale.
    """
    store_dir = pathlib.Path(store_dir)
    if plan is None:
        plan = dist_shard.load_plan(store_dir)
    cfg = config.current()
    if shard is None and cfg.shard:
        shard = dist_shard.parse_shard(cfg.shard)
    own = plan.shard_units(shard)
    summary = _summary_skeleton(store_dir, plan, shard)
    label = f"shard {shard[0]}/{shard[1]}" if shard else "sweep"
    shard_tag = f"{shard[0]}/{shard[1]}" if shard else None

    def _checkpoint(hb, unit: WorkUnit, status: str, stolen: bool) -> None:
        # Incremental accounting: rewrite the manifest after every
        # tally so a SIGKILL'd worker leaves its computed tokens on
        # disk for reconciliation, and refresh the next heartbeat.
        _tally(summary, unit, status, stolen=stolen)
        hb.update(
            current_unit=None,
            units_done=summary["computed"] + summary["skipped"],
        )
        if manifest:
            write_shard_manifest(store_dir, summary)

    # The shard tag is scoped to this run: a later whole-grid call in the
    # same process must not inherit it.
    with config.use(dataclasses.replace(cfg, shard=shard_tag) if shard else cfg):
        events.emit(
            "dist.shard.start",
            shard=summary["shard"],
            worker=summary["worker"],
            units=len(own),
        )
        with health.beacon(shard=shard_tag) as hb:
            with telemetry.span("dist.shard", shard=label, units=len(own)):
                deferred: list[WorkUnit] = []
                with ProgressRenderer(total=len(own), label=label) as progress:
                    for unit in own:
                        hb.update(current_unit=unit.token)
                        status = execute_unit(store_dir, unit, plan, wait=False)
                        if status == DEFERRED:
                            deferred.append(unit)
                        else:
                            _checkpoint(hb, unit, status, stolen=False)
                        progress.update()
                    for unit in deferred:
                        hb.update(current_unit=unit.token)
                        status = execute_unit(store_dir, unit, plan, wait=True)
                        _checkpoint(hb, unit, status, stolen=False)
                if steal:
                    for unit in plan.foreign_units(shard):
                        entry = unit_entry(store_dir, unit, plan)
                        if entry.exists():
                            continue  # published by its owner: not our business
                        hb.update(current_unit=unit.token)
                        status = execute_unit(
                            store_dir, unit, plan, wait=False, stolen=True
                        )
                        if status == COMPUTED:
                            _checkpoint(hb, unit, status, stolen=True)
    events.emit(
        "dist.shard.finish",
        shard=summary["shard"],
        worker=summary["worker"],
        computed=summary["computed"],
        skipped=summary["skipped"],
        stolen=summary["stolen"],
    )
    if manifest:
        write_shard_manifest(store_dir, summary)
    return summary


def run_worker(
    store_dir: str | os.PathLike,
    poll: float | None = None,
    max_idle: float = 60.0,
    shard: tuple[int, int] | None = None,
) -> dict:
    """Long-poll mode: serve a store until its sweep is done (or idle out).

    The worker waits for a plan to be published, then repeatedly runs
    :func:`run_shard` (with stealing) until every unit in the plan has a
    result entry. *max_idle* bounds how long it lingers with nothing to
    do -- no plan, or nothing left that is not another live worker's
    fresh claim -- so an orphaned worker exits on its own.
    """
    store_dir = pathlib.Path(store_dir)
    poll = config.current().claim_poll * 20.0 if poll is None else poll
    idle_since = time.monotonic()
    passes = 0
    last: dict | None = None
    shard_tag = f"{shard[0]}/{shard[1]}" if shard else None
    with health.beacon(shard=shard_tag):
        while True:
            plan = dist_shard.load_plan(store_dir, missing_ok=True)
            if plan is None:
                if time.monotonic() - idle_since > max_idle:
                    break
                time.sleep(poll)
                continue
            summary = run_shard(
                store_dir, plan, shard=shard, steal=True,
                manifest=False,
            )
            passes += 1
            if last is None:
                last = summary
            else:
                for field in ("computed", "skipped", "stolen", "deferred"):
                    last[field] += summary[field]
                last["computed_tokens"].extend(summary["computed_tokens"])
            # Publish the accumulated accounting every pass, so even a
            # worker that dies between passes leaves its tally behind.
            last["passes"] = passes
            write_shard_manifest(store_dir, last)
            missing = [
                u for u in plan.units
                if not unit_entry(store_dir, u, plan).exists()
            ]
            if not missing:
                break
            if summary["computed"]:
                idle_since = time.monotonic()
            elif time.monotonic() - idle_since > max_idle:
                _log.warning(
                    "worker idling out %s",
                    telemetry.kv(store=store_dir, missing=len(missing)),
                )
                break
            time.sleep(poll)
    if last is None:
        last = _summary_skeleton(store_dir, SweepPlan(units=()), None)
    last["passes"] = passes
    write_shard_manifest(store_dir, last)
    return last


def write_shard_manifest(store_dir: str | os.PathLike, summary: dict) -> pathlib.Path:
    """Atomically publish one worker's accounting under ``manifests/``.

    File name carries the worker identity, so a restarted worker (new
    pid) writes a *new* manifest rather than clobbering the evidence of
    its previous life -- reconciliation wants both.
    """
    path = pathlib.Path(store_dir) / MANIFEST_DIR / f"shard-{summary['worker']}.json"
    checkpoint.write_atomic(path, json.dumps(summary, indent=2, sort_keys=True))
    telemetry.count("dist.manifest.written")
    return path


def load_shard_manifests(store_dir: str | os.PathLike) -> list[dict]:
    """Every readable worker manifest under the store (sorted by name)."""
    base = pathlib.Path(store_dir) / MANIFEST_DIR
    manifests = []
    for path in sorted(base.glob("shard-*.json")):
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if raw.get("schema") == SHARD_MANIFEST_SCHEMA:
            manifests.append(raw)
    return manifests


def reconcile(
    store_dir: str | os.PathLike, plan: SweepPlan | None = None
) -> dict:
    """Check per-shard accounting against the store's ground truth.

    Sums every worker manifest's counters and compares against the
    plan: ``complete`` means every unit has a result entry;
    ``duplicates`` lists unit tokens more than one manifest claims to
    have computed (the exactly-once violation the claim protocol
    exists to prevent -- always empty in a healthy sweep); ``foreign``
    lists computed tokens that are not in the plan at all (a manifest
    from a different sweep dropped into this store -- never counted as
    a duplicate, but surfaced so the accounting stays explainable).
    """
    store_dir = pathlib.Path(store_dir)
    if plan is None:
        plan = dist_shard.load_plan(store_dir)
    manifests = load_shard_manifests(store_dir)
    plan_tokens = {u.token for u in plan.units}
    published = [
        u.token for u in plan.units
        if unit_entry(store_dir, u, plan).exists()
    ]
    published_set = set(published)
    missing = [u.token for u in plan.units if u.token not in published_set]
    computed_counts: dict[str, int] = {}
    for m in manifests:
        for token in m.get("computed_tokens", ()):
            computed_counts[token] = computed_counts.get(token, 0) + 1
    duplicates = sorted(
        t for t, n in computed_counts.items() if n > 1 and t in plan_tokens
    )
    foreign = sorted(t for t in computed_counts if t not in plan_tokens)
    report = {
        "units": len(plan.units),
        "published": len(published),
        "missing": sorted(missing),
        "complete": not missing,
        "manifests": len(manifests),
        "computed": sum(m.get("computed", 0) for m in manifests),
        "skipped": sum(m.get("skipped", 0) for m in manifests),
        "stolen": sum(m.get("stolen", 0) for m in manifests),
        "duplicates": duplicates,
        "foreign": foreign,
        "exactly_once": not duplicates,
    }
    events.emit("dist.reconcile", **{
        k: v for k, v in report.items()
        if k not in ("missing", "duplicates", "foreign")
    })
    return report
