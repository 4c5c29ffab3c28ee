"""``repro doctor``: scan, verify and prune the on-disk stores.

The store (``$REPRO_CACHE_DIR``, a ``--resume`` directory or a sweep's
``--store``: workload ``.npz`` and result ``.json`` entries) survives
crashes by design -- which means it also accumulates the debris of
crashes: truncated entries, orphaned ``.tmp`` files from interrupted
atomic writes and ``.claim`` single-flight leases whose writers were
killed, and ``.corrupt`` quarantine markers left by earlier runs. The
doctor walks a directory, verifies every
entry the same way the runtime loaders do (every ``.npz`` array member
is actually decompressed, not just the zip directory; every result
entry is checksummed and decoded), quarantines entries that fail
verification, and -- with ``--prune`` -- deletes quarantined and
orphaned files.

Verification is read-only apart from quarantine renames; pruning never
touches healthy entries, so ``repro doctor --prune`` is always safe to
run between experiments.
"""

from __future__ import annotations

import os
import pathlib
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.resilience import checkpoint
from repro.telemetry import events

__all__ = ["DoctorReport", "scan_store", "render_report"]

_log = telemetry.get_logger("doctor")


@dataclass
class DoctorReport:
    """Outcome of one ``repro doctor`` pass."""

    directory: str
    healthy: int = 0
    healthy_bytes: int = 0
    quarantined: list[str] = field(default_factory=list)
    pruned: list[str] = field(default_factory=list)
    orphans: list[str] = field(default_factory=list)
    workers_live: int = 0
    workers_suspect: int = 0
    workers_dead: int = 0
    workers_exited: int = 0

    @property
    def ok(self) -> bool:
        return not self.quarantined


def _verify_npz(path: pathlib.Path) -> None:
    """Load every member of a cache ``.npz``; raises on any corruption."""
    with np.load(path, allow_pickle=False) as z:
        if "key" not in z.files:
            raise ValueError("missing key member")
        for name in z.files:
            z[name]  # decompress + CRC-check the member, not just the index


def _verify_entry(path: pathlib.Path) -> None:
    """Checksum and decode one result entry; raises on corruption."""
    checkpoint.parse_entry(path.read_bytes())


def _quarantine(path: pathlib.Path, report: DoctorReport, error: Exception) -> None:
    telemetry.count("cache.disk.quarantine")
    events.emit("doctor.quarantine", path=str(path), error=str(error))
    _log.warning(
        "quarantining corrupt entry %s", telemetry.kv(path=path, error=error)
    )
    target = path.with_suffix(path.suffix + ".corrupt")
    try:
        os.replace(path, target)
        report.quarantined.append(str(target))
    except OSError:
        report.quarantined.append(str(path))


def _scan_health(
    base: pathlib.Path, report: DoctorReport, stale_age: float
) -> None:
    """Tally worker heartbeats under ``health/`` and flag reapable ones.

    Live and suspect heartbeats belong to workers that may still be
    running -- never touched. A dead worker's heartbeat (stale past
    twice the claim TTL) and a clean exit's final snapshot older than
    one TTL are debris: they become orphans so ``--prune`` clears the
    store for the next sweep, age-gated exactly like claim leases.
    """
    from repro.dist import health as dist_health

    if not (base / dist_health.HEALTH_DIR).is_dir():
        return
    for snapshot in dist_health.read_health(base):
        state = dist_health.classify(snapshot, ttl=stale_age)
        if state == dist_health.LIVE:
            report.workers_live += 1
        elif state == dist_health.SUSPECT:
            report.workers_suspect += 1
        elif state == dist_health.DEAD:
            report.workers_dead += 1
            if snapshot["age_seconds"] >= stale_age:
                report.orphans.append(snapshot["path"])
        else:  # exited cleanly; keep briefly for post-mortems, then reap
            report.workers_exited += 1
            if snapshot["age_seconds"] >= stale_age:
                report.orphans.append(snapshot["path"])


def scan_store(directory: str | os.PathLike, prune: bool = False) -> DoctorReport:
    """Verify every store entry under *directory*.

    Corrupt entries are renamed to ``.corrupt`` (counted as
    ``cache.disk.quarantine``); with *prune*, quarantined entries and
    orphaned files are deleted. ``.tmp`` and ``.corrupt`` files are
    orphans at any age (nothing re-opens them once the atomic rename
    they fed has happened or failed); ``.claim`` leases are orphans
    only once older than ``REPRO_CLAIM_TTL``, because a *fresh* one
    belongs to a live worker that the doctor must not sabotage.
    """
    from repro.dist import store as dist_store

    base = pathlib.Path(directory)
    report = DoctorReport(directory=str(base))
    if not base.is_dir():
        return report
    stale_age = dist_store.claim_ttl()
    with telemetry.span("doctor", dir=str(base)):
        for path in sorted(base.iterdir()):
            if path.suffix == ".tmp":
                report.orphans.append(str(path))
                continue
            if path.suffix == ".corrupt":
                report.orphans.append(str(path))
                continue
            if path.suffix == dist_store.CLAIM_SUFFIX:
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue
                if age >= stale_age:
                    report.orphans.append(str(path))
                continue
            try:
                if path.match("workload-*.npz"):
                    _verify_npz(path)
                elif path.match("result-*.json"):
                    _verify_entry(path)
                else:
                    continue
            except (OSError, EOFError, zipfile.BadZipFile,
                    *checkpoint.DAMAGE) as exc:
                _quarantine(path, report, exc)
                continue
            report.healthy += 1
            report.healthy_bytes += path.stat().st_size
        _scan_health(base, report, stale_age)
        if prune:
            for name in report.orphans + report.quarantined:
                try:
                    os.unlink(name)
                    report.pruned.append(name)
                    telemetry.count("cache.disk.prune")
                    events.emit("doctor.prune", path=str(name))
                except OSError:
                    pass
        events.emit(
            "doctor.report",
            dir=str(base),
            healthy=report.healthy,
            quarantined=len(report.quarantined),
            pruned=len(report.pruned),
            orphans=len(report.orphans),
            workers_live=report.workers_live,
            workers_dead=report.workers_dead,
            ok=report.ok,
        )
    return report


def render_report(report: DoctorReport, prune: bool = False) -> str:
    """Human-readable summary for the CLI."""
    lines = [
        f"doctor: {report.directory}",
        f"  healthy entries    {report.healthy}"
        f"  ({report.healthy_bytes / 1e6:.1f} MB)",
        f"  quarantined        {len(report.quarantined)}",
        f"  orphaned/.corrupt  {len(report.orphans)}",
    ]
    if (report.workers_live or report.workers_suspect
            or report.workers_dead or report.workers_exited):
        lines.append(
            f"  workers            live {report.workers_live}"
            f"  suspect {report.workers_suspect}"
            f"  dead {report.workers_dead}"
            f"  exited {report.workers_exited}"
        )
    for name in report.quarantined:
        lines.append(f"    quarantined {name}")
    if prune:
        lines.append(f"  pruned             {len(report.pruned)}")
    elif report.orphans or report.quarantined:
        lines.append("  (re-run with --prune to delete quarantined/orphaned files)")
    verdict = "clean" if report.ok else "corruption found"
    lines.append(f"  verdict            {verdict}")
    return "\n".join(lines)
