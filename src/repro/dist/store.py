"""Multi-writer safety for the on-disk stores: claims, waiting, reaping.

The store's result entries (``$REPRO_CACHE_DIR``) already publish
atomically -- ``tempfile.mkstemp`` + ``os.replace`` means a reader never
sees a half-written entry. What atomic publish alone does *not* give a
fleet of sweep workers sharing one store is single-flight: two processes
that miss on the same unit both pay the compute and race to publish.
This module adds the missing coordination with **claim files**, which
:func:`repro.dist.worker.execute_unit` takes around every unit:

- :func:`try_claim` creates ``<entry>.claim`` with ``O_CREAT|O_EXCL`` --
  the one atomic-on-every-filesystem primitive -- so exactly one process
  owns the right to compute a missing entry. The claim body records the
  owner (host, pid, wall time) for post-mortems.
- A claim is a *lease*, not a lock: a SIGKILL'd owner cannot release,
  so claims expire. :func:`try_claim` steals a claim whose mtime is
  older than ``REPRO_CLAIM_TTL`` seconds (owners refresh long-running
  claims with :meth:`Claim.refresh`), which is what makes the store
  crash-consistent -- worker loss costs at most one lease period.
- Losers of the claim race :func:`wait_for_publication` -- poll (at
  ``REPRO_CLAIM_POLL`` seconds) until the entry appears, the claim is
  released without a publish (the owner failed; compute it yourself),
  or the claim goes stale and is stolen.
- :func:`reap_orphans` deletes debris no live writer can still own:
  ``.tmp`` files from interrupted atomic publishes and ``.claim``
  leases older than an age threshold.

Correctness never depends on claims: publish stays atomic and
content-addressed, so the worst outcome of every race here is duplicated
work, never a corrupt or wrong entry. The sweep tests
(``tests/test_dist.py``) assert the good case -- exactly-once compute
per unit -- and the concurrent-writer stress test that N processes over
one store leave identical, healthy entries and no debris.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass

from repro import telemetry
from repro import config
from repro.telemetry import metrics

__all__ = [
    "CLAIM_SUFFIX",
    "Claim",
    "claim_path",
    "claim_ttl",
    "try_claim",
    "wait_for_publication",
    "reap_orphans",
]

#: Suffix appended to an entry's final path to name its claim lease.
CLAIM_SUFFIX = ".claim"

#: Suffixes :func:`reap_orphans` considers crash debris.
_ORPHAN_SUFFIXES = (".tmp", CLAIM_SUFFIX)

_log = telemetry.get_logger("dist.store")


def claim_ttl() -> float:
    """Lease seconds before an unrefreshed claim is stealable."""
    return config.current().claim_ttl


def claim_path(target: str | os.PathLike) -> pathlib.Path:
    """The claim-lease path guarding one store entry."""
    target = pathlib.Path(target)
    return target.with_name(target.name + CLAIM_SUFFIX)


def worker_identity() -> str:
    """This process's stable worker id (``REPRO_WORKER_ID`` or host-pid)."""
    explicit = config.current().worker_id
    if explicit:
        return explicit
    return f"{metrics.hostname()}-{os.getpid()}"


@dataclass
class Claim:
    """An acquired single-flight lease on one store entry."""

    target: pathlib.Path
    path: pathlib.Path
    owner: str

    def refresh(self) -> None:
        """Extend the lease (touch the claim file's mtime).

        Owners of long computations call this between work items so a
        healthy worker is never mistaken for a dead one.
        """
        try:
            os.utime(self.path)
        except OSError:
            pass  # lost the file (stolen): the publish race stays safe

    def release(self) -> None:
        """Drop the lease (best-effort; a stolen claim is already gone)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
        telemetry.count("store.claim.release")


def _claim_age(path: pathlib.Path) -> float | None:
    """Seconds since the claim was created/refreshed (None if gone)."""
    try:
        return max(0.0, time.time() - path.stat().st_mtime)
    except OSError:
        return None


def try_claim(
    target: str | os.PathLike, ttl: float | None = None
) -> Claim | None:
    """Attempt to become the single flight for *target*.

    Returns a :class:`Claim` on success. ``None`` means another process
    holds a *fresh* lease -- the caller should
    :func:`wait_for_publication` instead of computing. A stale lease
    (older than *ttl*, default ``REPRO_CLAIM_TTL``) is stolen: the dead
    owner's claim file is removed and acquisition retried, counted as
    ``store.claim.steal``.
    """
    ttl = claim_ttl() if ttl is None else ttl
    target = pathlib.Path(target)
    lease = claim_path(target)
    owner = worker_identity()
    body = json.dumps(
        {"owner": owner, "pid": os.getpid(), "ts": time.time(),
         "target": target.name}
    )
    while True:
        try:
            lease.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            age = _claim_age(lease)
            if age is None:
                continue  # released between EXCL and stat: retry
            if age <= ttl:
                return None  # fresh lease held elsewhere
            # Stale lease: the owner died (or wedged) without releasing.
            # Unlink and retry; if two stealers race, O_EXCL picks one.
            telemetry.count("store.claim.steal")
            _log.warning(
                "stealing stale claim %s",
                telemetry.kv(path=lease, age_seconds=round(age, 1), ttl=ttl),
            )
            try:
                os.unlink(lease)
            except OSError:
                pass
            continue
        except OSError as exc:
            # An unwritable store degrades to claimless compute: atomic
            # publish keeps it correct, just not single-flight.
            _log.debug(
                "claim acquisition failed %s", telemetry.kv(path=lease, error=exc)
            )
            return Claim(target=target, path=lease, owner=owner)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError:
            pass
        telemetry.count("store.claim.acquire")
        return Claim(target=target, path=lease, owner=owner)


def wait_for_publication(
    target: str | os.PathLike,
    ttl: float | None = None,
    poll: float | None = None,
    max_wait: float | None = None,
) -> tuple[Claim | None, bool]:
    """Wait out another process's claim on *target*.

    Returns ``(claim, published)``:

    - ``(None, True)`` -- the entry was published; load it.
    - ``(Claim, False)`` -- the lease lapsed (released without a publish,
      or went stale and was stolen); the caller now owns the flight and
      must compute.
    - ``(None, False)`` -- *max_wait* expired with the lease still fresh
      (a healthy-but-slow owner). Compute without a claim: atomic
      publish keeps duplicated work safe.

    The default *max_wait* is twice the lease TTL -- long enough that a
    refreshing owner normally finishes, short enough that a pathological
    refresher cannot wedge the caller forever.
    """
    ttl = claim_ttl() if ttl is None else ttl
    poll = config.current().claim_poll if poll is None else poll
    max_wait = 2.0 * max(ttl, 1.0) if max_wait is None else max_wait
    target = pathlib.Path(target)
    telemetry.count("store.claim.wait")
    deadline = time.monotonic() + max_wait
    while True:
        if target.exists():
            return None, True
        claim = try_claim(target, ttl=ttl)
        if claim is not None:
            # Won the lease -- but the previous owner may have published
            # between our existence check and the steal.
            if target.exists():
                claim.release()
                return None, True
            return claim, False
        if time.monotonic() >= deadline:
            telemetry.count("store.claim.wait_timeout")
            return None, False
        time.sleep(poll)


def reap_orphans(
    directory: str | os.PathLike, age: float | None = None
) -> list[str]:
    """Delete crash debris under *directory* older than *age* seconds.

    Removes ``.tmp`` files (interrupted atomic publishes) and ``.claim``
    leases (dead owners) whose mtime is at least *age* seconds old -- default
    ``REPRO_CLAIM_TTL``, so a live writer's files are never touched.
    Returns the deleted paths (counted as ``store.reap``).
    """
    age = claim_ttl() if age is None else age
    base = pathlib.Path(directory)
    if not base.is_dir():
        return []
    reaped: list[str] = []
    now = time.time()
    for path in sorted(base.iterdir()):
        if path.suffix not in _ORPHAN_SUFFIXES:
            continue
        try:
            if now - path.stat().st_mtime < age:
                continue
            os.unlink(path)
        except OSError:
            continue
        reaped.append(str(path))
        telemetry.count("store.reap")
    if reaped:
        _log.info(
            "reaped orphaned store files %s",
            telemetry.kv(dir=base, files=len(reaped)),
        )
    return reaped
