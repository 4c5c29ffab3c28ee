"""Store-resident worker health heartbeats (``health/<worker>.json``).

A fleet has no coordinator, so liveness must be inferable from the
store alone. Every worker runs a :class:`HealthBeacon` -- the same
daemon-thread pattern as :class:`repro.telemetry.metrics.MetricsSnapshotter`
-- that periodically rewrites an atomic snapshot of what it is doing:
pid, host, shard, the unit currently executing, units finished, cache
hits, retries, the last event sequence number it emitted, and its
monotonic uptime.

Liveness is then a pure function of snapshot age against the claim TTL
(the same staleness clock the claim-stealing protocol already trusts):

- ``live``     -- refreshed within one TTL,
- ``suspect``  -- older than one TTL but younger than two (a stalled
  unit, a paused VM, or a death not yet certain),
- ``dead``     -- older than two TTLs with no final snapshot: the
  worker was killed without cleanup (``repro inspect`` names these),
- ``exited``   -- the final snapshot a clean shutdown always writes,
  regardless of age (finished is not dead).

``repro doctor`` reaps dead/exited heartbeats past the TTL age gate;
fresh ones belong to live workers and are never touched.
"""

from __future__ import annotations

import contextvars
import json
import os
import pathlib
import socket
import threading
import time
from contextlib import contextmanager

from repro import telemetry
from repro import config
from repro.dist import store as dist_store
from repro.resilience import checkpoint
from repro.telemetry import events

__all__ = [
    "HEALTH_SCHEMA",
    "HEALTH_DIR",
    "LIVE",
    "SUSPECT",
    "DEAD",
    "EXITED",
    "health_dir",
    "health_path",
    "health_interval",
    "write_health_snapshot",
    "read_health",
    "classify",
    "HealthBeacon",
    "beacon",
]

HEALTH_SCHEMA = "repro-health/1"

#: Store subdirectory holding one heartbeat file per worker.
HEALTH_DIR = "health"

#: Liveness states (see module docstring for the semantics).
LIVE, SUSPECT, DEAD, EXITED = "live", "suspect", "dead", "exited"

#: A heartbeat older than this many claim TTLs with no final snapshot
#: is a dead worker (one TTL of slack beyond "suspect" absorbs a unit
#: that simply ran long).
DEAD_AFTER_TTLS = 2.0


def health_dir(store_dir: str | os.PathLike) -> pathlib.Path:
    return pathlib.Path(store_dir) / HEALTH_DIR


def health_path(
    store_dir: str | os.PathLike, worker: str | None = None
) -> pathlib.Path:
    worker = worker or dist_store.worker_identity()
    return health_dir(store_dir) / f"{worker}.json"


def health_interval() -> float:
    """Seconds between heartbeat rewrites (``REPRO_HEALTH_INTERVAL``).

    Defaults to a third of the claim TTL (clamped to [0.2s, 5s]) so a
    worker always refreshes well inside the staleness window that would
    mark it suspect.
    """
    override = config.current().health_interval
    if override > 0.0:
        return override
    return max(0.2, min(5.0, dist_store.claim_ttl() / 3.0))


def write_health_snapshot(
    store_dir: str | os.PathLike, snapshot: dict
) -> pathlib.Path:
    """Atomically publish one heartbeat (mkstemp + rename, like the rest)."""
    return checkpoint.write_atomic(
        health_path(store_dir, snapshot.get("worker")),
        json.dumps(snapshot, indent=2, sort_keys=True),
    )


def read_health(store_dir: str | os.PathLike) -> list[dict]:
    """Every readable heartbeat in the store, with its file age injected.

    Age comes from the snapshot file's mtime on the store's filesystem
    -- the same clock claim staleness uses -- not from the worker's
    wall timestamp, so cross-host clock skew cannot fake liveness.
    """
    base = health_dir(store_dir)
    snapshots: list[dict] = []
    if not base.is_dir():
        return snapshots
    now = time.time()
    for path in sorted(base.glob("*.json")):
        try:
            raw = json.loads(path.read_text())
            mtime = path.stat().st_mtime
        except (OSError, ValueError):
            continue
        if not isinstance(raw, dict) or raw.get("schema") != HEALTH_SCHEMA:
            continue
        raw["age_seconds"] = max(0.0, now - mtime)
        raw["path"] = str(path)
        snapshots.append(raw)
    return snapshots


def classify(snapshot: dict, ttl: float | None = None) -> str:
    """Liveness verdict for one heartbeat (see module docstring)."""
    if snapshot.get("final"):
        return EXITED
    ttl = dist_store.claim_ttl() if ttl is None else float(ttl)
    age = float(snapshot.get("age_seconds", 0.0))
    if age < ttl:
        return LIVE
    if age < DEAD_AFTER_TTLS * ttl:
        return SUSPECT
    return DEAD


class HealthBeacon:
    """Daemon thread keeping this worker's heartbeat fresh in the store.

    ``start()`` writes an immediate snapshot (so even a worker killed
    inside its first unit leaves evidence) and spawns the refresh
    thread; :meth:`update` folds in per-unit state and opportunistically
    rewrites when a refresh is due; ``stop()`` writes the final snapshot
    (``final: true``) that distinguishes a clean exit from a death.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        shard: str | None = None,
        interval: float | None = None,
    ) -> None:
        self.store_dir = pathlib.Path(store_dir)
        self.worker = dist_store.worker_identity()
        self.interval = health_interval() if interval is None else max(
            0.05, float(interval)
        )
        self._shard = shard
        self._state: dict = {"current_unit": None, "units_done": 0}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()
        self._last_write = float("-inf")
        try:
            self._host = socket.gethostname()
        except OSError:
            self._host = "unknown"

    def _snapshot(self, final: bool = False) -> dict:
        counters = telemetry.get_recorder().counters()
        with self._lock:
            state = dict(self._state)
        return {
            "schema": HEALTH_SCHEMA,
            "worker": self.worker,
            "pid": os.getpid(),
            "host": self._host,
            "shard": state.get("shard", self._shard),
            "current_unit": state.get("current_unit"),
            "units_done": state.get("units_done", 0),
            "cache_hits": counters.get("cache.workload.hit", 0),
            "cache_misses": counters.get("cache.workload.miss", 0),
            "retries": counters.get("resilience.retry", 0),
            "last_event_seq": events.current_seq(),
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "started_unix": self._started_unix,
            "ts": time.time(),
            "interval": self.interval,
            "final": final,
        }

    def _write(self, final: bool = False) -> None:
        try:
            write_health_snapshot(self.store_dir, self._snapshot(final=final))
            self._last_write = time.monotonic()
        except OSError:
            pass  # heartbeats are best-effort; never cost the run

    def update(self, **state) -> None:
        """Fold per-unit state in; rewrite the snapshot if one is due."""
        with self._lock:
            self._state.update(state)
        if time.monotonic() - self._last_write >= self.interval:
            self._write()

    def start(self) -> "HealthBeacon":
        self._write()
        if self._thread is None:
            # Under a copy of this context: the thread sees the bound config.
            self._thread = threading.Thread(
                target=contextvars.copy_context().run, args=(self._loop,),
                name="repro-health", daemon=True,
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._write()

    def stop(self) -> None:
        """Stop refreshing and publish the final (clean-exit) snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._write(final=True)


#: The process's active beacon (one per worker; nested run_shard calls
#: under run_worker share the outer beacon instead of competing).
_active: HealthBeacon | None = None


@contextmanager
def beacon(store_dir: str | os.PathLike, shard: str | None = None):
    """Scope a process-wide beacon to one run (reentrant)."""
    global _active
    if _active is not None:
        if shard is not None:
            _active.update(shard=shard)
        yield _active
        return
    _active = HealthBeacon(store_dir, shard=shard).start()
    try:
        yield _active
    finally:
        active, _active = _active, None
        active.stop()
