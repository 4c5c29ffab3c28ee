"""Worker liveness, recorded in and read back from the event streams.

A fleet has no coordinator, so liveness must be inferable from the
store alone. Every sweep/worker process runs a :func:`beacon` that
appends ``heartbeat`` records (unit in flight, units done, shard, host,
the recorder's counters, ``final``) to the worker's event stream:
``events/<worker>.jsonl`` in the store, where ``repro sweep``/``worker``
put it. The first is emitted as the beacon starts, so even a worker
killed inside its first unit leaves one.

Liveness is the age of the stream file's mtime on the store's
filesystem -- the same skew-immune clock claim staleness trusts --
against the claim TTL:

- ``live``     -- written within one TTL,
- ``suspect``  -- older than one TTL but younger than two (a stalled
  unit, a paused VM, or a death not yet certain),
- ``dead``     -- older than two TTLs: the worker was killed without
  cleanup (``repro inspect`` names these),
- ``exited``   -- the stream's last heartbeat is final, whatever its
  age (finished is not dead).

A worker without a stream in the store's ``events/`` (``REPRO_EVENTS=``
or a path elsewhere, or a library :func:`~repro.dist.worker.run_shard`
with none configured) has no liveness.
"""

from __future__ import annotations

import contextvars
import os
import pathlib
import threading
import time
from contextlib import contextmanager

from repro import telemetry
from repro.dist import store as dist_store
from repro.telemetry import aggregate, events, metrics

__all__ = [
    "HEARTBEAT",
    "EVENTS_DIR",
    "LIVE",
    "SUSPECT",
    "DEAD",
    "EXITED",
    "classify",
    "store_streams",
    "latest_heartbeats",
    "beacon",
]

#: Event-record kind of a heartbeat.
HEARTBEAT = "heartbeat"

#: Store subdirectory where ``repro sweep``/``repro worker`` default
#: their per-worker event streams (see ``cli._run_config``).
EVENTS_DIR = "events"

#: Liveness states (see module docstring for the semantics).
LIVE, SUSPECT, DEAD, EXITED = "live", "suspect", "dead", "exited"

#: A stream older than this many claim TTLs with no final heartbeat is
#: a dead worker (one TTL of slack beyond "suspect" absorbs a unit that
#: simply ran long).
DEAD_AFTER_TTLS = 2.0


def classify(age: float, final: bool, ttl: float) -> str:
    """Liveness verdict for a stream of *age* seconds (see module docstring)."""
    if final:
        return EXITED
    if age < ttl:
        return LIVE
    if age < DEAD_AFTER_TTLS * ttl:
        return SUSPECT
    return DEAD


def store_streams(store_dir: str | os.PathLike) -> aggregate.MergedEvents:
    """Every worker event stream in *store_dir*, merged."""
    return aggregate.merge_event_streams(
        sorted((pathlib.Path(store_dir) / EVENTS_DIR).glob("*.jsonl"))
    )


def latest_heartbeats(
    merged: aggregate.MergedEvents, ttl: float | None = None
) -> list[dict]:
    """Each stream's last heartbeat, with ``age_seconds`` and ``state``.

    Age comes from the stream file's mtime, not from the worker's wall
    timestamps, so cross-host clock skew cannot fake liveness. Streams
    without a heartbeat are left out.
    """
    ttl = dist_store.claim_ttl() if ttl is None else float(ttl)
    now = time.time()
    beats = []
    for path, records in merged.streams.items():
        beat = next((r for r in reversed(records) if r.get("kind") == HEARTBEAT), None)
        if beat is None:
            continue
        try:
            age = max(0.0, now - os.stat(path).st_mtime)
        except OSError:
            continue
        state = classify(age, bool(beat.get("final")), ttl)
        beats.append({**beat, "age_seconds": age, "state": state})
    return beats


def _heartbeat(state: dict, final: bool = False) -> None:
    """Emit one heartbeat of *state*; refresh the metrics exposition."""
    events.emit(
        HEARTBEAT, worker=dist_store.worker_identity(), host=metrics.hostname(),
        final=final, counters=telemetry.get_recorder().counters(), **dict(state),
    )
    path = metrics.metrics_path()
    if path:
        try:
            metrics.write_metrics_snapshot(path)
        except OSError:
            pass  # the exposition is best-effort; never cost the run


#: The state dict of the process's active beacon (one per worker; nested
#: run_shard calls under run_worker share the outer one).
_active: dict | None = None


@contextmanager
def beacon(shard: str | None = None):
    """Heartbeat this worker into its event stream for one run (reentrant).

    Yields the state dict every heartbeat reports (``shard``,
    ``current_unit``, ``units_done``); ``update`` it per unit. One
    heartbeat is emitted at once, then a daemon thread emits one (and
    rewrites the ``REPRO_METRICS`` exposition) per tick -- a third of
    the claim TTL, clamped to [0.2 s, 5 s], well inside the window that
    would mark the worker suspect -- and the final one on exit.
    """
    global _active
    if _active is not None:
        if shard is not None:
            _active["shard"] = shard
        yield _active
        return
    # Shared with the tick thread without a lock: the caller's
    # ``update`` and the tick's copy are each one dict operation on str
    # keys, which CPython performs atomically.
    state = _active = {"shard": shard, "current_unit": None, "units_done": 0}
    interval = max(0.2, min(5.0, dist_store.claim_ttl() / 3.0))
    stop = threading.Event()

    def tick() -> None:
        while not stop.wait(interval):
            _heartbeat(state)

    _heartbeat(state)
    # Under a copy of this context: the thread sees the bound config.
    thread = threading.Thread(
        target=contextvars.copy_context().run, args=(tick,),
        name="repro-health", daemon=True,
    )
    thread.start()
    try:
        yield state
    finally:
        _active = None
        stop.set()
        thread.join(timeout=5.0)
        _heartbeat(state, final=True)
