"""Schema-versioned JSONL event stream (``REPRO_EVENTS=path``).

Manifests and counters summarise a run after the fact; the event stream
is the run *as it happens*: one JSON object per line, appended to the
file named by ``REPRO_EVENTS``, emitted from the pipeline, the sweeps,
the resilience machinery (retry / timeout / fault / quarantine), the
cache, and the doctor. Every record carries the stream schema version,
a wall-clock timestamp, the emitting pid and a per-process sequence
number, so merged streams can be validated for lost or duplicated
events.

The stream holds **lifecycle records only** (``run.start``,
``pipeline.layer``, ``sweep.point``, ``resilience.retry``,
``dist.unit``, ``progress`` ...). Counters, gauges and spans live in
the in-process recorder alone; the manifest and the Prometheus
exposition are views of it. The two meet in one counter: every record a
process writes or buffers counts :data:`RECORDS_COUNTER` on its
recorder, so a run's manifest says how many records its stream window
holds (``benchmarks/check_events.py``).

Cross-process behaviour follows the telemetry snapshots: a pool worker
never touches the main file. Its records go to an in-memory buffer that
the pool wrapper hands back inside the attempt's telemetry snapshot;
the parent appends a kept attempt's records to the main file
(:func:`append`) and drops a discarded attempt's (retried failures,
abandoned timeouts) together with its counters. The main file is only
ever appended to, so it keeps each pid's own ``seq`` order but is not
globally sorted; readers that want ``(ts, pid, seq)`` order sort the
records themselves (:func:`repro.telemetry.aggregate.merge_event_streams`).

Everything here is inert unless ``REPRO_EVENTS`` is set: the fast path
of :func:`emit` is a single run-configuration lookup.
"""

from __future__ import annotations

import atexit
import json
import os
import pathlib
import threading
import time
from typing import Any

from repro import config
from repro.telemetry.recorder import get_recorder

__all__ = [
    "EVENTS_SCHEMA",
    "RECORDS_COUNTER",
    "emit",
    "append",
    "enabled",
    "events_path",
    "current_seq",
    "start_run",
    "describe",
    "read_events",
    "validate_events",
    "set_worker_mode",
    "take_buffer",
]

#: Event-stream schema version (bumped on incompatible record changes).
EVENTS_SCHEMA = "repro-events/1"

#: Recorder counter of the records a process wrote or buffered.
RECORDS_COUNTER = "events.records"

#: Record keys every event must carry (validated by :func:`validate_events`).
REQUIRED_KEYS = ("schema", "ts", "pid", "seq", "kind")

_lock = threading.RLock()
_seq = 0  # per-process, monotone (dedup identity)
_sink_path: str | None = None  # path the open handle points at
_sink_file = None
_buffer: list[dict] | None = None  # a pool worker's records; None in the parent


def events_path() -> str | None:
    """The main stream path of the run configuration (None = disabled)."""
    return config.current().events or None


def enabled() -> bool:
    """Whether the run configuration names a stream."""
    return events_path() is not None


def set_worker_mode() -> None:
    """Buffer this process's records instead of writing them (called by
    the pool initializer); :func:`take_buffer` hands them over."""
    global _buffer
    with _lock:
        _buffer = []


def take_buffer() -> list[dict]:
    """The records buffered since the last call (empty outside a worker)."""
    global _buffer
    with _lock:
        if _buffer is None:
            return []
        records, _buffer = _buffer, []
        return records


def _close_locked() -> None:
    global _sink_file, _sink_path
    if _sink_file is not None:
        try:
            _sink_file.close()
        except OSError:
            pass
    _sink_file = None
    _sink_path = None


# The handle stays open across writes; close it at exit, not in the GC.
atexit.register(_close_locked)


def _write_locked(path: str, records: list[dict]) -> bool:
    """Append *records* to *path*; False if the write failed."""
    global _sink_file, _sink_path
    try:
        if _sink_file is None or _sink_path != path:
            _close_locked()
            pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
            _sink_file = open(path, "a", encoding="utf-8")
            _sink_path = path
        _sink_file.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        _sink_file.flush()  # line-granular durability: a crash loses nothing
    except OSError:
        return False  # the stream is best-effort, never costs a run
    return True


def _jsonable(value: Any):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def emit(kind: str, name: str | None = None, value: float | None = None, **fields) -> bool:
    """Append one event record; returns whether anything was recorded.

    A no-op (one configuration lookup) when no stream is configured.
    *fields* are coerced to JSON-safe values, so span attributes and
    paths can be passed directly. In a pool worker the record is
    buffered for the attempt's snapshot instead of written.
    """
    global _seq
    path = events_path()
    if path is None:
        return False
    with _lock:
        record: dict = {
            "schema": EVENTS_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "seq": _seq,
            "kind": str(kind),
        }
        _seq += 1
        if name is not None:
            record["name"] = str(name)
        if value is not None:
            record["value"] = float(value)
        for key, val in fields.items():
            if key not in record:
                record[key] = _jsonable(val)
        shard = config.current().shard
        if shard and "shard" not in record:
            # Shard identity rides on every record so per-shard slices
            # of a merged multi-worker stream reconcile to sweep totals.
            record["shard"] = shard
        if _buffer is not None:
            _buffer.append(record)
        elif not _write_locked(path, [record]):
            return False
    get_recorder().count(RECORDS_COUNTER)
    return True


def append(records: list[dict]) -> int:
    """Append a kept pool attempt's *records* to the main file.

    Their :data:`RECORDS_COUNTER` increments arrive separately, in the
    same snapshot's counters. Returns the number of records written.
    """
    path = events_path()
    if not records or path is None:
        return 0
    with _lock:
        return len(records) if _write_locked(path, records) else 0


def current_seq() -> int:
    """This process's next event sequence number.

    A health heartbeat recording it tells a post-mortem reader how far
    the worker's stream had advanced when the heartbeat was written.
    """
    with _lock:
        return _seq


def start_run(**fields) -> None:
    """Open a fresh stream window: truncate the main file, mark the start.

    Called right after ``telemetry.reset()`` so the stream covers exactly
    the window of the manifest's counters -- that alignment is what lets
    the manifest's :data:`RECORDS_COUNTER` count the stream exactly.
    """
    path = events_path()
    if path is None:
        return
    with _lock:
        _close_locked()
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        open(path, "w", encoding="utf-8").close()
    emit("run.start", **fields)


def describe() -> dict | None:
    """The manifest's ``events`` section: path and schema."""
    path = events_path()
    if path is None:
        return None
    return {"path": path, "schema": EVENTS_SCHEMA}


# -- reading / validation ---------------------------------------------------


def read_events(path: str | os.PathLike) -> list[dict]:
    """Parse one JSONL stream file into a list of record dicts.

    Raises ``OSError`` if the file cannot be read and ``ValueError`` on
    a line that is not a JSON object.
    """
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records


def validate_events(records: list[dict], allow_gaps: bool = False) -> dict:
    """Check stream invariants; raises ``ValueError`` on any violation.

    Every record must carry the required keys and the supported schema
    version; ``(pid, seq)`` must be unique (no duplicated events) and
    ``seq`` gap-free per pid over the records that pid contributed (no
    lost events); each pid's ``(ts, seq)`` must be non-decreasing in its
    own emission order. Ordering is deliberately *not* enforced across
    pids: the main file appends each kept pool attempt whole, and
    workers on different hosts (or across an NTP step) have skewed wall
    clocks. *allow_gaps* relaxes the per-pid contiguity check for runs
    with injected faults, where discarded attempts legitimately consume
    sequence numbers whose records are dropped unread.
    Returns a summary ``{"records": n, "pids": [...], "kinds": {...}}``.
    """
    seen: set[tuple[int, int]] = set()
    per_pid: dict[int, list[int]] = {}
    kinds: dict[str, int] = {}
    last_by_pid: dict[int, tuple[float, int]] = {}
    for i, record in enumerate(records):
        for key in REQUIRED_KEYS:
            if key not in record:
                raise ValueError(f"record {i}: missing required key {key!r}")
        if record["schema"] != EVENTS_SCHEMA:
            raise ValueError(
                f"record {i}: schema {record['schema']!r} != {EVENTS_SCHEMA!r}"
            )
        ident = (int(record["pid"]), int(record["seq"]))
        if ident in seen:
            raise ValueError(f"record {i}: duplicated event (pid, seq)={ident}")
        seen.add(ident)
        per_pid.setdefault(ident[0], []).append(ident[1])
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        mark = (float(record["ts"]), ident[1])
        last = last_by_pid.get(ident[0])
        if last is not None and mark < last:
            raise ValueError(
                f"record {i}: pid {ident[0]} timestamp regressed "
                f"({mark} < {last})"
            )
        last_by_pid[ident[0]] = mark
    if not allow_gaps:
        for pid, seqs in per_pid.items():
            expected = set(range(min(seqs), min(seqs) + len(seqs)))
            if set(seqs) != expected:
                missing = sorted(expected - set(seqs))[:5]
                raise ValueError(f"pid {pid}: lost events (missing seq {missing} ...)")
    return {"records": len(records), "pids": sorted(per_pid), "kinds": kinds}

