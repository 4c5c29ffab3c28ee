"""Schema-versioned JSONL event stream (``REPRO_EVENTS=path``).

Manifests and counters summarise a run after the fact; the event stream
is the run *as it happens*: one JSON object per line, appended to the
file named by ``REPRO_EVENTS``, emitted from the pipeline, the sweeps,
the resilience machinery (retry / timeout / fault / quarantine), the
cache, and the doctor. Every record carries the stream schema version,
a wall-clock timestamp, the emitting pid and a per-process sequence
number, so merged streams can be validated for lost or duplicated
events.

Two record families:

- **counter mirrors** (``kind == "counter"``): every increment that goes
  through :func:`repro.telemetry.count` is also appended to the stream,
  which is what makes the stream reconcile *exactly* with the manifest's
  counter dump -- both see the same increments, kept or discarded
  together (see below).
- **lifecycle events** (``run.start``, ``pipeline.layer``,
  ``sweep.point``, ``resilience.retry``, ``doctor.quarantine``,
  ``progress`` ...): structured markers with their own attributes.

Cross-process behaviour mirrors the telemetry snapshots: a pool worker
never appends to the main file. Each item *attempt* writes to its own
``<path>.<pid>-<token>-a<n>.part`` side file whose path rides back to
the parent inside the telemetry snapshot; the parent merges exactly the
part files of the attempts whose results it kept (discarded attempts --
retried failures, abandoned timeouts -- are deleted unread, just as
their counter snapshots are discarded). :func:`merge_parts` rewrites
the main file in ``(ts, pid, seq)`` order, so the merged stream is
globally timestamp-sorted at every pool join.

Everything here is inert unless ``REPRO_EVENTS`` is set: the fast path
of :func:`emit` is a single run-configuration lookup.
"""

from __future__ import annotations

import glob
import json
import os
import pathlib
import threading
import time
from typing import Any

from repro import config

__all__ = [
    "EVENTS_SCHEMA",
    "emit",
    "enabled",
    "events_path",
    "current_seq",
    "start_run",
    "describe",
    "read_events",
    "validate_events",
    "counter_totals",
    "merge_parts",
    "begin_attempt",
    "end_attempt",
    "set_worker_mode",
]

#: Event-stream schema version (bumped on incompatible record changes).
EVENTS_SCHEMA = "repro-events/1"

#: Record keys every event must carry (validated by :func:`validate_events`).
REQUIRED_KEYS = ("schema", "ts", "pid", "seq", "kind")

_lock = threading.RLock()
_seq = 0  # per-process, monotone across sink switches (dedup identity)
_sink_path: str | None = None  # path the open handle points at
_sink_file = None
_part_override: str | None = None  # worker-attempt side file, beats the env
_worker_mode = False  # in a pool worker: never touch the main file
_emitted_main = 0  # records in the main file owed to this process (incl. merges)


def events_path() -> str | None:
    """The main stream path of the run configuration (None = disabled)."""
    return config.current().events or None


def enabled() -> bool:
    """Whether any sink (main file or worker part file) is active."""
    return _resolve_path() is not None


def _resolve_path() -> str | None:
    if _part_override is not None:
        return _part_override
    if _worker_mode:
        # A pool worker outside an item attempt has no sink: the main
        # file belongs to the parent process alone.
        return None
    return events_path()


def set_worker_mode() -> None:
    """Mark this process as a pool worker (called by the pool initializer).

    Workers only ever write through the per-attempt part files that
    :func:`begin_attempt` opens; between attempts the stream is off.
    """
    global _worker_mode
    with _lock:
        _worker_mode = True
        _close_locked()


def _close_locked() -> None:
    global _sink_file, _sink_path
    if _sink_file is not None:
        try:
            _sink_file.close()
        except OSError:
            pass
    _sink_file = None
    _sink_path = None


def _ensure_open_locked(path: str):
    global _sink_file, _sink_path
    if _sink_file is None or _sink_path != path:
        _close_locked()
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        _sink_file = open(path, "a", encoding="utf-8")
        _sink_path = path
    return _sink_file


def _jsonable(value: Any):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def emit(kind: str, name: str | None = None, value: float | None = None, **fields) -> bool:
    """Append one event record; returns whether anything was written.

    A no-op (one configuration lookup) when no sink is active. *fields* are
    coerced to JSON-safe values, so span attributes and paths can be
    passed directly.
    """
    global _seq, _emitted_main
    path = _resolve_path()
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
        try:
            fh = _ensure_open_locked(path)
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()  # line-granular durability: a crash loses nothing
        except OSError:
            return False  # the stream is best-effort, never costs a run
        if _part_override is None:
            _emitted_main += 1
        return True


def current_seq() -> int:
    """This process's next event sequence number.

    Monotone across sink switches, so a health heartbeat recording it
    tells a post-mortem reader how far the worker's stream had advanced
    when the heartbeat was written.
    """
    with _lock:
        return _seq


def mirror_counter(name: str, value: float) -> None:
    """Counter-increment mirror hook (called by ``telemetry.count``)."""
    emit("counter", name=name, value=value)


def mirror_gauge(name: str, value: float) -> None:
    """Gauge-observation mirror hook (called by ``telemetry.gauge``)."""
    emit("gauge", name=name, value=value)


def start_run(**fields) -> None:
    """Open a fresh stream window: truncate the main file, mark the start.

    Called next to ``telemetry.reset()`` so the stream covers exactly
    the same measurement window as the manifest's counters -- that
    alignment is what makes the reconciliation check exact. Stale
    ``.part`` files from an earlier abandoned run are swept too.
    """
    global _emitted_main
    path = events_path()
    if path is None:
        return
    with _lock:
        _close_locked()
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        open(path, "w", encoding="utf-8").close()
        _emitted_main = 0
        for stale in glob.glob(glob.escape(path) + ".*.part"):
            try:
                os.unlink(stale)
            except OSError:
                pass
    emit("run.start", **fields)


def describe() -> dict | None:
    """The manifest's ``events`` section: path, schema, emitted count."""
    path = events_path()
    if path is None:
        return None
    with _lock:
        return {"path": path, "schema": EVENTS_SCHEMA, "emitted": _emitted_main}


# -- worker-attempt part files ----------------------------------------------


def begin_attempt(token: str, attempt: int) -> None:
    """Route this process's events to a fresh per-attempt part file.

    Called by the pool worker wrapper before running an item; the part
    file's fate is tied to the attempt's: kept attempts are merged by
    the parent, failed ones deleted unread.
    """
    global _part_override
    base = events_path()
    with _lock:
        _close_locked()
        if base is None:
            _part_override = None
            return
        _part_override = f"{base}.{os.getpid()}-{token}-a{int(attempt)}.part"
        # Truncate: a re-run attempt number (pool resubmission after a
        # pid reuse) must not append to a stale file.
        try:
            pathlib.Path(_part_override).parent.mkdir(parents=True, exist_ok=True)
            open(_part_override, "w", encoding="utf-8").close()
        except OSError:
            _part_override = None


def end_attempt() -> str | None:
    """Close the per-attempt part file; returns its path (None if off).

    The returned path travels back to the parent inside the telemetry
    snapshot, flushed and closed before the result is returned, so a
    kept result always names a complete part file.
    """
    global _part_override
    with _lock:
        path = _part_override
        _close_locked()
        _part_override = None
    return path


def merge_parts(kept_parts: list[str]) -> int:
    """Fold kept worker part files into the main stream at pool join.

    Reads the main file plus every readable *kept* part, sorts all
    records by ``(ts, pid, seq)`` and atomically rewrites the main
    file; then deletes **every** ``<path>.*.part`` side file (kept and
    discarded alike). Returns the number of merged worker records.
    """
    global _emitted_main
    path = events_path()
    if path is None:
        return 0
    merged = 0
    with _lock:
        _close_locked()
        records: list[dict] = []
        try:
            records.extend(read_events(path))
        except OSError:
            pass
        for part in kept_parts:
            if not part:
                continue
            try:
                part_records = read_events(part)
            except OSError:
                continue
            merged += len(part_records)
            records.extend(part_records)
        records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0), r.get("seq", 0)))
        from repro.resilience.checkpoint import write_atomic

        try:
            write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n"
                                       for r in records))
            _emitted_main += merged
        except OSError:
            return 0
        for stale in glob.glob(glob.escape(path) + ".*.part"):
            try:
                os.unlink(stale)
            except OSError:
                pass
    return merged


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
    pids: workers on different hosts (or across an NTP step) have
    skewed wall clocks, so equal or backward timestamps between
    processes are normal -- :func:`merge_parts` already gives the
    merged stream a stable ``(ts, pid, seq)`` order for readers.
    *allow_gaps* relaxes the per-pid contiguity check for runs with
    injected faults, where discarded attempts legitimately consume
    sequence numbers whose part files are deleted unread.
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


def counter_totals(records: list[dict]) -> dict[str, float]:
    """Sum the mirrored counter increments: ``{counter name: total}``.

    This is the stream-side of the reconciliation invariant: for a run
    whose stream window matches its telemetry window, these totals
    equal the manifest's ``counters`` section exactly.
    """
    totals: dict[str, float] = {}
    for record in records:
        if record.get("kind") == "counter" and "name" in record:
            totals[record["name"]] = totals.get(record["name"], 0.0) + float(
                record.get("value", 1.0)
            )
    return totals
