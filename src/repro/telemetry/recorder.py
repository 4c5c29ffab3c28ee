"""The per-run telemetry recorder: spans, counters, gauges, merging.

Everything the experiment engine wants to observe at runtime funnels
through one :class:`Recorder`:

- **Spans** (:meth:`Recorder.span`) are nestable timed regions with
  attributes (layer, network, scheme, kernel path). Each completed span
  accumulates into a ``{name: {seconds, calls}}`` aggregate (the
  ``extras["stages"]`` of comparison results) and, up to a bounded
  event budget, records a Chrome ``trace_event``-compatible
  record (see :mod:`repro.telemetry.trace`). Attributes propagate: a
  span opened inside another span inherits the parent's attributes
  (its own win on collision), so a ``simulate`` span under a
  ``layer=Layer2`` span is attributed to that layer without every call
  site re-stating it.
- **Counters** (:meth:`Recorder.count`) are monotonically accumulating
  floats -- cache hits, kernel dispatches, bytes packed. **Gauges**
  (:meth:`Recorder.gauge`) are last-write-wins observations.
- **Snapshots** (:meth:`Recorder.snapshot`) are plain JSON-able dicts, so
  a worker process can ship its whole telemetry state back to the parent
  which merges it (:meth:`Recorder.merge`): span seconds and counters
  add, gauges update, events concatenate. That is what makes timing and
  cache statistics survive ``REPRO_JOBS>1`` fan-out.

The module-level functions (:func:`span`, :func:`count`, ...) operate on
one process-global default recorder, which is what the library
instrumentation uses. Recording is cheap (a dict update and, within the
event budget, one small dict append per span) and never influences
simulation results; past :data:`MAX_EVENTS` event records (per
recorder, unless one is built with its own ``max_events``) further
records are counted as dropped while the aggregates keep accumulating.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator

from repro.telemetry import events as _events

__all__ = [
    "Recorder",
    "get_recorder",
    "span",
    "count",
    "gauge",
    "snapshot",
    "merge",
    "reset",
    "current_span_id",
    "set_trace_parent",
]

#: Snapshot schema version (bumped on incompatible shape changes).
SNAPSHOT_SCHEMA = "repro-telemetry/1"

#: Default cap on trace event records a recorder keeps.
MAX_EVENTS = 100_000


class Recorder:
    """Thread-safe telemetry sink for one process (or one merged run)."""

    def __init__(self, max_events: int | None = None) -> None:
        self._max_events = MAX_EVENTS if max_events is None else max_events
        self._lock = threading.Lock()
        self._local = threading.local()
        # Cross-process trace context: the parent span id a worker's
        # top-level spans re-parent under. Process-level, so it survives
        # reset() -- a worker sets it once per attempt.
        self._trace_parent: str | None = None
        self._span_seq = 0
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._wall: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._counters: dict[str, float] = defaultdict(float)
        self._gauges: dict[str, float] = {}
        self._events: list[dict] = []
        self._dropped_events = 0
        # Anchor mapping perf_counter() durations onto the wall clock so
        # events from different processes share one trace timeline.
        self._epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _id_stack(self) -> list[str]:
        ids = getattr(self._local, "ids", None)
        if ids is None:
            ids = self._local.ids = []
        return ids

    def _next_span_id(self) -> str:
        """A run-unique span id: ``<pid hex>-<per-process counter hex>``.

        The pid component keeps ids collision-free when worker snapshots
        merge into the parent's event list.
        """
        with self._lock:
            self._span_seq += 1
            return f"{os.getpid():x}-{self._span_seq:x}"

    def current_span_id(self) -> str | None:
        """The innermost open span's id on this thread (or the trace parent).

        This is the trace context a caller propagates into a child
        process so the child's spans nest under it in the merged trace.
        """
        ids = self._id_stack()
        return ids[-1] if ids else self._trace_parent

    def set_trace_parent(self, span_id: str | None) -> None:
        """Adopt *span_id* as the parent for this process's root spans."""
        self._trace_parent = span_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time the enclosed block under *name*, inheriting parent attrs."""
        stack = self._stack()
        ids = self._id_stack()
        parent_attrs = stack[-1] if stack else {}
        effective = {**parent_attrs, **attrs} if (parent_attrs or attrs) else {}
        span_id = self._next_span_id()
        parent_id = ids[-1] if ids else self._trace_parent
        stack.append(effective)
        ids.append(span_id)
        depth = len(stack)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            ids.pop()
            with self._lock:
                self._wall[name] += dur
                self._calls[name] += 1
                if len(self._events) < self._max_events:
                    ts = self._epoch_wall + (t0 - self._epoch_perf)
                    event = {
                        "name": name,
                        "ts": ts * 1e6,  # microseconds, trace_event convention
                        "dur": dur * 1e6,
                        "pid": os.getpid(),
                        "tid": threading.get_ident(),
                        "depth": depth,
                        "id": span_id,
                    }
                    if parent_id is not None:
                        event["parent"] = parent_id
                    if effective:
                        event["args"] = dict(effective)
                    self._events.append(event)
                else:
                    self._dropped_events += 1

    def emit_event(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int | None = None,
        tid: int | None = None,
        args: dict | None = None,
        pname: str | None = None,
        tname: str | None = None,
    ) -> bool:
        """Record one raw complete event (trace timestamps in microseconds).

        Used by the profiler to place rows on synthetic timelines (e.g.
        per-cluster simulated-cycle lanes) rather than the wall clock.
        *pname*/*tname* name the trace process/thread rows; the Chrome
        exporter turns them into metadata records. Subject to the same
        event budget as spans; returns ``False`` when dropped.
        """
        with self._lock:
            if len(self._events) >= self._max_events:
                self._dropped_events += 1
                return False
            event: dict = {
                "name": name,
                "ts": float(ts),
                "dur": float(dur),
                "pid": int(pid) if pid is not None else os.getpid(),
                "tid": int(tid) if tid is not None else 0,
                "depth": 1,
            }
            if args:
                event["args"] = dict(args)
            if pname:
                event["pname"] = pname
            if tname:
                event["tname"] = tname
            self._events.append(event)
            return True

    def current_attrs(self) -> dict:
        """Attributes of the innermost open span on this thread."""
        stack = self._stack()
        return dict(stack[-1]) if stack else {}

    # -- counters / gauges --------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Add *value* to the accumulating counter *name*."""
        with self._lock:
            self._counters[name] += value

    def gauge(self, name: str, value: float) -> None:
        """Record the last-observed value of *name*."""
        with self._lock:
            self._gauges[name] = value

    # -- snapshot / merge / reset -------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Aggregated spans: ``{name: {"seconds": s, "calls": n}}``."""
        with self._lock:
            return {
                k: {"seconds": self._wall[k], "calls": self._calls[k]}
                for k in sorted(self._wall)
            }

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._counters.items()))

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def events(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._events]

    def snapshot(self, events: bool = True) -> dict:
        """The whole telemetry state as a plain JSON-able dict.

        Workers return this alongside their results; the parent merges
        it with :meth:`merge`. ``events=False`` omits the per-span event
        records (manifests want only the aggregates).
        """
        with self._lock:
            snap: dict = {
                "schema": SNAPSHOT_SCHEMA,
                "pid": os.getpid(),
                "spans": {
                    k: {"seconds": self._wall[k], "calls": self._calls[k]}
                    for k in sorted(self._wall)
                },
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "dropped_events": self._dropped_events,
            }
            if events:
                snap["events"] = [dict(e) for e in self._events]
            return snap

    def merge(self, snap: dict) -> None:
        """Fold a snapshot (typically from a worker process) into this one."""
        if not snap:
            return
        with self._lock:
            for name, agg in snap.get("spans", {}).items():
                self._wall[name] += float(agg.get("seconds", 0.0))
                self._calls[name] += int(agg.get("calls", 0))
            for name, value in snap.get("counters", {}).items():
                self._counters[name] += float(value)
            self._gauges.update(snap.get("gauges", {}))
            self._dropped_events += int(snap.get("dropped_events", 0))
            for event in snap.get("events", []):
                if len(self._events) < self._max_events:
                    self._events.append(dict(event))
                else:
                    self._dropped_events += 1

    def reset(self) -> None:
        """Start a fresh measurement window (spans, counters, events)."""
        with self._lock:
            self._reset_locked()


_RECORDER = Recorder()


def get_recorder() -> Recorder:
    """The process-global default recorder."""
    return _RECORDER


def span(name: str, **attrs: Any):
    """``with telemetry.span("simulate", layer="L2"): ...`` on the default recorder."""
    return _RECORDER.span(name, **attrs)


def count(name: str, value: float = 1.0) -> None:
    """Add *value* to a counter on the default recorder.

    Increments through this function (all library instrumentation) are
    also mirrored into the JSONL event stream when ``REPRO_EVENTS`` is
    active -- that one-to-one mirroring is what lets a merged stream
    reconcile exactly with the manifest's counter dump.
    """
    _RECORDER.count(name, value)
    _events.mirror_counter(name, value)


def gauge(name: str, value: float) -> None:
    """Record a gauge observation on the default recorder (mirrored)."""
    _RECORDER.gauge(name, value)
    _events.mirror_gauge(name, value)


def current_span_id() -> str | None:
    """The default recorder's innermost open span id (trace context)."""
    return _RECORDER.current_span_id()


def set_trace_parent(span_id: str | None) -> None:
    """Set the default recorder's cross-process trace parent."""
    _RECORDER.set_trace_parent(span_id)


def snapshot(events: bool = True) -> dict:
    """Snapshot the default recorder."""
    return _RECORDER.snapshot(events=events)


def merge(snap: dict) -> None:
    """Merge a (worker) snapshot into the default recorder."""
    _RECORDER.merge(snap)


def reset() -> None:
    """Reset the default recorder's measurement window."""
    _RECORDER.reset()
