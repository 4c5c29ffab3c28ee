"""Live progress for long runs: in-place TTY line or heartbeat lines.

A :class:`ProgressRenderer` tracks one counted loop (pool items, sweep
points, report experiments) and paints, on **stderr**:

- an in-place ``\\r``-rewritten status line when stderr is a TTY, or
- plain timestamp-friendly heartbeat lines (one every
  :data:`HEARTBEAT_INTERVAL` seconds) when it is not -- what you want
  in a CI log or a redirected nohup file.

The line reports items/sec, ETA, the workload-cache hit rate, the retry
count and worker utilization -- the numbers an operator needs to decide
whether a multi-hour sweep is healthy. ``REPRO_PROGRESS`` gates it:

- ``auto`` (default): render only when stderr is a TTY,
- ``1`` / ``on``: always render (heartbeat lines off-TTY),
- ``0`` / ``off``: never.

Every painted update is also emitted to the event stream as a
``progress`` record, so a run's liveness is visible to anything tailing
``REPRO_EVENTS`` even with stderr discarded. Rendering never influences
results and is rate-limited, so a fast loop pays one clock read per
update. Elapsed/rate/ETA arithmetic uses ``time.monotonic()`` -- an NTP
step mid-run must never produce a negative ETA or a wrong rate; wall
time appears only in the event records' ``ts`` display timestamps.
"""

from __future__ import annotations

import sys
import time

from repro import config
from repro.telemetry import events

__all__ = ["ProgressRenderer", "progress_mode"]

_MIN_REDRAW = 0.1  # seconds between in-place repaints

#: Seconds between heartbeat lines off a TTY.
HEARTBEAT_INTERVAL = 5.0


def progress_mode() -> str:
    """The effective mode: ``tty``, ``heartbeat`` or ``off``."""
    setting = config.current().progress
    try:
        tty = sys.stderr.isatty()
    except (AttributeError, ValueError):
        tty = False
    if setting == "off":
        return "off"
    return "tty" if tty else ("heartbeat" if setting == "on" else "off")


def _fmt_eta(seconds: float) -> str:
    if seconds != seconds or seconds < 0 or seconds == float("inf"):
        return "?"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressRenderer:
    """Progress over a counted loop, painted to stderr and the event stream.

    Args:
        total: number of items the loop will complete.
        label: short loop name shown on the line (``sweep``, ``pool``).
        stream: output stream (default ``sys.stderr``); tests inject a
            ``StringIO``.
        mode: override the ``REPRO_PROGRESS`` resolution (tests).
    """

    def __init__(self, total: int, label: str = "items", stream=None, mode: str | None = None):
        self.total = max(0, int(total))
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.mode = mode if mode is not None else progress_mode()
        self.done = 0
        self._t0 = time.monotonic()
        self._last_paint = -float("inf")
        self._last_line_len = 0
        self._closed = False

    # -- data ---------------------------------------------------------------

    def _snapshot_stats(self, extra: dict) -> dict:
        elapsed = time.monotonic() - self._t0
        stats = {
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "elapsed": round(elapsed, 3),
        }
        rate = self.done / elapsed if elapsed > 0 else 0.0
        stats["rate"] = round(rate, 3)
        remaining = self.total - self.done
        stats["eta_seconds"] = round(remaining / rate, 1) if rate > 0 else None
        stats.update(extra)
        return stats

    def _line(self, stats: dict) -> str:
        pct = 100.0 * self.done / self.total if self.total else 0.0
        parts = [
            f"{self.label} {self.done}/{self.total} ({pct:.0f}%)",
            f"{stats['rate']:.2f}/s",
            f"eta {_fmt_eta(stats['eta_seconds'] if stats['eta_seconds'] is not None else float('nan'))}",
        ]
        if "cache_hit_rate" in stats and stats["cache_hit_rate"] is not None:
            parts.append(f"cache {100.0 * stats['cache_hit_rate']:.0f}%")
        if stats.get("retries"):
            parts.append(f"retries {int(stats['retries'])}")
        if "workers_busy" in stats and "workers" in stats:
            parts.append(f"workers {int(stats['workers_busy'])}/{int(stats['workers'])}")
        return "  ".join(parts)

    # -- painting -----------------------------------------------------------

    def update(self, done: int | None = None, **stats) -> None:
        """Advance to *done* (or +1) and repaint if the mode/rate allow.

        Extra keyword stats (``cache_hit_rate``, ``retries``,
        ``workers``, ``workers_busy``) enrich the line and the emitted
        ``progress`` event.
        """
        self.done = self.done + 1 if done is None else int(done)
        now = time.monotonic()
        final = self.done >= self.total
        if self.mode == "off":
            # Still heartbeat into the event stream, at the same rate.
            if final or now - self._last_paint >= HEARTBEAT_INTERVAL:
                self._last_paint = now
                events.emit("progress", **self._snapshot_stats(stats))
            return
        if self.mode == "tty":
            if not final and now - self._last_paint < _MIN_REDRAW:
                return
        elif not final and now - self._last_paint < HEARTBEAT_INTERVAL:
            return
        self._last_paint = now
        payload = self._snapshot_stats(stats)
        events.emit("progress", **payload)
        line = self._line(payload)
        try:
            if self.mode == "tty":
                pad = " " * max(0, self._last_line_len - len(line))
                self.stream.write("\r" + line + pad)
                self._last_line_len = len(line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self.mode = "off"  # a closed/broken stderr ends rendering, not the run

    def close(self) -> None:
        """Finish the line (TTY mode needs the trailing newline)."""
        if self._closed:
            return
        self._closed = True
        if self.mode == "tty" and self._last_line_len:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass

    def __enter__(self) -> "ProgressRenderer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
