"""Structured logging for library code (``REPRO_LOG_LEVEL``).

Library modules log through here instead of ``print()`` so user-facing
CLI output (experiment rows on stdout) stays separable from diagnostics:
log records go to **stderr** with a timestamped, ``key=value`` friendly
format, and the threshold comes from ``REPRO_LOG_LEVEL`` (``DEBUG``,
``INFO``, ``WARNING`` -- the default -- ``ERROR``, ``CRITICAL``).
``REPRO_LOG_FORMAT=json`` switches stderr to one JSON object per line
(``{"ts", "level", "logger", "message"}``) for log shippers; the human
format stays the default and the switch is re-read per record, so tests
can flip it without reconfiguring handlers.

Use :func:`get_logger` for a namespaced child of the ``repro`` logger and
:func:`kv` to format structured fields consistently::

    log = get_logger("workload")
    log.info("disk cache store %s", kv(path=path, bytes=nbytes))
"""

from __future__ import annotations

import json
import logging
import sys

from repro import config

__all__ = ["get_logger", "kv"]

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s :: %(message)s"
_configured = False


class _JsonFormatter(logging.Formatter):
    """One JSON object per record, machine-first field set."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": record.created,
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class _SwitchableFormatter(logging.Formatter):
    """Delegates to the human or JSON formatter per ``REPRO_LOG_FORMAT``.

    Choosing at format time (not configure time) keeps the single
    installed handler valid when tests or long-lived sessions change the
    run configuration mid-process.
    """

    def __init__(self) -> None:
        super().__init__(_FORMAT)
        self._human = logging.Formatter(_FORMAT)
        self._json = _JsonFormatter()

    def format(self, record: logging.LogRecord) -> str:
        if config.current().log_format == "json":
            return self._json.format(record)
        return self._human.format(record)


class _StderrHandler(logging.StreamHandler):
    """StreamHandler that resolves ``sys.stderr`` at emit time.

    Binding the stream lazily keeps records flowing to wherever stderr
    points *now* -- pytest's per-test capture, a redirected fd -- instead
    of the stream object that existed when logging was first configured.
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.__init__ assigns; ignore it.
        pass


def _configure_root() -> logging.Logger:
    global _configured
    root = logging.getLogger("repro")
    if not _configured:
        _configured = True
        if not root.handlers:
            handler = _StderrHandler()
            handler.setFormatter(_SwitchableFormatter())
            root.addHandler(handler)
        root.propagate = False
    # Re-read the config each call so tests (and long-lived sessions) can
    # adjust verbosity without reconfiguring handlers.
    root.setLevel(logging.getLevelName(config.current().log_level.upper()))
    return root


def get_logger(name: str | None = None) -> logging.Logger:
    """A configured logger: ``repro`` or the child ``repro.<name>``."""
    root = _configure_root()
    return root.getChild(name) if name else root


def kv(**fields) -> str:
    """``key=value`` rendering for structured log fields (sorted keys)."""
    return " ".join(f"{k}={fields[k]}" for k in sorted(fields))
