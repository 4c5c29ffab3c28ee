"""Prometheus text-exposition rendering of the telemetry registry.

The recorder already *is* a metrics registry -- accumulating counters,
last-write gauges, span seconds/call totals. This module renders that
state (live, or from a written manifest) in the Prometheus text
exposition format so any scraper-side tooling ingests a run without a
bespoke parser::

    repro stats manifest.json --prometheus     # from a manifest
    python -c "from repro.telemetry import metrics; print(metrics.prometheus_text())"

Name mapping is mechanical and stable: counter ``cache.workload.hit``
becomes ``repro_cache_workload_hit_total``, gauge ``mac_utilization``
becomes ``repro_mac_utilization``, and spans fold into two labelled
families, ``repro_span_seconds_total{span="simulate"}`` and
``repro_span_calls_total{span="simulate"}``.

:func:`parse_prometheus` is the scraper stand-in the tests use to prove
the output round-trips, and :func:`write_metrics_snapshot` writes the
``REPRO_METRICS=path`` snapshot file for file-based scraping: once when
a CLI run window closes, and on every heartbeat of a dist worker
(:func:`repro.dist.health.beacon`).
"""

from __future__ import annotations

import os
import pathlib
import re
import socket
from typing import Mapping

from repro import config
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = [
    "metric_name",
    "default_labels",
    "render_prometheus",
    "prometheus_text",
    "prometheus_from_manifest",
    "parse_prometheus",
    "write_metrics_snapshot",
    "metrics_path",
]

_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def metrics_path() -> str | None:
    """The snapshot path of the run configuration (None = disabled)."""
    return config.current().metrics or None


def metric_name(name: str, suffix: str = "") -> str:
    """Map a dotted telemetry name onto a Prometheus metric name."""
    base = _SANITIZE.sub("_", name.strip())
    if not base or base[0].isdigit():
        base = "_" + base
    return f"repro_{base}{suffix}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_block(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def hostname() -> str:
    """This host's name (``"unknown"`` when the lookup fails)."""
    try:
        return socket.gethostname()
    except OSError:
        return "unknown"


def default_labels() -> dict[str, str]:
    """Constant per-worker labels stamped on every fleet sample.

    Sharded workers of one sweep all write snapshot files into the same
    store; without identity labels their series collide the moment a
    scraper aggregates them. Keyed off the configured shard so a plain
    single-process run keeps its label-free exposition (and its tests).
    """
    shard = config.current().shard
    if not shard:
        return {}
    return {"shard": shard, "pid": str(os.getpid()), "host": hostname()}


def render_prometheus(
    counters: Mapping[str, float],
    gauges: Mapping[str, float] | None = None,
    spans: Mapping[str, Mapping[str, float]] | None = None,
    labels: Mapping[str, str] | None = None,
) -> str:
    """The text-exposition body for one set of telemetry aggregates.

    *labels* (e.g. :func:`default_labels`) are stamped on every sample
    so merged multi-worker scrapes stay distinguishable.
    """
    base = _label_block(labels)
    lines: list[str] = []
    for name in sorted(counters):
        metric = metric_name(name, "_total")
        lines.append(f"# HELP {metric} accumulated repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{base} {_format_value(counters[name])}")
    for name in sorted(gauges or {}):
        metric = metric_name(name)
        lines.append(f"# HELP {metric} last-observed repro gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{base} {_format_value(gauges[name])}")
    if spans:
        lines.append("# HELP repro_span_seconds_total wall seconds per span name")
        lines.append("# TYPE repro_span_seconds_total counter")
        for name in sorted(spans):
            block = _label_block({**(labels or {}), "span": name})
            lines.append(
                f"repro_span_seconds_total{block} "
                f"{_format_value(spans[name].get('seconds', 0.0))}"
            )
        lines.append("# HELP repro_span_calls_total completed spans per name")
        lines.append("# TYPE repro_span_calls_total counter")
        for name in sorted(spans):
            block = _label_block({**(labels or {}), "span": name})
            lines.append(
                f"repro_span_calls_total{block} "
                f"{_format_value(spans[name].get('calls', 0))}"
            )
    return "\n".join(lines) + "\n"


def prometheus_text(recorder: Recorder | None = None) -> str:
    """Render the live registry (default recorder) as exposition text."""
    rec = recorder if recorder is not None else get_recorder()
    return render_prometheus(
        rec.counters(), rec.gauges(), rec.span_totals(),
        labels=default_labels(),
    )


def prometheus_from_manifest(manifest: Mapping) -> str:
    """Render a written manifest's aggregates as exposition text.

    A sharded run's manifest carries its shard section; forwarding it
    as labels keeps offline rendering identical to what the worker's
    live exposition said (the worker identity ``host-pid`` splits back
    into the same ``host``/``pid`` labels).
    """
    labels: dict[str, str] = {}
    section = manifest.get("shard") or {}
    if isinstance(section, dict):
        if section.get("shard"):
            labels["shard"] = str(section["shard"])
        worker = section.get("worker")
        if worker:
            host, sep, pid = str(worker).rpartition("-")
            if sep and pid.isdigit():
                labels.setdefault("host", host)
                labels.setdefault("pid", pid)
            else:
                labels["worker"] = str(worker)
    return render_prometheus(
        manifest.get("counters") or {},
        manifest.get("gauges") or {},
        manifest.get("spans") or {},
        labels=labels,
    )


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """A minimal scraper: exposition text -> ``{(name, labels): value}``.

    Raises ``ValueError`` on any non-comment line that is not a valid
    sample -- the tests use this as the proof that what we emit is what
    a Prometheus scraper would accept.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: not a prometheus sample: {line!r}")
        labels: list[tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL.finditer(raw):
                labels.append(
                    (lm.group(1), lm.group(2).replace('\\"', '"').replace("\\\\", "\\"))
                )
                consumed = lm.end()
            leftover = raw[consumed:].strip().strip(",")
            if leftover:
                raise ValueError(f"line {lineno}: bad label set: {raw!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad sample value: {line!r}") from exc
        key = (match.group("name"), tuple(sorted(labels)))
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key}")
        samples[key] = value
    return samples


def write_metrics_snapshot(
    path: str | os.PathLike, recorder: Recorder | None = None
) -> pathlib.Path:
    """Atomically write the current exposition text to *path*."""
    from repro.resilience.checkpoint import write_atomic

    return write_atomic(path, prometheus_text(recorder))

