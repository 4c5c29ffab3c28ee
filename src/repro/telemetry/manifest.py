"""Run manifests: a self-describing record of one experiment run.

Timeloop-style infrastructures write, next to every run's outputs, a
record of *what* ran (config, seed, code version) and *how* it went
(per-stage wall time, counters). :func:`write_manifest` produces that
record for this engine: git SHA, package versions, the ``REPRO_*`` knobs
the run configuration sets away from their defaults, a content hash of
the experiment configuration, and the
telemetry aggregates (span totals, counters, gauges) of the measurement
window. ``repro stats <manifest.json>`` pretty-prints one back.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import subprocess
import time

from repro import config as run_config
from repro.telemetry import events as _events
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "render_manifest",
]

MANIFEST_SCHEMA = "repro-manifest/2"


def _git_sha() -> str | None:
    """The repository HEAD SHA, best-effort (None outside a checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _versions() -> dict[str, str]:
    import numpy

    import repro

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


def config_hash(config: dict | None) -> str | None:
    """Stable short hash of the run configuration dict."""
    if config is None:
        return None
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_manifest(
    *,
    seed: int | None = None,
    config: dict | None = None,
    recorder: Recorder | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the manifest dict from the current telemetry window."""
    from repro.analytical.fidelity import fidelity_level
    from repro.dist.shard import shard_identity
    from repro.resilience import resilience_summary

    cfg = run_config.current()
    rec = recorder if recorder is not None else get_recorder()
    snap = rec.snapshot(events=False)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "platform": platform.platform(),
        "versions": _versions(),
        "env": cfg.as_env(),
        "seed": seed,
        "fidelity": fidelity_level(),
        "shard": shard_identity(),
        "config": config,
        "config_hash": config_hash(config),
        "spans": snap["spans"],
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "resilience": resilience_summary(snap["counters"]),
        "dropped_events": snap["dropped_events"],
        "events": _events.describe(),
        "metrics_snapshot": cfg.metrics or None,
    }
    if extra:
        manifest["extra"] = extra
    return manifest


def write_manifest(path: str | pathlib.Path, **kwargs) -> dict:
    """Build the manifest and write it to *path*; returns the dict."""
    manifest = build_manifest(**kwargs)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def read_manifest(path: str | pathlib.Path) -> dict:
    """Load a manifest written by :func:`write_manifest`."""
    manifest = json.loads(pathlib.Path(path).read_text())
    if not isinstance(manifest, dict) or "schema" not in manifest:
        raise ValueError(f"{path}: not a repro manifest")
    return manifest


def render_manifest(manifest: dict) -> str:
    """Human-readable rendering for ``repro stats``."""
    lines = [
        f"manifest {manifest.get('schema', '?')}  created {manifest.get('created', '?')}",
        f"git {manifest.get('git_sha') or 'unknown'}  platform {manifest.get('platform', '?')}",
    ]
    versions = manifest.get("versions") or {}
    if versions:
        lines.append(
            "versions " + "  ".join(f"{k}={v}" for k, v in sorted(versions.items()))
        )
    if manifest.get("seed") is not None:
        lines.append(f"seed {manifest['seed']}")
    if manifest.get("fidelity"):
        lines.append(f"fidelity {manifest['fidelity']}")
    if manifest.get("config_hash"):
        lines.append(f"config hash {manifest['config_hash']}")
    config = manifest.get("config") or {}
    for key in sorted(config):
        lines.append(f"  config.{key} = {config[key]}")
    env = manifest.get("env") or {}
    if env:
        lines.append("environment:")
        for key in sorted(env):
            lines.append(f"  {key}={env[key]}")
    spans = manifest.get("spans") or {}
    if spans:
        lines.append("stages (wall seconds, summed across processes):")
        width = max(len(name) for name in spans)
        for name in sorted(spans, key=lambda n: -spans[n].get("seconds", 0.0)):
            agg = spans[name]
            lines.append(
                f"  {name.ljust(width)}  {agg.get('seconds', 0.0):10.4f}s"
                f"  x{int(agg.get('calls', 0))}"
            )
    counters = manifest.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name.ljust(width)}  {shown}")
    resilience = manifest.get("resilience") or {}
    if any(resilience.values()):
        lines.append("resilience:")
        for key in sorted(resilience):
            if resilience[key]:
                lines.append(f"  {key.ljust(18)}  {int(resilience[key])}")
    gauges = manifest.get("gauges") or {}
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name.ljust(width)}  {gauges[name]}")
    if manifest.get("dropped_events"):
        lines.append(f"dropped events: {manifest['dropped_events']}")
    ev = manifest.get("events") or {}
    if ev.get("path"):
        lines.append(f"event log {ev['path']}  ({ev.get('schema', '?')})")
    if manifest.get("metrics_snapshot"):
        lines.append(f"metrics snapshot {manifest['metrics_snapshot']}")
    return "\n".join(lines)
