"""Fleet-wide aggregation over per-worker observability artifacts.

A distributed sweep (:mod:`repro.dist`) leaves one event stream and
one manifest per worker in the shared store; each stream also carries
its worker's ``heartbeat`` records (:mod:`repro.dist.health`). This
module merges the per-worker streams back into one fleet-wide picture:

- :func:`merge_event_streams` concatenates every readable JSONL stream
  and sorts the records into one global ``(ts, pid, seq)`` order (a
  stream file itself is append-only, in per-process order).
  A SIGKILL'd worker can leave a torn final line (killed mid-``write``);
  post-mortem tooling must not choke on the very evidence it exists to
  examine, so unparseable lines are counted, not raised.
- :func:`unit_spans` / :func:`find_stragglers` turn ``dist.unit``
  records into per-unit durations and flag outliers by robust z-score
  (median/MAD -- a handful of genuinely slow units must not drag the
  mean far enough to hide themselves).
- :func:`fleet_timeline` renders the merged stream as a wall-clock
  ordered, human-readable timeline.
- :func:`merged_chrome_trace` folds the merged stream into one Chrome
  ``trace_event`` JSON with one lane (pid) per worker, so a whole
  fleet's schedule is inspectable in a single trace viewer tab.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

from repro.telemetry import events as _events

__all__ = [
    "MergedEvents",
    "merge_event_streams",
    "unit_spans",
    "robust_zscores",
    "find_stragglers",
    "fleet_timeline",
    "merged_chrome_trace",
]

#: Record kinds excluded from human-facing timelines and trace lanes
#: (periodic progress and liveness records).
HIGH_VOLUME_KINDS = ("progress", "heartbeat")

#: Robust z-score above which a computed unit is called a straggler.
STRAGGLER_ZSCORE = 3.5

#: Scale factors making the MAD / mean-absolute-deviation estimates
#: consistent with a stddev under normality.
_MAD_SCALE = 0.6745
_MEANAD_SCALE = 1.2533


@dataclass
class MergedEvents:
    """Every event from every worker stream, globally ordered; ``streams``
    maps each readable file to its own records, in file order."""

    records: list = field(default_factory=list)
    streams: dict = field(default_factory=dict)
    truncated_lines: int = 0


def merge_event_streams(paths) -> MergedEvents:
    """Merge many per-worker streams into one ``(ts, pid, seq)`` order.

    Lenient where :func:`repro.telemetry.events.read_events` is strict:
    this reader exists for post-mortems, so a killed writer's torn last
    line is counted in ``truncated_lines`` instead of raised, and an
    unreadable file is skipped.
    """
    merged = MergedEvents()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [line for line in fh if line.strip()]
        except OSError:
            continue
        records = []
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                merged.truncated_lines += 1
        merged.streams[str(path)] = records
        merged.records.extend(records)
    merged.records.sort(
        key=lambda r: (r.get("ts", 0.0), r.get("pid", 0), r.get("seq", 0))
    )
    return merged


def unit_spans(records: list[dict]) -> list[dict]:
    """Per-unit execution facts from the merged ``dist.unit`` records."""
    spans: list[dict] = []
    for record in records:
        if record.get("kind") != "dist.unit":
            continue
        spans.append(
            {
                "unit": record.get("unit"),
                "status": record.get("status"),
                "stolen": bool(record.get("stolen")),
                "pid": record.get("pid"),
                "shard": record.get("shard"),
                "ts": float(record.get("ts", 0.0)),
                "seconds": float(record.get("seconds") or 0.0),
            }
        )
    return spans


def robust_zscores(values) -> list[float]:
    """Median/MAD z-scores (outlier-resistant, unlike mean/stddev).

    When the MAD degenerates to zero (more than half the durations
    identical -- common for memo-hit units), fall back to the mean
    absolute deviation around the median, so a lone straggler among
    uniform peers still scores; all-identical values score zero.
    """
    vals = [float(v) for v in values]
    if not vals:
        return []
    med = statistics.median(vals)
    deviations = [abs(v - med) for v in vals]
    mad = statistics.median(deviations)
    if mad > 0.0:
        return [_MAD_SCALE * (v - med) / mad for v in vals]
    meanad = statistics.fmean(deviations)
    if meanad <= 0.0:
        return [0.0] * len(vals)
    return [(v - med) / (_MEANAD_SCALE * meanad) for v in vals]


def find_stragglers(
    spans: list[dict], threshold: float = STRAGGLER_ZSCORE
) -> list[dict]:
    """Computed units whose duration z-score exceeds *threshold*."""
    computed = [
        s for s in spans if s.get("status") == "computed" and s["seconds"] > 0.0
    ]
    scores = robust_zscores([s["seconds"] for s in computed])
    out = []
    for span, score in zip(computed, scores):
        if score >= threshold:
            out.append({**span, "zscore": round(score, 2)})
    out.sort(key=lambda s: -s["zscore"])
    return out


def _detail_fields(record: dict) -> str:
    skip = set(_events.REQUIRED_KEYS) | {"shard"}
    parts = []
    for key in sorted(record):
        if key in skip:
            continue
        parts.append(f"{key}={record[key]}")
    return " ".join(parts)


def fleet_timeline(
    records: list[dict],
    skip_kinds: tuple[str, ...] = HIGH_VOLUME_KINDS,
    limit: int | None = None,
) -> list[str]:
    """Render the merged stream as wall-clock ordered timeline lines.

    Progress and heartbeat records are skipped by default -- they
    dominate the record count. *limit* keeps the **tail** (the interesting
    end of a post-mortem) when the timeline is longer.
    """
    lines: list[str] = []
    for record in records:
        kind = record.get("kind", "?")
        if kind in skip_kinds:
            continue
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(float(record.get("ts", 0.0)))
        )
        millis = int(float(record.get("ts", 0.0)) % 1.0 * 1000)
        shard = record.get("shard")
        if isinstance(shard, dict):  # dist.shard.* carry the identity dict
            shard = f"{shard.get('index', '?')}/{shard.get('count', '?')}"
        lines.append(
            f"{stamp}.{millis:03d}  pid={str(record.get('pid', '?')):<8} "
            f"shard={str(shard or '-'):<5} {kind:<18} {_detail_fields(record)}"
        )
    if limit is not None and len(lines) > limit:
        lines = [f"... ({len(lines) - limit} earlier events elided)"] + lines[-limit:]
    return lines


def merged_chrome_trace(records: list[dict]) -> dict:
    """One Chrome ``trace_event`` JSON with one lane per worker pid.

    ``dist.unit`` records (which carry the unit's wall duration) become
    complete ``"X"`` slices ending at their record timestamp; other
    lifecycle events become instant ``"i"`` marks.
    """
    trace: list[dict] = []
    labelled: set[int] = set()
    for record in records:
        pid = int(record.get("pid", 0))
        if pid not in labelled:
            labelled.add(pid)
            shard = record.get("shard")
            label = f"worker {pid}" + (f" (shard {shard})" if shard else "")
            trace.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        kind = record.get("kind")
        if kind in HIGH_VOLUME_KINDS:
            continue
        ts_us = float(record.get("ts", 0.0)) * 1e6
        args = {
            k: v
            for k, v in record.items()
            if k not in ("schema", "ts", "pid", "kind")
        }
        if kind == "dist.unit" and float(record.get("seconds") or 0.0) > 0.0:
            dur_us = float(record["seconds"]) * 1e6
            trace.append(
                {
                    "name": str(record.get("unit")),
                    "cat": "fleet.unit",
                    "ph": "X",
                    "ts": ts_us - dur_us,
                    "dur": dur_us,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
        else:
            trace.append(
                {
                    "name": str(kind),
                    "cat": "fleet.event",
                    "ph": "i",
                    "s": "p",
                    "ts": ts_us,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry.aggregate"},
    }

