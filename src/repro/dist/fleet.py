"""The fleet view: one merged picture of a distributed sweep's store.

:func:`build_fleet_view` folds every observability artifact a sweep
leaves in its shared store -- the published plan, the result entries,
per-worker manifests, health heartbeats and event streams -- into a
single :class:`FleetView`. Each figure has one source:

- per-shard progress (published / total per shard slice) from the
  result entries,
- a workers table with liveness verdicts (live / suspect / dead /
  exited, from :mod:`repro.dist.health`),
- fleet throughput and ETA from the merged event stream,
- the exactly-once audit: result-entry completeness, manifest
  reconciliation (:func:`repro.dist.worker.reconcile`), per-unit
  computed-event counts, and an exact cross-check of the ``dist.unit``
  record tallies against the summed manifests,
- retries, faults and quarantines from their lifecycle records; cache
  hit rate and claim steals from each worker's latest heartbeat,
- anomalies: dead workers, stragglers (robust z-score over per-unit
  durations), steals, faults, quarantines, lost attribution.

Two renderers sit on top: :func:`render_top` (one frame of the
``repro top`` dashboard) and :func:`render_inspect` (the ``repro
inspect`` post-mortem report). Everything is read-only: building a
view never mutates the store.
"""

from __future__ import annotations

import os
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.dist import health
from repro.dist import shard as dist_shard
from repro.dist import store as dist_store
from repro.dist import worker as dist_worker
from repro.telemetry import aggregate

__all__ = ["FleetView", "build_fleet_view", "render_top", "render_inspect"]

#: Store subdirectory where ``repro sweep``/``repro worker`` default
#: their per-worker event streams (see ``cli._main_dist``).
EVENTS_DIR = "events"

_ANSI_RED = "\x1b[31m"
_ANSI_YELLOW = "\x1b[33m"
_ANSI_RESET = "\x1b[0m"


@dataclass
class FleetView:
    """Everything known about one sweep store, merged and reconciled."""

    store: str
    units_total: int
    published: int
    per_shard: list = field(default_factory=list)
    workers: list = field(default_factory=list)
    tallies: dict = field(default_factory=dict)
    throughput: float | None = None
    eta_seconds: float | None = None
    cache_hit_rate: float | None = None
    reconcile: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)
    stragglers: list = field(default_factory=list)
    anomalies: dict = field(default_factory=dict)
    events_info: dict = field(default_factory=dict)
    generated_unix: float = 0.0
    #: The merged event records (kept off :meth:`as_dict`; renderers
    #: and the trace writer read them directly).
    records: list = field(default_factory=list, repr=False)

    @property
    def healthy(self) -> bool:
        """The ``repro inspect`` verdict: complete + exactly-once +
        fully attributed + counters reconciled."""
        audit = self.audit
        return bool(
            audit.get("complete")
            and audit.get("exactly_once")
            and audit.get("counters_consistent", True)
            and not audit.get("lost_attribution")
        )

    def as_dict(self) -> dict:
        return {
            "schema": "repro-fleet-view/1",
            "store": self.store,
            "units_total": self.units_total,
            "published": self.published,
            "per_shard": self.per_shard,
            "workers": self.workers,
            "tallies": self.tallies,
            "throughput": self.throughput,
            "eta_seconds": self.eta_seconds,
            "cache_hit_rate": self.cache_hit_rate,
            "reconcile": self.reconcile,
            "audit": self.audit,
            "stragglers": self.stragglers,
            "anomalies": self.anomalies,
            "events": self.events_info,
            "healthy": self.healthy,
            "generated_unix": self.generated_unix,
        }

    def chrome_trace(self) -> dict:
        """Merged cross-worker Chrome trace (one lane per worker pid)."""
        return aggregate.merged_chrome_trace(self.records)

    def timeline(self, limit: int | None = None) -> list[str]:
        """Wall-clock ordered fleet timeline lines."""
        return aggregate.fleet_timeline(self.records, limit=limit)


def _shard_count(manifests: list[dict], heartbeats: list[dict]) -> int | None:
    counts = set()
    for m in manifests:
        section = m.get("shard") or {}
        if isinstance(section, dict) and section.get("count"):
            counts.add(int(section["count"]))
    for h in heartbeats:
        shard = h.get("shard")
        if isinstance(shard, str) and "/" in shard:
            try:
                counts.add(dist_shard.parse_shard(shard)[1])
            except ValueError:
                pass
    return max(counts) if counts else None


def _workers_table(
    manifests: list[dict], heartbeats: list[dict], ttl: float | None
) -> list[dict]:
    workers: dict[str, dict] = {}
    for m in manifests:
        name = str(m.get("worker", "?"))
        section = m.get("shard") or {}
        shard = (
            f"{section['index']}/{section['count']}"
            if isinstance(section, dict) and section.get("count")
            else None
        )
        workers[name] = {
            "worker": name,
            "pid": m.get("pid"),
            "host": None,
            "shard": shard,
            "state": None,  # no heartbeat (pre-heartbeat manifest)
            "computed": m.get("computed", 0),
            "skipped": m.get("skipped", 0),
            "stolen": m.get("stolen", 0),
            "units_done": m.get("computed", 0) + m.get("skipped", 0),
            "current_unit": None,
            "age_seconds": None,
            "uptime_seconds": None,
        }
    for h in heartbeats:
        name = str(h.get("worker", "?"))
        entry = workers.setdefault(
            name,
            {
                "worker": name, "pid": None, "host": None, "shard": None,
                "state": None, "computed": 0, "skipped": 0, "stolen": 0,
                "units_done": 0, "current_unit": None,
                "age_seconds": None, "uptime_seconds": None,
            },
        )
        entry.update(
            pid=h.get("pid", entry["pid"]),
            host=h.get("host"),
            shard=h.get("shard") or entry["shard"],
            state=health.classify(h, ttl=ttl),
            current_unit=h.get("current_unit"),
            age_seconds=round(float(h.get("age_seconds", 0.0)), 1),
            uptime_seconds=h.get("uptime_seconds"),
            units_done=max(entry["units_done"], h.get("units_done", 0)),
        )
    return sorted(workers.values(), key=lambda w: w["worker"])


def build_fleet_view(
    store_dir: str | os.PathLike,
    plan: dist_shard.SweepPlan | None = None,
    ttl: float | None = None,
) -> FleetView:
    """Merge every artifact in *store_dir* into one :class:`FleetView`.

    Raises ``FileNotFoundError`` (via :func:`repro.dist.shard.load_plan`)
    when the store has no published plan yet.
    """
    store_dir = pathlib.Path(store_dir)
    if plan is None:
        plan = dist_shard.load_plan(store_dir)
    ttl = dist_store.claim_ttl() if ttl is None else float(ttl)

    published_tokens = {
        u.token for u in plan.units
        if dist_worker.unit_entry(store_dir, u, plan).exists()
    }
    report = dist_worker.reconcile(store_dir, plan)
    manifests = dist_worker.load_shard_manifests(store_dir)
    heartbeats = health.read_health(store_dir)

    merged = aggregate.merge_event_streams(
        sorted((store_dir / EVENTS_DIR).glob("*.jsonl"))
    )
    records = merged.records
    kinds = Counter(r.get("kind") for r in records)
    spans = aggregate.unit_spans(records)
    # One dist.unit record per dist.unit.* count (execute_unit), so the
    # record tallies are the counter totals.
    units = Counter(s["status"] for s in spans)
    units["stolen"] = sum(1 for s in spans if s["stolen"] and s["status"] == "computed")

    # -- exactly-once audit ------------------------------------------------
    computed_events: dict[str, int] = {}
    for span in spans:
        if span["status"] == "computed" and span["unit"]:
            computed_events[span["unit"]] = computed_events.get(span["unit"], 0) + 1
    if records:
        lost = sorted(
            t for t in published_tokens if computed_events.get(t, 0) == 0
        )
        event_duplicates = sorted(
            t for t, n in computed_events.items() if n > 1
        )
        counters_consistent = all(
            units[kind] == report[kind] for kind in ("computed", "skipped", "stolen")
        )
    else:
        # No event streams in the store (library-only run): the result
        # entries and manifests are the only evidence; nothing to
        # cross-check.
        lost, event_duplicates, counters_consistent = [], [], True
    audit = {
        "units": len(plan.units),
        "published": len(published_tokens),
        "complete": report["complete"],
        "exactly_once": report["exactly_once"] and not event_duplicates,
        "attributed": sum(
            1 for t in published_tokens if computed_events.get(t, 0) > 0
        ),
        "lost_attribution": lost,
        "event_duplicates": event_duplicates,
        "manifest_duplicates": report["duplicates"],
        "foreign": report.get("foreign", []),
        "counters_consistent": counters_consistent,
        "event_computed_total": units["computed"],
        "manifest_computed_total": report["computed"],
    }

    # -- per-shard progress ------------------------------------------------
    n_shards = _shard_count(manifests, heartbeats)
    per_shard = []
    for index in range(n_shards or 1):
        shard = (index, n_shards) if n_shards else None
        tokens = [u.token for u in plan.shard_units(shard)]
        per_shard.append(
            {
                "shard": f"{index}/{n_shards}" if n_shards else "all",
                "units": len(tokens),
                "published": sum(1 for t in tokens if t in published_tokens),
            }
        )

    # -- throughput / ETA from the merged stream ---------------------------
    throughput = eta = None
    done_ts = sorted(s["ts"] for s in spans if s["status"] == "computed")
    if len(done_ts) >= 2 and done_ts[-1] > done_ts[0]:
        throughput = (len(done_ts) - 1) / (done_ts[-1] - done_ts[0])
        remaining = len(plan.units) - len(published_tokens)
        if remaining and throughput > 0:
            eta = remaining / throughput

    beat = Counter()
    for h in heartbeats:
        beat.update(h.get("counters") or {})
    hits, misses = beat["cache.workload.hit"], beat["cache.workload.miss"]
    cache_hit_rate = hits / (hits + misses) if hits + misses else None

    tallies = {
        "computed": report["computed"],
        "skipped": report["skipped"],
        "stolen": report["stolen"],
        "deferred": units["deferred"],
        "retries": kinds["resilience.retry"],
        "claim_steals": beat["store.claim.steal"],
        "faults": kinds["resilience.fault"],
        "quarantines": kinds["cache.quarantine"] + kinds["doctor.quarantine"],
    }

    workers = _workers_table(manifests, heartbeats, ttl)
    stragglers = aggregate.find_stragglers(spans)
    anomalies = {
        "dead_workers": [w["worker"] for w in workers if w["state"] == health.DEAD],
        "suspect_workers": [
            w["worker"] for w in workers if w["state"] == health.SUSPECT
        ],
        "stragglers": stragglers,
        "steals": report["stolen"],
        "claim_steals": tallies["claim_steals"],
        "faults": tallies["faults"],
        "quarantines": tallies["quarantines"],
        "lost_attribution": lost,
        "manifest_duplicates": report["duplicates"],
        "foreign": report.get("foreign", []),
        "truncated_event_lines": merged.truncated_lines,
    }

    return FleetView(
        store=str(store_dir),
        units_total=len(plan.units),
        published=len(published_tokens),
        per_shard=per_shard,
        workers=workers,
        tallies=tallies,
        throughput=throughput,
        eta_seconds=eta,
        cache_hit_rate=cache_hit_rate,
        reconcile={k: v for k, v in report.items() if k != "missing"},
        audit=audit,
        stragglers=stragglers,
        anomalies=anomalies,
        events_info={
            "streams": len(merged.files),
            "records": len(records),
            "truncated_lines": merged.truncated_lines,
        },
        generated_unix=time.time(),
        records=records,
    )


def _fmt_rate(value: float | None, unit: str) -> str:
    return f"{value:.2f} {unit}" if value is not None else "-"


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 90:
        return f"{seconds:.0f}s"
    return f"{seconds / 60:.1f}m"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_ANSI_RESET}" if color else text


def render_top(view: FleetView, color: bool = False) -> str:
    """One frame of the ``repro top`` dashboard."""
    pct = 100.0 * view.published / view.units_total if view.units_total else 0.0
    hit = (
        f"{100.0 * view.cache_hit_rate:.0f}%"
        if view.cache_hit_rate is not None
        else "-"
    )
    t = view.tallies
    lines = [
        f"fleet: {view.store}",
        f"progress: {view.published}/{view.units_total} units published"
        f" ({pct:.0f}%)   throughput {_fmt_rate(view.throughput, 'units/s')}"
        f"   eta {_fmt_eta(view.eta_seconds)}",
        f"cache hits {hit}   retries {t['retries']}   steals {t['stolen']}"
        f"   claim-steals {t['claim_steals']}   faults {t['faults']}"
        f"   quarantines {t['quarantines']}",
        "",
        f"{'shard':<8} {'units':>6} {'published':>10}",
    ]
    for row in view.per_shard:
        lines.append(
            f"{row['shard']:<8} {row['units']:>6} {row['published']:>10}"
        )
    lines.append("")
    lines.append(
        f"{'worker':<24} {'pid':>8} {'shard':<6} {'state':<8} "
        f"{'done':>5} {'age':>6}  current"
    )
    for w in view.workers:
        state = w["state"] or "-"
        if state == health.DEAD:
            state = _paint("DEAD", _ANSI_RED, color)
        elif state == health.SUSPECT:
            state = _paint("SUSPECT", _ANSI_YELLOW, color)
        age = f"{w['age_seconds']:.0f}s" if w["age_seconds"] is not None else "-"
        lines.append(
            f"{w['worker']:<24} {str(w['pid'] or '-'):>8} "
            f"{w['shard'] or '-':<6} {state:<8} {w['units_done']:>5} "
            f"{age:>6}  {w['current_unit'] or '-'}"
        )
    dead = view.anomalies["dead_workers"]
    suspect = view.anomalies["suspect_workers"]
    if dead or suspect:
        lines.append("")
        if dead:
            lines.append(_paint(
                f"!! {len(dead)} dead worker(s): {', '.join(dead)}",
                _ANSI_RED, color,
            ))
        if suspect:
            lines.append(_paint(
                f"?  {len(suspect)} suspect worker(s): {', '.join(suspect)}",
                _ANSI_YELLOW, color,
            ))
    return "\n".join(lines)


def render_inspect(view: FleetView, max_timeline: int | None = 40) -> str:
    """The ``repro inspect`` post-mortem report (markdown)."""
    a = view.audit
    t = view.tallies
    yes = lambda flag: "yes" if flag else "**NO**"  # noqa: E731
    lines = [
        f"# Fleet inspection: {view.store}",
        "",
        "## Summary",
        "",
        f"- units: {view.published}/{view.units_total} published",
        f"- workers: {len(view.workers)}"
        f" ({len(view.anomalies['dead_workers'])} dead,"
        f" {len(view.anomalies['suspect_workers'])} suspect)",
        f"- event streams: {view.events_info.get('streams', 0)}"
        f" ({view.events_info.get('records', 0)} records,"
        f" {view.events_info.get('truncated_lines', 0)} torn lines)",
        f"- computed {t['computed']}  skipped {t['skipped']}"
        f"  stolen {t['stolen']}  retries {t['retries']}"
        f"  faults {t['faults']}  quarantines {t['quarantines']}",
        "",
        "## Exactly-once audit",
        "",
        f"- complete (every unit published): {yes(a['complete'])}",
        f"- exactly-once (manifests + events): {yes(a['exactly_once'])}",
        f"- unit tallies reconcile (events vs manifests):"
        f" {yes(a['counters_consistent'])}"
        f"  (events {a['event_computed_total']:.0f} == manifests"
        f" {a['manifest_computed_total']})",
        f"- attributed: {a['attributed']}/{a['published']} published units"
        f" have a computing worker on record",
        f"- verdict: {'HEALTHY' if view.healthy else 'UNHEALTHY'}",
    ]
    for token in a["manifest_duplicates"][:5]:
        lines.append(f"  - duplicated compute (manifests): `{token}`")
    for token in a["event_duplicates"][:5]:
        lines.append(f"  - duplicated compute (events): `{token}`")
    for token in a["lost_attribution"][:5]:
        lines.append(f"  - published but unattributed: `{token}`")
    for token in a["foreign"][:5]:
        lines.append(f"  - foreign token (not in this plan): `{token}`")
    lines += ["", "## Anomalies", ""]
    dead = view.anomalies["dead_workers"]
    if dead:
        lines.append(f"- **dead workers ({len(dead)})**: {', '.join(dead)}")
    for name in view.anomalies["suspect_workers"]:
        lines.append(f"- suspect worker: {name}")
    for s in view.stragglers[:10]:
        lines.append(
            f"- straggler: `{s['unit']}` took {s['seconds']:.3f}s"
            f" (z={s['zscore']}, pid {s['pid']})"
        )
    if view.anomalies["claim_steals"]:
        lines.append(f"- claim steals: {view.anomalies['claim_steals']:.0f}")
    if t["stolen"]:
        lines.append(f"- stolen units: {t['stolen']}")
    if view.anomalies["truncated_event_lines"]:
        lines.append(
            "- torn event lines (writer killed mid-record):"
            f" {view.anomalies['truncated_event_lines']}"
        )
    if len(lines) > 0 and lines[-1] == "":
        lines.append("- none")
    lines += ["", f"## Timeline ({len(view.records)} events merged)", ""]
    timeline = view.timeline(limit=max_timeline)
    if timeline:
        lines.append("```")
        lines.extend(timeline)
        lines.append("```")
    else:
        lines.append("(no event streams found in the store)")
    return "\n".join(lines)
