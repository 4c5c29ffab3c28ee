"""Microarchitectural profiling: hardware counters for every simulator.

The cycle simulators (:mod:`repro.sim.dense`, :mod:`repro.sim.sparten`,
:mod:`repro.sim.scnn`, :mod:`repro.sim.dynamic`, :mod:`repro.sim.fpga`)
attach a :class:`~repro.profiling.counters.CounterSet` to every
:class:`~repro.sim.results.LayerResult`: per-cluster busy/idle/stall
MAC-cycles split by cause and buffer-occupancy high-water marks,
always. The fidelity ladder (``REPRO_FIDELITY``, see
:mod:`repro.analytical.fidelity`) decides the one optional extra: on
the ``timeline`` and ``trace`` rungs every cluster also gets a
:data:`TIMELINE_BINS`-bin progress histogram, exported as per-cluster
rows in the Chrome trace (one sim cycle renders as one microsecond,
each scheme on its own sim clock starting at 0).

:func:`record_layer` folds a finished layer's counters into the
telemetry recorder (``profile.<scheme>.<bucket>_mac_cycles`` counters,
so they reach manifests and merge across ``REPRO_JOBS`` workers) and, on
the timeline rungs, emits the per-cluster trace rows.

Profiling never influences simulation results: figures are byte-
identical on every rung (the result memo keys include whether the rung
records timelines, so a cached entry never lacks the timelines a run
expects).
"""

from __future__ import annotations

import zlib

from repro import telemetry
from repro import config
from repro.profiling.counters import (
    BUCKETS,
    CounterSet,
    positional_timeline,
    zero_counters,
)

__all__ = [
    "TIMELINE_BINS",
    "BUCKETS",
    "CounterSet",
    "zero_counters",
    "positional_timeline",
    "records_timelines",
    "timeline_bins",
    "record_layer",
    "reset_sim_clock",
    "profile_network",
    "render_attribution",
    "write_profile_json",
    "DEFAULT_SCHEMES",
    "PROFILE_SCHEMA",
]

#: Progress bins per cluster timeline on the ``timeline``/``trace`` rungs.
TIMELINE_BINS = 32

#: Trace pids for simulated-time rows live far above real OS pids.
_SIM_PID_BASE = 900_000_000

#: Per-scheme simulated clock (cycles) so consecutive layers abut.
_sim_clock: dict[str, float] = {}


def records_timelines() -> bool:
    """Whether the active fidelity rung attaches cluster timelines."""
    return config.current().fidelity in ("timeline", "trace")


def timeline_bins() -> int:
    """Bins per cluster timeline on the active rung (0: no timelines)."""
    return TIMELINE_BINS if records_timelines() else 0


def reset_sim_clock() -> None:
    """Rewind the per-scheme simulated trace clocks to cycle 0."""
    _sim_clock.clear()


def record_layer(result) -> None:
    """Fold a finished layer's counters into the telemetry recorder."""
    counters = getattr(result, "counters", None)
    if counters is None:
        return
    telemetry.count(f"profile.{counters.scheme}.profiled_layers")
    for bucket, value in counters.totals().items():
        telemetry.count(f"profile.{counters.scheme}.{bucket}_mac_cycles", value)
    if counters.timeline_cycles is not None:
        _emit_timeline_rows(result.layer_name, counters)


def _emit_timeline_rows(layer_name: str, counters: CounterSet) -> None:
    """One Chrome-trace row per cluster, one slice per timeline bin.

    Rows live under a synthetic per-scheme process whose clock counts
    *cycles* (rendered as microseconds); slower clusters' rows run
    longer, so imbalance is visible as the gap before the next layer.
    """
    recorder = telemetry.get_recorder()
    pid = _SIM_PID_BASE + zlib.crc32(counters.scheme.encode()) % 1_000_000
    base = _sim_clock.get(counters.scheme, 0.0)
    units = counters.units_per_cluster
    for cluster in range(counters.n_clusters):
        ts = base
        tname = f"cluster {cluster}"
        for b in range(counters.timeline_cycles.shape[1]):
            dur = float(counters.timeline_cycles[cluster, b])
            if dur <= 0.0:
                continue
            occupied = float(counters.timeline_busy[cluster, b])
            recorder.emit_event(
                name=layer_name,
                ts=ts,
                dur=dur,
                pid=pid,
                tid=cluster,
                args={"bin": b, "occupancy": round(occupied / (dur * units), 4)},
                pname=f"sim {counters.scheme} (1 cycle = 1 us)",
                tname=tname,
            )
            ts += dur
    _sim_clock[counters.scheme] = base + float(counters.total_cycles)


def __getattr__(name: str):
    # Attribution helpers import repro.core lazily; exposing them the
    # same way keeps `import repro.profiling` cheap inside simulators.
    if name in (
        "profile_network",
        "render_attribution",
        "write_profile_json",
        "DEFAULT_SCHEMES",
        "PROFILE_SCHEMA",
    ):
        from repro.profiling import attribution

        return getattr(attribution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
