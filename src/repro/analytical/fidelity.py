"""The fidelity ladder: ``analytical -> counters -> timeline -> trace``.

Every per-layer question in the repo can be answered at four costs:

- ``analytical``  -- closed-form prediction from density statistics
  (:mod:`repro.analytical.model`); microseconds per layer, validated
  against the simulators by :mod:`repro.analytical.validate`.
- ``counters``    -- the cycle-level simulators with per-cluster
  hardware counters attached (the default).
- ``timeline``    -- counters plus :data:`~repro.profiling.TIMELINE_BINS`
  -bin per-cluster cycle timelines.
- ``trace``       -- timeline plus an event-level memory-system trace of
  the busiest cluster through the double-buffered front end
  (:mod:`repro.sim.trace`), attached under ``extras['trace_*']``.

Each rung returns the same :class:`~repro.sim.results.LayerResult`
schema, so callers (sweeps, the pipeline, the CLI) choose cost without
changing shape. The level comes from the ``fidelity=`` argument or the
run configuration (``REPRO_FIDELITY``), the one depth setting: every
simulator attaches counters on every rung (code that always simulates,
such as the figures, does so under ``analytical`` too), and reads the
rung to decide on timelines. An explicit level is bound into the run
configuration for the call (:func:`at_level`). Results memoise through
the content-hash result cache with fidelity-qualified kinds and a
timelines flag, so mixed-level runs never serve one rung's result to
another.
"""

from __future__ import annotations

from dataclasses import replace

from repro import telemetry
from repro.analytical.model import ANALYTICAL_SCHEMES, predict_layer
from repro import config
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import HardwareConfig
from repro.sim.results import LayerResult

__all__ = [
    "FIDELITY_LEVELS",
    "DEFAULT_FIDELITY",
    "fidelity_level",
    "at_level",
    "fidelity_result_key",
    "simulate_at_fidelity",
]

#: The ladder, cheapest first. ``trace`` subsumes ``timeline`` subsumes
#: ``counters``; ``analytical`` never runs the cycle-level machine.
FIDELITY_LEVELS = config.FIDELITY_LEVELS
DEFAULT_FIDELITY = config.RunConfig.fidelity

#: Schemes whose chunk-count streams the trace front end understands.
_TRACEABLE = ("one_sided", "sparten_no_gb", "sparten_gb_s", "sparten")


def fidelity_level(explicit: str | None = None) -> str:
    """Resolve the active fidelity level.

    An explicit argument wins; otherwise the run configuration's
    (``REPRO_FIDELITY``, validated, warn-once on garbage) with the
    simulator default ``counters``.
    """
    if explicit is not None:
        if explicit not in FIDELITY_LEVELS:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_LEVELS}, got {explicit!r}"
            )
        return explicit
    return config.current().fidelity


def at_level(level: str):
    """Bind the current run configuration at rung *level* for a ``with``."""
    cfg = config.current()
    return config.use(cfg if cfg.fidelity == level else replace(cfg, fidelity=level))


def fidelity_result_key(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    fidelity: str | None = None,
) -> tuple:
    """The memo key :func:`simulate_at_fidelity` publishes under.

    The key depends on the resolved level, not the ambient one, so it is
    computed with that level bound. :func:`simulate_at_fidelity` keys
    through this function, and distributed workers use it to locate a
    unit's result entry in the store without running anything.
    """
    from repro.core import workload

    level = fidelity_level(fidelity)
    with at_level(level):
        return workload.result_key(_kind(level, scheme), spec, cfg, seed)


def _kind(level: str, scheme: str) -> str:
    """The result kind rung *level* publishes *scheme* under; the plain
    simulator rungs share :func:`repro.core.compare.run_scheme_cached`'s."""
    if level == "analytical" or (level == "trace" and scheme in _TRACEABLE):
        return f"{level}:{scheme}"
    return scheme


def _attach_trace(
    result: LayerResult, spec: ConvLayerSpec, cfg: HardwareConfig, seed: int
) -> LayerResult:
    """Run the busiest cluster's chunk stream through the trace model."""
    from repro.core import workload
    from repro.sim.trace import DoubleBufferedCluster

    data, work = workload.get_workload(spec, cfg, seed, need_counts=True)
    bandwidth = cfg.memory_bytes_per_cycle or 16.0
    trace = DoubleBufferedCluster(
        bytes_per_cycle=bandwidth, fetch_latency=20
    ).run_layer(data, cfg, work=work)
    return replace(
        result,
        extras={
            **result.extras,
            "trace_total_cycles": float(trace.total_cycles),
            "trace_compute_cycles": float(trace.compute_cycles),
            "trace_stall_cycles": float(trace.stall_cycles),
            "trace_hiding_efficiency": float(trace.hiding_efficiency),
        },
    )


def simulate_at_fidelity(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    fidelity: str | None = None,
) -> LayerResult:
    """One scheme on one layer at the chosen fidelity level.

    Every level returns a :class:`LayerResult` (same schema); results
    memoise by content key with a fidelity-qualified kind. The trace
    rung applies to the chunk-streaming schemes (:data:`_TRACEABLE`);
    for the others it degrades to ``timeline`` (the trace front end has
    no chunk-stream model of dense or SCNN).
    """
    from repro.core import compare, workload

    level = fidelity_level(fidelity)
    telemetry.count(f"fidelity.{level}.layers")
    if level == "analytical" and scheme not in ANALYTICAL_SCHEMES:
        raise ValueError(
            f"scheme {scheme!r} has no analytical model (have {ANALYTICAL_SCHEMES})"
        )
    with at_level(level):
        key = fidelity_result_key(scheme, spec, cfg, seed, level)
        if _kind(level, scheme) == scheme:
            return compare.run_scheme_cached(scheme, spec, cfg, seed, key=key)
        result = workload.lookup_result(key)
        if result is None:
            if level == "analytical":
                result = predict_layer(spec, cfg, scheme=scheme, seed=seed)
            else:
                result = _attach_trace(
                    compare.run_scheme_cached(scheme, spec, cfg, seed), spec, cfg, seed
                )
            workload.store_result(key, result)
        return result
