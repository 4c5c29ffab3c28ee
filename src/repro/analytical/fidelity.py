"""The fidelity ladder: ``analytical -> counters -> timeline -> trace``.

Every per-layer question in the repo can be answered at four costs:

- ``analytical``  -- closed-form prediction from density statistics
  (:mod:`repro.analytical.model`); microseconds per layer, validated
  against the simulators by :mod:`repro.analytical.validate`.
- ``counters``    -- the cycle-level simulators with per-cluster
  hardware counters attached (the repo's default profile mode).
- ``timeline``    -- counters plus binned per-cluster cycle timelines
  (``REPRO_PROFILE=timeline``).
- ``trace``       -- timeline plus an event-level memory-system trace of
  the busiest cluster through the double-buffered front end
  (:mod:`repro.sim.trace`), attached under ``extras['trace_*']``.

Each rung returns the same :class:`~repro.sim.results.LayerResult`
schema, so callers (sweeps, the pipeline, the CLI) choose cost without
changing shape. The level comes from the ``fidelity=`` argument or the
run configuration (``REPRO_FIDELITY``); results memoise through the
content-hash result cache with fidelity-qualified kinds, so mixed-level
runs never serve one rung's result to another.
"""

from __future__ import annotations

from dataclasses import replace

from repro import profiling, telemetry
from repro.analytical.model import ANALYTICAL_SCHEMES, predict_layer
from repro import config
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import HardwareConfig
from repro.sim.results import LayerResult

__all__ = [
    "FIDELITY_LEVELS",
    "DEFAULT_FIDELITY",
    "fidelity_level",
    "fidelity_result_key",
    "simulate_at_fidelity",
]

#: The ladder, cheapest first. ``trace`` subsumes ``timeline`` subsumes
#: ``counters``; ``analytical`` never runs the cycle-level machine.
FIDELITY_LEVELS = config.FIDELITY_LEVELS
DEFAULT_FIDELITY = config.RunConfig.fidelity

#: Schemes whose chunk-count streams the trace front end understands.
_TRACEABLE = ("one_sided", "sparten_no_gb", "sparten_gb_s", "sparten")

_PROFILE_FOR = {
    "counters": profiling.MODE_COUNTERS,
    "timeline": profiling.MODE_TIMELINE,
    "trace": profiling.MODE_TIMELINE,
}


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


def fidelity_result_key(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    fidelity: str | None = None,
) -> tuple:
    """The memo key :func:`simulate_at_fidelity` publishes under.

    The key depends on the profile mode the ladder will *escalate to*,
    not the ambient one, so it is computed under the same
    :func:`repro.profiling.escalated` config as the simulation.
    Distributed workers use this to locate a unit's result entry in the
    store without running anything -- it must stay in lockstep with
    :func:`simulate_at_fidelity`.
    """
    from repro.core import workload

    level = fidelity_level(fidelity)
    if level == "analytical":
        return workload.result_key(f"analytical:{scheme}", spec, cfg, seed)
    with config.use(profiling.escalated(_PROFILE_FOR[level])):
        if level == "trace" and scheme in _TRACEABLE:
            return workload.result_key(f"trace:{scheme}", spec, cfg, seed)
        return workload.result_key(scheme, spec, cfg, seed)


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
    if level == "analytical":
        if scheme not in ANALYTICAL_SCHEMES:
            raise ValueError(
                f"scheme {scheme!r} has no analytical model "
                f"(have {ANALYTICAL_SCHEMES})"
            )
        key = workload.result_key(f"analytical:{scheme}", spec, cfg, seed)
        result = workload.lookup_result(key)
        if result is None:
            result = predict_layer(spec, cfg, scheme=scheme, seed=seed)
            workload.store_result(key, result)
        return result

    with config.use(profiling.escalated(_PROFILE_FOR[level])):
        if level == "trace" and scheme in _TRACEABLE:
            key = workload.result_key(f"trace:{scheme}", spec, cfg, seed)
            result = workload.lookup_result(key)
            if result is None:
                result = _attach_trace(
                    compare.run_scheme_cached(scheme, spec, cfg, seed),
                    spec,
                    cfg,
                    seed,
                )
                workload.store_result(key, result)
            return result
        return compare.run_scheme_cached(scheme, spec, cfg, seed)
