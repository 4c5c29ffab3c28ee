"""Fault tolerance for the experiment engine.

A multi-hour sweep (``headline_means --exact``, the design-space sweeps)
must survive the failures that show up only at scale: a worker process
OOM-killed mid-figure, a truncated entry in ``$REPRO_CACHE_DIR``, one
layer hanging on a pathological input. This package supplies the three
mechanisms the engine threads through its hot paths, plus the harness
that proves they work:

- :mod:`repro.resilience.retry` -- the bounded-retry / backoff / item-
  timeout policy (``REPRO_RETRIES``, ``REPRO_RETRY_BACKOFF``,
  ``REPRO_ITEM_TIMEOUT``) that :func:`repro.core.parallel.parallel_map`
  applies per item, so a dead worker costs only its in-flight items.
- :mod:`repro.resilience.checkpoint` -- the checksummed entry codec of
  the store's result tier: every finished (scheme, layer, seed) result
  that enters the result memo is published as one entry, so a rerun over
  the same store (``repro run --resume <dir>`` uses *dir* as the store)
  re-executes only unfinished work.
- :mod:`repro.resilience.faults` -- deterministic, seeded fault
  injection (``REPRO_FAULT=worker_crash:0.1,cache_corrupt:2``) so every
  degradation path is exercised in tests and CI rather than discovered
  in production.
- :mod:`repro.resilience.doctor` -- ``repro doctor``: scan, verify and
  prune the on-disk store (its result entries) and its quarantined
  entries.

Recovery never changes results: every retried or resumed item recomputes
from its arguments alone, so a faulted run's figures are byte-identical
to a clean serial run (the chaos tests assert exactly that).
"""

from repro.resilience.faults import FaultPlan, InjectedFault, fault_point, fire, suppressed
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "fault_point",
    "fire",
    "suppressed",
    "RetryPolicy",
    "call_with_retry",
    "resilience_summary",
]


def resilience_summary(counters: dict[str, float]) -> dict[str, float]:
    """The manifest's ``resilience`` section from a counter dump.

    One stable place defines which counters summarise the fault-tolerance
    machinery, so manifests, ``repro stats`` and the CI chaos guard agree
    on the names.
    """
    return {
        "retries": counters.get("resilience.retry", 0),
        "timeouts": counters.get("resilience.timeout", 0),
        "pool_fallbacks": counters.get("pool_fallback", 0),
        "quarantines": counters.get("cache.disk.quarantine", 0),
        "faults_injected": sum(
            v for k, v in counters.items() if k.startswith("fault.")
        ),
    }
