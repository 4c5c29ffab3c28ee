"""Distributed sweep execution over a shared content-addressed store.

``repro.dist`` scales a sweep past one host's ``REPRO_JOBS`` pool by
sharding (network, layer, scheme, seed) work units across OS processes
or hosts that share nothing but a result-store directory:

- :mod:`repro.dist.store` -- multi-writer safety for the on-disk
  stores: single-flight claim leases with stale-claim stealing, wait
  protocol, orphan reaping.
- :mod:`repro.dist.shard` -- deterministic content-hash shard planner,
  the published ``sweep.json`` plan, ``REPRO_SHARD`` identity.
- :mod:`repro.dist.worker` -- the execution loop: run a shard, steal
  foreign units when done, long-poll as a standing worker, reconcile
  per-shard manifests to sweep totals.
- :mod:`repro.dist.health` -- worker liveness: each worker's beacon
  appends ``heartbeat`` records to its event stream in the store, whose
  age against the claim TTL classifies it live/suspect/dead/exited.
- :mod:`repro.dist.fleet` -- the merged fleet view behind ``repro top``
  and ``repro inspect``: per-shard progress, worker liveness, the
  exactly-once audit, stragglers and anomalies from every worker's
  artifacts in one store.

The coordination log is the store's result tier (one ``result-*.json``
entry per published result, never rewritten), so resume-after-SIGKILL
costs zero recomputation of anything any worker has published.
"""

from repro.dist.shard import (  # noqa: F401
    SweepPlan,
    WorkUnit,
    parse_shard,
    plan_shards,
    shard_identity,
    shard_of,
)
from repro.dist.store import (  # noqa: F401
    Claim,
    claim_path,
    reap_orphans,
    try_claim,
    wait_for_publication,
)
