"""Shard planning: deterministic partition of sweep work across workers.

A distributed sweep is a set of **work units** -- one ``(network, layer,
scheme, seed)`` simulation each -- executed by any number of OS
processes on any number of hosts against one shared result store. The
planner here is deliberately stateless and deterministic:

- :func:`shard_of` assigns a unit to a shard by hashing its *content*
  (SHA-256 of the unit token), never its position in a list, so every
  worker -- on any host, with no communication -- derives the identical
  partition from the identical plan.
- :class:`SweepPlan` is the serialised grid (``sweep.json`` in the
  store directory): the full unit list plus the execution knobs every
  worker must agree on (fidelity, sampling). :func:`publish_plan` is
  claim-guarded and atomic, so concurrent workers racing to start the
  same sweep agree on one plan; a worker that arrives late simply loads
  it. Divergent plans for one store are an error, never a silent merge.
- The configured shard (``--shard I/N`` / ``REPRO_SHARD=I/N``) tags
  worker pools, telemetry manifests and the event stream alike;
  :func:`shard_identity` is the one parser.

Work stealing builds on this determinism: a worker that finishes its
own shard walks the *other* shards' unfinished units (rotated so
stealers spread out) and claims them through the same single-flight
leases the store uses -- see :mod:`repro.dist.worker`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass

from repro import telemetry
from repro import config
from repro.dist import store as dist_store
from repro.resilience import checkpoint

__all__ = [
    "SWEEP_PLAN_SCHEMA",
    "WorkUnit",
    "SweepPlan",
    "parse_shard",
    "shard_identity",
    "shard_of",
    "plan_shards",
    "plan_path",
    "publish_plan",
    "load_plan",
]

SWEEP_PLAN_SCHEMA = "repro-sweep-plan/1"

#: Plan file name inside a shared store directory.
_PLAN_NAME = "sweep.json"

_log = telemetry.get_logger("dist.shard")


@dataclass(frozen=True)
class WorkUnit:
    """One shardable simulation: a scheme on a layer at a seed."""

    network: str
    layer: str
    scheme: str
    seed: int

    @property
    def token(self) -> str:
        """Stable content token (the hash and claim identity)."""
        return f"{self.network}:{self.layer}:{self.scheme}:{self.seed}"

    def as_list(self) -> list:
        return [self.network, self.layer, self.scheme, self.seed]

    @classmethod
    def from_list(cls, raw) -> "WorkUnit":
        network, layer, scheme, seed = raw
        return cls(
            network=str(network), layer=str(layer),
            scheme=str(scheme), seed=int(seed),
        )


def parse_shard(raw: str) -> tuple[int, int]:
    """Parse ``"I/N"`` into ``(index, count)`` with loud validation."""
    try:
        index_text, count_text = raw.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like I/N (e.g. 0/2), got {raw!r}"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return index, count


def shard_identity() -> dict | None:
    """The manifest's ``shard`` section from the configured shard (None unset).

    Invalid values are reported as unparsed rather than crashing a
    manifest write at the end of a long run.
    """
    raw = config.current().shard
    if not raw:
        return None
    identity: dict = {"shard": raw, "worker": dist_store.worker_identity()}
    try:
        index, count = parse_shard(raw)
    except ValueError:
        return identity
    identity["index"] = index
    identity["count"] = count
    return identity


def shard_of(unit: WorkUnit | str, n_shards: int) -> int:
    """The owning shard of one unit: a pure function of its content.

    Content hashing (not ``hash()``, which is salted per process) makes
    the partition identical on every host and across restarts, which is
    what lets workers plan without talking to each other.
    """
    token = unit.token if isinstance(unit, WorkUnit) else str(unit)
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") % max(1, int(n_shards))


def plan_shards(
    units: tuple[WorkUnit, ...] | list[WorkUnit], n_shards: int
) -> dict[int, list[WorkUnit]]:
    """Partition *units* into ``{shard index: [units]}`` (all keys present)."""
    shards: dict[int, list[WorkUnit]] = {i: [] for i in range(n_shards)}
    for unit in units:
        shards[shard_of(unit, n_shards)].append(unit)
    return shards


@dataclass(frozen=True)
class SweepPlan:
    """The serialisable description of one distributed sweep."""

    units: tuple[WorkUnit, ...]
    fidelity: str | None = None
    position_sample: int | None = 200
    batch: int = 1

    def as_dict(self) -> dict:
        return {
            "schema": SWEEP_PLAN_SCHEMA,
            "fidelity": self.fidelity,
            "position_sample": self.position_sample,
            "batch": self.batch,
            "units": [unit.as_list() for unit in self.units],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepPlan":
        if raw.get("schema") != SWEEP_PLAN_SCHEMA:
            raise ValueError(
                f"not a {SWEEP_PLAN_SCHEMA} plan (schema={raw.get('schema')!r})"
            )
        sample = raw.get("position_sample")
        return cls(
            units=tuple(WorkUnit.from_list(u) for u in raw.get("units", ())),
            fidelity=raw.get("fidelity") or None,
            position_sample=int(sample) if sample is not None else None,
            batch=int(raw.get("batch", 1)),
        )

    def shard_units(self, shard: tuple[int, int] | None) -> tuple[WorkUnit, ...]:
        """This shard's own units (all of them when *shard* is None)."""
        if shard is None:
            return self.units
        index, count = shard
        return tuple(u for u in self.units if shard_of(u, count) == index)

    def foreign_units(self, shard: tuple[int, int] | None) -> tuple[WorkUnit, ...]:
        """Other shards' units, rotated to start just past this shard.

        The rotation spreads stealers across the remaining shards
        instead of piling every finished worker onto shard 0's tail.
        """
        if shard is None:
            return ()
        index, count = shard
        foreign = [u for u in self.units if shard_of(u, count) != index]
        foreign.sort(key=lambda u: ((shard_of(u, count) - index) % count, u.token))
        return tuple(foreign)


def plan_path(store_dir: str | os.PathLike) -> pathlib.Path:
    return pathlib.Path(store_dir) / _PLAN_NAME


def publish_plan(store_dir: str | os.PathLike, plan: SweepPlan) -> SweepPlan:
    """Publish *plan* to the store (or adopt the already-published one).

    The write is claim-guarded and atomic so racing workers settle on
    exactly one plan file. If a plan already exists it must describe the
    same unit set -- two different sweeps aimed at one store directory
    is a configuration error worth failing loudly on, because their
    shard partitions would silently interleave.
    """
    path = plan_path(store_dir)
    existing = load_plan(store_dir, missing_ok=True)
    if existing is None:
        claim = dist_store.try_claim(path)
        if claim is None:
            _claim, published = dist_store.wait_for_publication(path)
            if _claim is not None:
                claim = _claim
            elif published:
                existing = load_plan(store_dir, missing_ok=True)
        if existing is None and claim is not None:
            try:
                if not path.exists():
                    checkpoint.write_atomic(
                        path, json.dumps(plan.as_dict(), indent=2, sort_keys=True)
                    )
                    telemetry.count("dist.plan.published")
                    _log.info(
                        "published sweep plan %s",
                        telemetry.kv(path=path, units=len(plan.units)),
                    )
                else:
                    existing = load_plan(store_dir, missing_ok=True)
            finally:
                claim.release()
    if existing is not None:
        if set(u.token for u in existing.units) != set(u.token for u in plan.units):
            raise ValueError(
                f"{path}: store already holds a different sweep plan "
                f"({len(existing.units)} units vs {len(plan.units)} requested); "
                "use a fresh store directory per sweep"
            )
        return existing
    return plan


def load_plan(
    store_dir: str | os.PathLike, missing_ok: bool = False
) -> SweepPlan | None:
    """Load the published plan for a store (None when absent and allowed)."""
    path = plan_path(store_dir)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        if missing_ok:
            return None
        raise FileNotFoundError(
            f"{path}: no sweep plan published yet "
            "(start a `repro sweep --store` coordinator first)"
        ) from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable sweep plan: {exc}") from exc
    return SweepPlan.from_dict(raw)
