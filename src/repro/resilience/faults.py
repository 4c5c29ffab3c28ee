"""Deterministic fault injection (``REPRO_FAULT``).

Chaos testing only earns its keep when a failing run can be replayed:
every injection decision here is either a pure function of
``(REPRO_FAULT_SEED, kind, token, attempt)`` or an explicit per-process
budget, never a wall-clock or PRNG-state coin flip. Two runs with the
same configuration inject the same faults at the same sites.

Specification grammar (comma-separated ``kind:value`` pairs)::

    REPRO_FAULT=worker_crash:0.1,cache_corrupt:2,timeout:1

- ``value`` in ``(0, 1)`` -- a *rate*: the fault fires at call sites
  whose deterministic hash of (seed, kind, token, attempt) falls below
  the rate. Retries hash a new attempt number, so a crashed item draws
  independently on its retry.
- ``value`` >= 1 (integer) -- a *budget*: the first N calls of that kind
  in this process fire, then the fault goes quiet. Budgets are
  per-process (each spawn worker has its own), which makes "every worker
  crashes its first item" expressible. Pool workers outlive a single
  ``parallel_map`` call, so a budget is spent over a worker's life; a
  changed ``REPRO_FAULT`` starts a fresh pool with fresh budgets.

Kinds understood by :func:`fault_point` (the worker-side hook in
:mod:`repro.core.parallel`):

- ``worker_crash`` -- raise :class:`InjectedFault` (a failed item; the
  pool survives, the parent retries).
- ``worker_kill`` -- ``os._exit(87)`` (a dead process; the pool breaks,
  completed items are kept, the rest recompute serially).
- ``timeout`` -- sleep ``REPRO_FAULT_SLEEP`` seconds (default 0.5) to
  trip the ``REPRO_ITEM_TIMEOUT`` watchdog.

``cache_corrupt`` is consumed by :mod:`repro.core.workload` through
:func:`truncate_entry`, which truncates a just-published result entry so
the next load exercises the quarantine path: ``cache_corrupt:1``
damages the first entry each process publishes. Every fired fault
counts ``fault.<kind>``.

Liveness guarantee: the *final* retry attempt runs under
:func:`suppressed`, so even ``worker_crash:1`` (crash every call) cannot
wedge a run -- injection is a test harness, not a way to lose work.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import telemetry
from repro import config
from repro.telemetry import events

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "active_plan",
    "fire",
    "fault_point",
    "suppressed",
    "truncate_entry",
]

_log = telemetry.get_logger("faults")


class InjectedFault(RuntimeError):
    """An artificial failure raised by ``REPRO_FAULT=worker_crash:...``."""


@dataclass
class FaultPlan:
    """Parsed ``REPRO_FAULT`` specification plus per-process budgets."""

    rates: dict[str, float] = field(default_factory=dict)
    budgets: dict[str, int] = field(default_factory=dict)
    seed: int = 0
    _spent: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``kind:value[,kind:value...]``; bad clauses warn and drop."""
        plan = cls(seed=seed)
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            kind, sep, value = clause.partition(":")
            kind = kind.strip()
            try:
                if not sep:
                    raise ValueError("missing ':'")
                rate = float(value)
                if rate <= 0:
                    raise ValueError("rate/budget must be positive")
            except ValueError as exc:
                _log.warning(
                    "dropping malformed REPRO_FAULT clause %s",
                    telemetry.kv(clause=clause, error=exc),
                )
                continue
            if rate < 1.0:
                plan.rates[kind] = rate
            else:
                plan.budgets[kind] = int(rate)
        return plan

    def empty(self) -> bool:
        return not self.rates and not self.budgets

    def should_fire(self, kind: str, token: str = "", attempt: int = 0) -> bool:
        """Decide (deterministically) whether *kind* fires at this site."""
        rate = self.rates.get(kind)
        if rate is not None:
            blob = f"{self.seed}:{kind}:{token}:{attempt}".encode()
            draw = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
            return draw < rate * 2**64
        budget = self.budgets.get(kind)
        if budget is not None:
            with self._lock:
                spent = self._spent.get(kind, 0)
                if spent < budget:
                    self._spent[kind] = spent + 1
                    return True
        return False


_local = threading.local()
_plan_lock = threading.Lock()


@functools.lru_cache(maxsize=1)
def _plan(spec: str, seed: int) -> FaultPlan:
    # One live plan: its budgets are spent across calls until the
    # configured spec or seed changes.
    return FaultPlan.parse(spec, seed=seed)


def active_plan() -> FaultPlan | None:
    """The plan of the run configuration, or ``None`` when unset."""
    cfg = config.current()
    if not (cfg.fault or "").strip():
        return None
    with _plan_lock:  # one plan object, so a budget is never spent twice
        plan = _plan(cfg.fault, cfg.fault_seed)
    return plan if not plan.empty() else None


@contextmanager
def suppressed():
    """Disable injection on this thread for the ``with`` block.

    Wraps final retry attempts so fault injection can never exhaust a
    retry budget into a lost run.
    """
    _local.depth = getattr(_local, "depth", 0) + 1
    try:
        yield
    finally:
        _local.depth -= 1


def _is_suppressed() -> bool:
    return getattr(_local, "depth", 0) > 0


def fire(kind: str, token: str = "", attempt: int = 0) -> bool:
    """True when *kind* should fire here; counts ``fault.<kind>``."""
    plan = active_plan()
    if plan is None or _is_suppressed():
        return False
    if not plan.should_fire(kind, token=token, attempt=attempt):
        return False
    telemetry.count(f"fault.{kind}")
    events.emit("resilience.fault", name=kind, token=token, attempt=attempt)
    _log.warning(
        "injected fault %s", telemetry.kv(kind=kind, token=token, attempt=attempt)
    )
    return True


def truncate_entry(path) -> None:
    """``cache_corrupt`` at a just-published result entry: truncate it.

    The token is the entry's file name, so rate-mode decisions are a
    pure function of the entry.
    """
    if fire("cache_corrupt", token=path.name):
        with open(path, "r+b") as fh:
            fh.truncate(max(8, path.stat().st_size // 2))


def fault_point(token: str, attempt: int = 0) -> None:
    """The worker-side injection site: crash, kill, or stall.

    Called by the pool worker wrapper before running the real item, so a
    fired fault costs exactly one item-attempt.
    """
    if fire("worker_kill", token=token, attempt=attempt):
        os._exit(87)
    if fire("worker_crash", token=token, attempt=attempt):
        raise InjectedFault(f"injected worker_crash at {token} attempt {attempt}")
    if fire("timeout", token=token, attempt=attempt):
        time.sleep(config.current().fault_sleep)
