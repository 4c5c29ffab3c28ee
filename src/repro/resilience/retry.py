"""Bounded retry with exponential backoff and a per-item timeout budget.

One :class:`RetryPolicy` describes how the engine treats a failed or
stalled unit of work; :func:`repro.core.parallel.parallel_map` applies
it per item (in-pool resubmission, then a serial last resort) and the
policy's knobs come from the run configuration (:mod:`repro.config`):

- ``REPRO_RETRIES`` -- extra attempts after the first (default 2; 0
  restores fail-fast).
- ``REPRO_RETRY_BACKOFF`` -- base sleep in seconds before attempt *k*,
  growing as ``backoff * 2**(k-1)`` (default 0.05; 0 disables sleeping,
  which is what the tests use).
- ``REPRO_ITEM_TIMEOUT`` -- watchdog seconds the parent waits on one
  in-flight item before recomputing it locally (default 0 = disabled).
  The timer starts when the parent begins waiting on the item, so it
  bounds *observed* staleness; a queued item never times out while an
  earlier one is still being waited on.

Retries are safe because every unit of work is a pure function of its
arguments: recomputing an item -- in the pool or in the parent -- yields
the same value, so retried runs stay byte-identical to clean ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro import telemetry
from repro import config
from repro.resilience import faults
from repro.telemetry import events

__all__ = ["RetryPolicy", "call_with_retry"]

T = TypeVar("T")
R = TypeVar("R")

_log = telemetry.get_logger("retry")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry one item, and how long to wait between."""

    retries: int = 2
    backoff: float = 0.05
    item_timeout: float = 0.0

    @classmethod
    def from_config(cls) -> "RetryPolicy":
        """The policy of the current run configuration."""
        cfg = config.current()
        return cls(cfg.retries, cfg.retry_backoff, cfg.item_timeout)

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before retry *attempt* (1-based)."""
        if self.backoff <= 0.0 or attempt <= 0:
            return 0.0
        return self.backoff * (2.0 ** (attempt - 1))

    def sleep(self, attempt: int) -> None:
        delay = self.backoff_for(attempt)
        if delay > 0.0:
            time.sleep(delay)


def call_with_retry(
    fn: Callable[[T], R],
    item: T,
    policy: RetryPolicy,
    token: str = "",
    first_attempt: int = 0,
) -> R:
    """Run ``fn(item)`` under *policy*, retrying failures with backoff.

    *first_attempt* credits attempts already consumed elsewhere (the
    in-pool resubmissions), so pool and serial attempts draw from one
    budget. The final attempt runs with fault injection suppressed --
    injected faults may cost work, never a run -- and a genuine error
    that survives every attempt propagates with its original traceback.
    """
    attempt = first_attempt
    while True:
        final = attempt >= policy.retries
        try:
            if final:
                with faults.suppressed():
                    return fn(item)
            return fn(item)
        except Exception as exc:
            if final:
                raise
            attempt += 1
            telemetry.count("resilience.retry")
            events.emit(
                "resilience.retry", token=token, attempt=attempt, error=str(exc)
            )
            _log.warning(
                "retrying failed item %s",
                telemetry.kv(
                    token=token, attempt=attempt, of=policy.retries, error=exc
                ),
            )
            policy.sleep(attempt)
