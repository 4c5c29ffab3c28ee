"""Process-based fan-out with deterministic, ordered, fault-tolerant results.

:func:`parallel_map` runs a picklable callable over items in a
``ProcessPoolExecutor`` when the run configuration's ``jobs``
(``REPRO_JOBS``, or an explicit ``jobs`` argument) asks for more than
one worker; the default
is serial so tests and small runs stay dependency-free. Results always
come back in input order and every item is computed from its arguments
alone, so a parallel run produces byte-identical figure dictionaries to
the serial path. Worker processes are flagged so nested fan-out (a
parallelised figure calling a parallelised comparison) degrades to serial
instead of forking a process tree.

**One pool lives across calls.** The first fan-out starts a spawn-context
``ProcessPoolExecutor`` and later calls reuse it, so workers keep their
imports, native kernel and workload/result caches warm from one figure
to the next. The pool is keyed on ``(jobs, config.current())``: a call
under another worker count or run configuration (shard, fidelity or
profile scoping, a new fault plan) starts a fresh pool, whose workers
bind that config (with ``jobs=1``) in the initializer. A pool is
also retired when it breaks (``BrokenProcessPool``), when a watchdog
abandons an item in it (without waiting for the hung worker), when a
call exits with an exception, by :func:`shutdown_pool` -- which
``workload.clear_caches`` calls, so "drop every cached entry" holds in
workers too -- and at interpreter exit. Each start counts
``parallel.pool_start`` and emits a matching event. Fault *budgets*
(``REPRO_FAULT=kind:N``) are per worker process, so they are spent over
the pool's life rather than per call.

**Pre-resolution answers stored items in the parent.** A fan-out whose
function is wrapped in :class:`Replayable` (the evaluation's
``compare_architectures``, ``energy_figure``, ``fpga_figure`` and
``headline_means``) first runs each item in the parent under
:func:`repro.core.workload.replay_only`. There ``get_workload`` raises
``StoreMiss`` before any claim, synthesis or kernel call, and a nested
``parallel_map`` runs serially. Items that resolve from stored results
are kept; only the items that raised go to the pool, each under its
original ``item<i>`` token, so fault injection hits the same items it
would have hit without the probe. A call with no miss starts no pool.
The **pool decision** is the original call's (``jobs > 1`` and more
than one item), not the number of misses: a call that would have used
the pool sends its misses there even when only one item missed. The
probe is ordinary parent work, so its telemetry stays in the parent's
recorder (a damaged entry it quarantines counts once). A plain function
is never run in the parent, and the serial path never probes.

Failure handling is **per item**, not per pool. Each item is its own
future with a bounded retry budget (``REPRO_RETRIES``, exponential
backoff via ``REPRO_RETRY_BACKOFF``) and an optional watchdog
(``REPRO_ITEM_TIMEOUT`` seconds the parent will wait on one in-flight
item before recomputing it locally):

- An item that *fails* (a worker exception, including injected
  ``worker_crash`` faults) is resubmitted to the pool up to the retry
  budget, then recomputed serially in the parent as a last resort --
  with fault injection suppressed, so chaos testing can cost work but
  never a run. Retries count ``resilience.retry``.
- An item that *stalls* past the watchdog is abandoned to its zombie
  worker and recomputed in the parent (``resilience.timeout``); the
  pool is retired without waiting so a hung worker cannot wedge the
  caller.
- A *dead pool* (``BrokenProcessPool``: OOM kill, unimportable
  ``__main__``, an ``os._exit`` in a worker) costs only the in-flight
  items: completed results and their telemetry snapshots are kept, and
  just the unfinished remainder recomputes serially
  (``pool_fallback``), instead of the old all-or-nothing restart. The
  next call starts on a fresh pool.

Telemetry crosses the process boundary: each worker invocation runs in a
fresh telemetry window and ships its snapshot (span seconds, counters,
trace events) back with the result; the parent merges snapshots only for
the attempts whose results it keeps, so nothing is double-counted when an
item is retried or a pool dies. ``REPRO_FAULT`` (see
:mod:`repro.resilience.faults`) injects deterministic worker crashes,
kills and stalls at the per-item boundary so every one of these paths is
exercised in tests and CI.

Observability rides the same boundary three ways:

- **Trace context**: the parent's open ``parallel_map`` span id is
  passed to every worker attempt, which adopts it as its trace parent
  -- so the merged Chrome trace nests worker spans under the pool span
  (flow arrows across process lanes) instead of flattening them.
- **Event stream** (``REPRO_EVENTS``): a worker buffers its records in
  memory and each attempt returns them inside its telemetry snapshot;
  the parent appends a kept attempt's records to the main stream as it
  merges the snapshot, and a discarded attempt's records go with its
  counters -- which is what makes the stream reconcile with the
  manifest.
- **Live progress** (``REPRO_PROGRESS``): completed items update an
  in-place TTY line (or heartbeat lines) with items/sec, ETA, cache hit
  rate, retries and worker utilization.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing as mp
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, TypeVar

from repro import telemetry
from repro import config
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.telemetry import events
from repro.telemetry.progress import ProgressRenderer

__all__ = ["Replayable", "default_jobs", "parallel_map", "shutdown_pool"]

T = TypeVar("T")
R = TypeVar("R")

_IN_WORKER = False

#: Sentinel marking an item whose result is still owed.
_PENDING = object()

#: The shared worker pool and the ``(jobs, RunConfig)`` key it serves.
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple | None = None
_POOL_LOCK = threading.Lock()


def default_jobs() -> int:
    """Worker count of the run configuration (``REPRO_JOBS``; serial at 1).

    An unparsable or negative value warns through the structured logger
    (once per value) and falls back to serial rather than silently
    absorbing a typo like ``REPRO_JOBS=abc``.
    """
    return config.current().jobs


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The live pool for *jobs* workers under the current run configuration.

    Reuses the pool when its key still matches; otherwise retires the
    old one (idle: every call drains or retires it) and starts a new
    one. Workers spawn on demand, so a pool sized for *jobs* only
    starts as many processes as calls have needed.
    """
    global _POOL, _POOL_KEY
    cfg = config.current()
    key = (jobs, cfg)
    with _POOL_LOCK:
        if _POOL is not None and _POOL_KEY == key:
            return _POOL
        stale = _POOL
        pool = _POOL = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=mp.get_context("spawn"),
            initializer=_start_worker,
            initargs=(cfg, _worker_init),
        )
        _POOL_KEY = key
    if stale is not None:
        stale.shutdown(wait=True, cancel_futures=True)
    telemetry.count("parallel.pool_start")
    events.emit("parallel.pool_start", jobs=jobs)
    return pool


def _retire(pool: ProcessPoolExecutor, wait: bool = True) -> None:
    """Shut *pool* down; the next fan-out starts a fresh one."""
    global _POOL, _POOL_KEY
    with _POOL_LOCK:
        if _POOL is pool:
            _POOL = _POOL_KEY = None
    pool.shutdown(wait=wait, cancel_futures=True)


def shutdown_pool() -> None:
    """Retire the shared worker pool, if one is running."""
    pool = _POOL
    if pool is not None:
        _retire(pool)


atexit.register(shutdown_pool)


def _start_worker(cfg: config.RunConfig, init: Callable[[], None]) -> None:
    """Pool initializer: bind the parent's config for good, then *init*
    (``_worker_init`` as this module held it, so a replacement runs too)."""
    config.bind(dataclasses.replace(cfg, jobs=1))
    init()


def _worker_init() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # A worker never touches the main event stream: its records ride
    # home in the snapshots of the attempts the parent keeps.
    events.set_worker_mode()


def _instrumented_call(
    fn: Callable[[T], R],
    item: T,
    token: str,
    attempt: int,
    trace_parent: str | None = None,
) -> tuple[R, dict]:
    """Worker-side wrapper: run *fn* in a fresh telemetry window.

    Returns ``(result, snapshot)``; snapshots are plain dicts so they
    pickle back to the parent, which merges them. Resetting per item is
    correct because merged aggregates add. *token*/*attempt* feed the
    deterministic fault-injection hook, which fires (crash/kill/stall)
    before the real work so an injected fault costs one item-attempt.

    *trace_parent* is the parent process's open span id; adopting it
    re-parents every span this attempt records, so the merged Chrome
    trace nests worker work under the pool span. The attempt's event
    records travel back in the snapshot too (``records``); a failed
    attempt's are dropped when the next attempt starts.
    """
    telemetry.reset()
    events.take_buffer()
    telemetry.set_trace_parent(trace_parent)
    faults.fault_point(token, attempt)
    result = fn(item)
    snap = telemetry.snapshot()
    snap["records"] = events.take_buffer()
    return result, snap


@dataclasses.dataclass(frozen=True)
class Replayable:
    """A pool function whose items the store may answer in the parent.

    ``parallel_map(Replayable(fn), items)`` pre-resolves: before any
    pool work it runs each item in the parent under
    :func:`repro.core.workload.replay_only`, keeps the items that
    resolve from stored results and sends only the rest to the pool (see
    the module docstring). Wrap only functions whose every computation
    goes through :func:`~repro.core.workload.get_workload`, so an item
    the store cannot answer stops before any synthesis or simulation.
    """

    fn: Callable

    def __call__(self, item):
        return self.fn(item)


def _pre_resolve(fn: Replayable, items: list, results: list) -> None:
    """Fill *results* with every item the store answers in the parent."""
    from repro.core import workload  # workload imports this module

    with workload.replay_only():
        for i, item in enumerate(items):
            try:
                results[i] = fn(item)
            except workload.StoreMiss:
                pass


def _replaying() -> bool:
    from repro.core import workload

    return workload.replaying()


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], jobs: int | None = None
) -> list[R]:
    """Map *fn* over *items*, preserving input order.

    Serial unless ``jobs`` (or ``REPRO_JOBS``) exceeds 1; *fn* must then
    be picklable -- a module-level function or a ``functools.partial`` of
    one. The spawn start method keeps workers hermetic (no inherited
    interpreter state), which is what makes parallel runs reproducible;
    the pool itself is shared across calls (see the module docstring).
    Per-item failures retry under the :class:`RetryPolicy` of the run
    configuration and completed work survives a dying pool; see the module
    docstring for the full degradation ladder. A :class:`Replayable`
    *fn* is pre-resolved in the parent first, and only its misses reach
    the pool.
    """
    items = list(items)
    n = default_jobs() if jobs is None else max(1, int(jobs))
    if _IN_WORKER or n <= 1 or len(items) <= 1 or _replaying():
        return [fn(item) for item in items]
    results: list = [_PENDING] * len(items)
    if isinstance(fn, Replayable):
        _pre_resolve(fn, items, results)
    todo = [i for i, r in enumerate(results) if r is _PENDING]
    if not todo:
        return results
    policy = RetryPolicy.from_config()
    attempts = [0] * len(items)
    broken = False
    abandoned = False  # a timed-out item left a possibly-hung worker behind
    pool_size = min(n, len(todo))
    shard = config.current().shard
    progress = ProgressRenderer(
        total=len(items), label=f"pool[{shard}]" if shard else "pool"
    )

    def _progress_tick() -> None:
        counters = telemetry.get_recorder().counters()
        hits = counters.get("cache.workload.hit", 0.0)
        misses = counters.get("cache.workload.miss", 0.0)
        progress.update(
            done=sum(1 for r in results if r is not _PENDING),
            cache_hit_rate=hits / (hits + misses) if hits + misses else None,
            retries=counters.get("resilience.retry", 0.0),
            workers=pool_size,
            workers_busy=min(pool_size, sum(1 for r in results if r is _PENDING)),
        )

    with telemetry.span("parallel_map", jobs=pool_size, items=len(todo)):
        # The open parallel_map span is the trace context every worker
        # attempt adopts, re-parenting its spans in the merged trace.
        trace_ctx = telemetry.current_span_id()
        pool = _shared_pool(n)
        healthy = False
        try:
            pending = {}
            for i in todo:
                try:
                    pending[i] = pool.submit(
                        _instrumented_call, fn, items[i], f"item{i}", 0, trace_ctx
                    )
                except BrokenProcessPool:
                    # A worker died while the pool sat idle between calls.
                    broken = True
                    break
            while pending:
                # One pass over the outstanding futures in index order.
                # A broken pool resolves every pending future with
                # BrokenProcessPool immediately, so this pass also drains
                # the results that completed before the pool died instead
                # of discarding them -- those never recompute.
                for idx in sorted(pending):
                    future = pending.pop(idx)
                    try:
                        result, snap = future.result(
                            timeout=policy.item_timeout or None
                        )
                    except BrokenProcessPool:
                        broken = True  # recomputed after the drain
                    except FutureTimeoutError:
                        abandoned = True
                        future.cancel()
                        telemetry.count("resilience.timeout")
                        events.emit(
                            "resilience.timeout",
                            item=idx,
                            timeout=policy.item_timeout,
                        )
                        telemetry.get_logger("parallel").warning(
                            "item watchdog expired; recomputing locally %s",
                            telemetry.kv(item=idx, timeout=policy.item_timeout),
                        )
                        results[idx] = call_with_retry(
                            fn, items[idx], policy,
                            token=f"item{idx}", first_attempt=policy.retries,
                        )
                        _progress_tick()
                    except Exception as exc:
                        attempts[idx] += 1
                        if broken:
                            continue  # serial fallback picks it up
                        if attempts[idx] <= policy.retries:
                            telemetry.count("resilience.retry")
                            events.emit(
                                "resilience.retry",
                                item=idx,
                                attempt=attempts[idx],
                                of=policy.retries,
                                error=str(exc),
                            )
                            telemetry.get_logger("parallel").warning(
                                "retrying failed item %s",
                                telemetry.kv(
                                    item=idx, attempt=attempts[idx],
                                    of=policy.retries, error=exc,
                                ),
                            )
                            policy.sleep(attempts[idx])
                            try:
                                pending[idx] = pool.submit(
                                    _instrumented_call, fn, items[idx],
                                    f"item{idx}", attempts[idx], trace_ctx,
                                )
                            except (BrokenProcessPool, RuntimeError):
                                broken = True
                        else:
                            # Retry budget exhausted in the pool: one
                            # final serial attempt, faults suppressed.
                            results[idx] = call_with_retry(
                                fn, items[idx], policy,
                                token=f"item{idx}", first_attempt=policy.retries,
                            )
                            _progress_tick()
                    else:
                        events.append(snap.pop("records", []))
                        telemetry.merge(snap)
                        results[idx] = result
                        _progress_tick()
                if broken:
                    break
            healthy = not (broken or abandoned)
        finally:
            if not healthy:
                _retire(pool, wait=not abandoned)
    if broken:
        missing = [i for i, r in enumerate(results) if r is _PENDING]
        telemetry.count("pool_fallback")
        events.emit("pool_fallback", unfinished=len(missing), total=len(items))
        telemetry.get_logger("parallel").warning(
            "worker pool died; serial fallback for unfinished items %s",
            telemetry.kv(unfinished=len(missing), total=len(items), jobs=n),
        )
        warnings.warn(
            "worker pool died (unimportable __main__, OOM kill, or a worker "
            "crash); completed items kept, recomputing the remaining "
            f"{len(missing)} of {len(items)} serially",
            RuntimeWarning,
            stacklevel=2,
        )
        for idx in missing:
            results[idx] = call_with_retry(
                fn, items[idx], policy,
                token=f"item{idx}", first_attempt=attempts[idx],
            )
            _progress_tick()
    progress.close()
    return results
