"""Cross-experiment workload cache: memoised synthesis, chunk work, results.

Every figure in the evaluation funnels through ``synthesize_masks`` +
``compute_chunk_work`` -- and different runners request content-identical
workloads (``headline_means`` regenerates per-network speedups, then the
energy and FPGA figures redo the very same mask work). This module keys
those products *by value* so the redundancy disappears:

- **Workload cache** (:func:`get_workload`): ``(LayerMasks, ChunkWork)``
  keyed by the layer spec's fields, the image seed, and the config knobs
  the kernel actually reads -- ``chunk_size``, ``n_clusters``,
  ``position_sample`` (batch enters through per-image seeds). Every
  timing model reads occupancy only, so the cache carries the boolean
  masks (:func:`get_layer_masks`, synthesized once per (spec, seed)
  without a dense tensor) and never the dense float64 tensors. Entries
  live in a bounded in-memory LRU (:data:`WORKLOAD_ENTRIES` entries,
  ``REPRO_CACHE_BYTES`` bytes) and never reach the disk: the masks are
  seeded and deterministic, so a process that needs a workload rebuilds
  it. A cached entry computed with ``need_counts=False`` is upgraded in
  place when a caller later needs the counts tensor. The dense
  :class:`LayerData` stays behind :func:`get_layer_data` for the
  value-level consumers.
- **Result memo** (:func:`lookup_result` / :func:`store_result`): finished
  per-layer simulation results keyed by (scheme, spec fields, *full*
  config fields, seed), so a warm re-run of a figure skips the
  simulators entirely. With ``$REPRO_CACHE_DIR`` set, the memo has a
  disk tier, the store: every stored result is published as a
  ``result-<sha>.json`` entry (:mod:`repro.resilience.checkpoint`) and a
  memo miss reads it back, so a fresh process over a populated store
  answers every result without synthesizing or simulating. The store
  holds finished results only, and it is their only copy: ``repro run
  --resume DIR`` uses *DIR* as the store to skip finished work after a
  crash, and distributed sweeps coordinate on the same entries.
- **Replay-only lookups** (:func:`replay_only`): inside that context a
  request that would compute -- :func:`get_workload` or
  :func:`get_layer_masks` -- raises :class:`StoreMiss` before any
  synthesis or kernel call, so a caller learns whether stored results
  alone answer a piece of work. :mod:`repro.core.parallel` uses it to
  answer a fan-out's replayable items in the parent and send only the
  misses to the pool.

The store is *corruption-safe*: a truncated or garbled result entry (a
crash mid-``os.replace`` on exotic filesystems, bit rot, a concurrent
writer on shared storage) fails its checksum on load, is renamed to
``.corrupt`` (counted as ``cache.disk.quarantine``) and recomputed --
never trusted, never a crash. ``repro doctor`` scans and prunes
quarantined entries, and ``REPRO_FAULT=cache_corrupt:N`` injects the
damage deterministically so the path stays tested.

Keys are tuples of plain values (``dataclasses.astuple`` of frozen
specs/configs, built once per instance by :func:`_fields`), so two
workloads collide only if every field that can influence the arrays is
equal -- the cache test asserts distinct (seed, chunk_size, sampling)
keys never collide. Both key kinds also carry :func:`source_fingerprint`,
so a store whose result entries outlive an edit to the simulator serves
nothing the new code did not produce.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import pathlib
import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from repro import profiling, telemetry
from repro import config
from repro.core import parallel
from repro.resilience import checkpoint, faults
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import (
    LayerData,
    LayerMasks,
    synthesize_layer,
    synthesize_masks,
)
from repro.sim.config import HardwareConfig
from repro.sim.kernels import ChunkWork, compute_chunk_work

__all__ = [
    "CacheStats",
    "StoreMiss",
    "replay_only",
    "replaying",
    "source_fingerprint",
    "workload_key",
    "result_key",
    "cache_get",
    "cache_put",
    "get_layer_data",
    "get_layer_masks",
    "get_workload",
    "lookup_result",
    "store_result",
    "cache_stats",
    "clear_caches",
    "reset_cache_stats",
]


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.disk_hits = self.evictions = 0


def _buffer_of(arr):
    """The array that owns *arr*'s memory (*arr* itself unless a view)."""
    if arr is None:
        return None
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class _LRU:
    """A thread-safe LRU bounded by entry count and (optionally) bytes.

    *max_bytes* may be a callable, read at every insert, so the bound
    follows the run configuration current at that moment.

    Hit/miss/eviction events feed both the local :class:`CacheStats`
    (process-scoped, what :func:`cache_stats` reports) and the telemetry
    counters ``cache.<name>.{hit,miss,evict}`` -- the latter merge across
    worker processes, so a fanned-out run still reports its true totals.
    """

    def __init__(
        self,
        max_entries: int,
        max_bytes: int | Callable[[], int] | None = None,
        name: str = "cache",
    ) -> None:
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._data: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self._held: dict = {}  # key -> the distinct array buffers it holds
        self._buffers: dict = {}  # id(buffer) -> [buffer, entries holding it]
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                telemetry.count(f"cache.{self.name}.hit")
                return self._data[key]
            self.stats.misses += 1
            telemetry.count(f"cache.{self.name}.miss")
            return None

    def put(self, key, value, nbytes: int = 0, arrays=()) -> None:
        """Insert *value*; it costs *nbytes* plus its *arrays*' buffers.

        A buffer shared by several entries (the ``LayerMasks`` arrays
        every config of one layer reuses) is counted once, while any
        entry holding it lives -- so the byte bound tracks the memory
        the cache actually keeps alive.
        """
        with self._lock:
            if key in self._data:
                self._drop(key)
            self._data[key] = value
            self._sizes[key] = nbytes
            self._bytes += nbytes
            held = {id(buf): buf for buf in map(_buffer_of, arrays) if buf is not None}
            self._held[key] = list(held.values())
            for buf in self._held[key]:
                ref = self._buffers.setdefault(id(buf), [buf, 0])
                if not ref[1]:
                    self._bytes += buf.nbytes
                ref[1] += 1
            max_bytes = self.max_bytes() if callable(self.max_bytes) else self.max_bytes
            while len(self._data) > self.max_entries or (
                max_bytes is not None and self._bytes > max_bytes and len(self._data) > 1
            ):
                self._drop(next(iter(self._data)))
                self.stats.evictions += 1
                telemetry.count(f"cache.{self.name}.evict")

    def _drop(self, key) -> None:
        del self._data[key]
        self._bytes -= self._sizes.pop(key)
        for buf in self._held.pop(key):
            ref = self._buffers[id(buf)]
            ref[1] -= 1
            if not ref[1]:
                del self._buffers[id(buf)]
                self._bytes -= buf.nbytes

    def __len__(self) -> int:
        return len(self._data)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._held.clear()
            self._buffers.clear()
            self._bytes = 0
            self.stats.reset()


#: Entry caps of the in-memory workload and result memos.
WORKLOAD_ENTRIES = 256
RESULT_ENTRIES = 16384

_WORKLOADS = _LRU(WORKLOAD_ENTRIES, lambda: config.current().cache_bytes, name="workload")
_RESULTS = _LRU(RESULT_ENTRIES, name="result")

_log = telemetry.get_logger("workload")


@functools.cache
def source_fingerprint() -> str:
    """SHA-256 over the package's Python source, computed once per process.

    Every store key carries it: entries are a function of the code that
    produced them (the native kernel's C source is inline in
    ``sim/native.py``, so it is covered too).
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fields(obj) -> tuple:
    """``astuple(obj)`` of a frozen spec or config, memoised on the instance.

    ``astuple`` deep-copies every field, and every key names a spec, so
    key building would otherwise cost a large share of a warm run. The
    memo is per instance, never by value: ``1 == 1.0``, so a value-keyed
    memo would hand one config the other's tuple and move its store
    entry (``entry_path`` hashes ``repr(key)``).
    """
    memo = obj.__dict__
    fields = memo.get("_astuple")
    if fields is None:
        fields = memo["_astuple"] = astuple(obj)
    return fields


def workload_key(spec: ConvLayerSpec, cfg: HardwareConfig, seed: int) -> tuple:
    """Content key for one (LayerMasks, ChunkWork) pair.

    Only the config fields the kernel reads participate; sweeps that vary
    other knobs (e.g. ``bisection_width``) share one workload entry.
    """
    return (
        "workload",
        source_fingerprint(),
        type(spec).__name__,
        _fields(spec),
        int(seed),
        int(cfg.chunk_size),
        int(cfg.n_clusters),
        cfg.position_sample,
    )


def result_key(kind: str, spec: ConvLayerSpec, cfg: HardwareConfig, seed: int) -> tuple:
    """Content key for one finished per-layer simulation result.

    Whether the active fidelity rung records timelines participates, so
    a result computed without them is never served to a run that expects
    them -- figure values are identical on every rung, but the attached
    :class:`~repro.profiling.counters.CounterSet` is not. The rung name
    itself stays out: ``analytical`` and ``counters`` runs share entries.
    """
    return (
        "result",
        source_fingerprint(),
        kind,
        type(spec).__name__,
        _fields(spec),
        _fields(cfg),
        int(seed),
        profiling.records_timelines(),
    )


class StoreMiss(LookupError):
    """Raised under :func:`replay_only` where a result would be computed."""


_REPLAY_ONLY = contextvars.ContextVar("replay_only", default=False)


@contextlib.contextmanager
def replay_only():
    """Answer from stored results only; computing raises :class:`StoreMiss`.

    Scoped to the current context (thread), so a concurrent caller keeps
    computing. Nested ``parallel_map`` calls run serially inside it.
    """
    token = _REPLAY_ONLY.set(True)
    try:
        yield
    finally:
        _REPLAY_ONLY.reset(token)


def replaying() -> bool:
    """Whether the current context is inside :func:`replay_only`."""
    return _REPLAY_ONLY.get()


def _refuse_compute(spec: ConvLayerSpec) -> None:
    if _REPLAY_ONLY.get():
        raise StoreMiss(f"no stored result for layer {spec.name}")


def get_layer_data(spec: ConvLayerSpec, seed: int = 0) -> LayerData:
    """Memoised :func:`synthesize_layer`: the dense values, for value-level use."""
    key = ("data", type(spec).__name__, _fields(spec), int(seed))
    data = _WORKLOADS.get(key)
    if data is None:
        with telemetry.span("synthesize", layer=spec.name):
            data = synthesize_layer(spec, seed=seed)
        _WORKLOADS.put(key, data, arrays=(data.input_map, data.filters))
    return data


def get_layer_masks(spec: ConvLayerSpec, seed: int = 0) -> LayerMasks:
    """Memoised :func:`synthesize_masks`: the occupancy, never the values."""
    key = ("masks", type(spec).__name__, _fields(spec), int(seed))
    masks = _WORKLOADS.get(key)
    if masks is None:
        _refuse_compute(spec)
        with telemetry.span("synthesize", layer=spec.name):
            masks = synthesize_masks(spec, seed=seed)
        _WORKLOADS.put(key, masks, arrays=(masks.input_mask, masks.filter_masks))
    return masks


def get_workload(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    need_counts: bool = True,
) -> tuple[LayerMasks, ChunkWork]:
    """Memoised (synthesis + chunk work) for one workload.

    Checks the in-memory LRU, else computes and caches the pair. A
    cached counts-free entry is upgraded in place for a counts request.

    Under :func:`replay_only` it raises :class:`StoreMiss` at once: a
    workload is only ever wanted for a simulation, which replay must
    leave to the pool.
    """
    _refuse_compute(spec)
    key = workload_key(spec, cfg, seed)
    entry = _WORKLOADS.get(key)
    if entry is not None and _satisfies(entry[1], need_counts):
        return entry
    masks = entry[0] if entry is not None else get_layer_masks(spec, seed)
    pair = (masks, _chunk_work(masks, cfg, need_counts))
    _WORKLOADS.put(key, pair, arrays=_pair_arrays(pair))
    return pair


def _chunk_work(masks: LayerMasks, cfg: HardwareConfig, need_counts: bool) -> ChunkWork:
    """:func:`compute_chunk_work` under the ``chunk_work`` span."""
    with telemetry.span("chunk_work", layer=masks.spec.name):
        return compute_chunk_work(masks, cfg, need_counts=need_counts)


def cache_get(key: tuple):
    """Look up a derived per-workload product (e.g. density statistics).

    Shares the workload LRU so derived products obey the same byte/entry
    bounds and are dropped by :func:`clear_caches`.
    """
    return _WORKLOADS.get(key)


def cache_put(key: tuple, value, arrays=()) -> None:
    """Store a derived per-workload product in the workload LRU.

    *arrays* are the buffers *value* keeps alive; ones another entry
    already holds add nothing to the byte count.
    """
    _WORKLOADS.put(key, value, arrays=arrays)


def lookup_result(key: tuple):
    """The memoised simulation result under *key*, or ``None``.

    A memo miss reads the key's entry from the store (when
    ``$REPRO_CACHE_DIR`` is set) and memoises what it finds.
    """
    result = _RESULTS.get(key)
    if result is None:
        result = _disk_load_result(key)
        if result is not None:
            _RESULTS.put(key, result)
    return result


def store_result(key: tuple, value) -> None:
    """Memoise one finished simulation result.

    The result is also published to the store (the configured
    ``cache_dir``), so an interrupted run can resume without redoing it
    -- pool workers bind the parent's config, so fanned-out runs persist
    from every process.
    """
    _RESULTS.put(key, value)
    _disk_store_result(key, value)


def cache_stats() -> dict[str, dict[str, float]]:
    """Hit/miss/size statistics for both caches."""
    return {
        "workloads": {
            **_WORKLOADS.stats.as_dict(),
            "entries": len(_WORKLOADS),
            "bytes": _WORKLOADS.nbytes,
        },
        "results": {**_RESULTS.stats.as_dict(), "entries": len(_RESULTS)},
    }


def clear_caches() -> None:
    """Drop every in-memory entry and reset statistics (disk untouched).

    Also retires the shared worker pool, whose processes hold caches of
    their own, so the next fan-out starts from cold workers too.
    """
    _WORKLOADS.clear()
    _RESULTS.clear()
    parallel.shutdown_pool()


def reset_cache_stats() -> None:
    """Zero hit/miss statistics without dropping cached entries.

    Starts a fresh accounting window over a warm cache -- how the tests
    assert that a warm re-run is 100% hits.
    """
    _WORKLOADS.stats.reset()
    _RESULTS.stats.reset()


def _satisfies(work: ChunkWork, need_counts: bool) -> bool:
    """Whether a cached entry can serve a request."""
    return not need_counts or work.counts is not None


def _pair_arrays(pair: tuple[LayerMasks, ChunkWork]) -> list:
    """Every array one (LayerMasks, ChunkWork) entry keeps alive."""
    masks, work = pair
    return [
        masks.input_mask,
        masks.filter_masks,
        work.counts,
        work.input_pop,
        work.match_sums,
        work.filter_chunk_nnz,
        work.assignment.indices,
        work.assignment.cluster_of,
        work.assignment.weight_of,
        work.assignment.cluster_positions,
    ]


def _pair_nbytes(pair: tuple[LayerMasks, ChunkWork]) -> int:
    """Bytes of the distinct buffers one entry holds."""
    buffers = {id(b): b for b in map(_buffer_of, _pair_arrays(pair)) if b is not None}
    return sum(b.nbytes for b in buffers.values())


# -- the store --------------------------------------------------------------


def _cache_dir() -> pathlib.Path | None:
    path = config.current().cache_dir
    return pathlib.Path(path) if path else None


def _result_path(key: tuple) -> pathlib.Path | None:
    base = _cache_dir()
    return None if base is None else checkpoint.entry_path(base, key)


def _disk_store_result(key: tuple, value) -> None:
    path = _result_path(key)
    if path is None:
        return
    try:
        with telemetry.span("cache_disk"):
            written = checkpoint.write_entry(path, key, value)
        if written:
            telemetry.count("cache.result.disk_store")
            telemetry.count("cache.disk.store_bytes", written)
            faults.truncate_entry(path)
    except OSError as exc:
        # The store is best-effort: a full or read-only volume only
        # costs the persistence, not the run.
        _log.debug(
            "result store failed %s", telemetry.kv(path=path, error=exc)
        )


def _disk_load_result(key: tuple):
    path = _result_path(key)
    if path is None or not path.exists():
        return None
    with telemetry.span("cache_disk"):
        entry = checkpoint.read_entry(path, "cache.disk.quarantine", key)
    if entry is None:
        return None
    _RESULTS.stats.disk_hits += 1
    telemetry.count("cache.result.disk_hit")
    return entry[1]
