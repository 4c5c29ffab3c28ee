"""Cross-experiment workload cache: memoised synthesis, chunk work, results.

Every figure in the evaluation funnels through ``synthesize_layer`` +
``compute_chunk_work`` -- and different runners request content-identical
workloads (``headline_means`` regenerates per-network speedups, then the
energy and FPGA figures redo the very same mask work). This module keys
those products *by value* so the redundancy disappears:

- **Workload cache** (:func:`get_workload`): ``(LayerData, ChunkWork)``
  keyed by the layer spec's fields, the image seed, and the config knobs
  the kernel actually reads -- ``chunk_size``, ``n_clusters``,
  ``position_sample`` (batch enters through per-image seeds). Entries
  live in a bounded in-memory LRU (``REPRO_CACHE_ENTRIES`` /
  ``REPRO_CACHE_BYTES``) with an optional on-disk ``.npz`` store under
  ``$REPRO_CACHE_DIR`` that persists across processes. A cached entry
  computed with ``need_counts=False`` is upgraded in place when a caller
  later needs the counts tensor.
- **Result memo** (:func:`lookup_result` / :func:`store_result`): finished
  per-layer simulation results keyed by (scheme, spec fields, *full*
  config fields, seed), so a warm re-run of a figure skips the
  simulators entirely. With ``REPRO_CHECKPOINT_DIR`` set, every stored
  result is also journaled to the run directory
  (:mod:`repro.resilience.checkpoint`), which is what makes
  ``repro run --resume`` skip finished work after a crash.

The disk store is *corruption-safe*: a truncated or garbled ``.npz`` (a
crash mid-``os.replace`` on exotic filesystems, bit rot, a concurrent
writer on shared storage) is detected on load, renamed to ``.corrupt``
(counted as ``cache.disk.quarantine``) and recomputed -- never trusted,
never a crash. ``repro doctor`` scans and prunes quarantined entries,
and ``REPRO_FAULT=cache_corrupt:N`` injects the damage deterministically
so the path stays tested.

Keys are tuples of plain values (``dataclasses.astuple`` of frozen
specs/configs), so two workloads collide only if every field that can
influence the arrays is equal -- the cache test asserts distinct
(seed, chunk_size, sampling) keys never collide.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import astuple, dataclass

import numpy as np

from repro import profiling, telemetry
from repro.core import parallel, timing
from repro.telemetry import events
from repro.core.env import env_int
from repro.resilience import checkpoint, faults
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerData, synthesize_layer
from repro.sim.config import HardwareConfig
from repro.sim.kernels import (
    ChunkWork,
    PackedMasks,
    PositionAssignment,
    compute_chunk_work,
)

__all__ = [
    "CacheStats",
    "workload_key",
    "result_key",
    "cache_get",
    "cache_put",
    "get_layer_data",
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

    Hit/miss/eviction events feed both the local :class:`CacheStats`
    (process-scoped, what :func:`cache_stats` reports) and the telemetry
    counters ``cache.<name>.{hit,miss,evict}`` -- the latter merge across
    worker processes, so a fanned-out run still reports its true totals.
    """

    def __init__(
        self, max_entries: int, max_bytes: int | None = None, name: str = "cache"
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

        A buffer shared by several entries (the ``LayerData`` arrays
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
            while len(self._data) > self.max_entries or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._data) > 1
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


_WORKLOADS = _LRU(
    max_entries=env_int("REPRO_CACHE_ENTRIES", 256, minimum=0),
    max_bytes=env_int("REPRO_CACHE_BYTES", 2 * 1024**3, minimum=0),
    name="workload",
)
_RESULTS = _LRU(
    max_entries=env_int("REPRO_RESULT_ENTRIES", 16384, minimum=0), name="result"
)

_log = telemetry.get_logger("workload")


def workload_key(spec: ConvLayerSpec, cfg: HardwareConfig, seed: int) -> tuple:
    """Content key for one (LayerData, ChunkWork) pair.

    Only the config fields the kernel reads participate; sweeps that vary
    other knobs (e.g. ``bisection_width``) share one workload entry.
    """
    return (
        "workload",
        type(spec).__name__,
        astuple(spec),
        int(seed),
        int(cfg.chunk_size),
        int(cfg.n_clusters),
        cfg.position_sample,
    )


def result_key(kind: str, spec: ConvLayerSpec, cfg: HardwareConfig, seed: int) -> tuple:
    """Content key for one finished per-layer simulation result.

    The active ``REPRO_PROFILE`` mode participates so a result computed
    without counters (or without timelines) is never served to a run
    that expects them -- figure values are identical across modes, but
    the attached :class:`~repro.profiling.counters.CounterSet` is not.
    """
    return (
        "result",
        kind,
        type(spec).__name__,
        astuple(spec),
        astuple(cfg),
        int(seed),
        profiling.profile_mode(),
    )


def get_layer_data(spec: ConvLayerSpec, seed: int = 0) -> LayerData:
    """Memoised :func:`synthesize_layer`."""
    key = ("data", type(spec).__name__, astuple(spec), int(seed))
    data = _WORKLOADS.get(key)
    if data is None:
        with telemetry.span("synthesize", layer=spec.name):
            data = synthesize_layer(spec, seed=seed)
        _WORKLOADS.put(key, data, arrays=(data.input_map, data.filters))
    return data


def get_workload(
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    need_counts: bool = True,
) -> tuple[LayerData, ChunkWork]:
    """Memoised (synthesis + chunk work) for one workload.

    Checks the in-memory LRU, then the on-disk store (when
    ``$REPRO_CACHE_DIR`` is set), then computes -- writing back to both.

    When several processes share one cache directory, the compute is
    cross-process single-flight: a claim lease on the entry path
    (:mod:`repro.dist.store`) elects one computer per missing key and
    the losers wait for its publication instead of duplicating the
    mask work. Claims are advisory -- a stale or unobtainable lease
    degrades to the old compute-and-race behaviour, which atomic
    publish keeps correct.
    """
    key = workload_key(spec, cfg, seed)
    entry = _WORKLOADS.get(key)
    if entry is not None and _satisfies(entry[1], need_counts):
        return entry
    disk = _disk_load(key, spec, need_counts)
    if disk is not None:
        _WORKLOADS.put(key, disk, arrays=_pair_arrays(disk))
        return disk
    claim, published = _claim_compute(key)
    if published:
        disk = _disk_load(key, spec, need_counts)
        if disk is not None:
            _WORKLOADS.put(key, disk, arrays=_pair_arrays(disk))
            return disk
        # The peer's entry is unusable for us (shallower need_counts,
        # quarantined): compute after all, and republish richer.
    try:
        data = entry[0] if entry is not None else get_layer_data(spec, seed)
        with telemetry.span("chunk_work", layer=spec.name):
            work = compute_chunk_work(data, cfg, need_counts=need_counts)
        pair = (data, work)
        _WORKLOADS.put(key, pair, arrays=_pair_arrays(pair))
        _disk_store(key, pair)
    finally:
        if claim is not None:
            claim.release()
    return pair


def _claim_compute(key: tuple):
    """Single-flight election for one missing disk entry.

    Returns ``(claim, published)``: a held :class:`repro.dist.store.Claim`
    when this process should compute (release it after publishing),
    ``published=True`` when a peer published while we waited. Both are
    falsy when no disk cache is configured or single-flight is off.
    """
    path = _disk_path(key)
    if path is None:
        return None, False
    from repro.dist import store as dist_store

    if not dist_store.single_flight_enabled():
        return None, False
    claim = dist_store.try_claim(path)
    if claim is not None:
        return claim, False
    return dist_store.wait_for_publication(path)


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
    """The memoised simulation result under *key*, or ``None``."""
    return _RESULTS.get(key)


def store_result(key: tuple, value) -> None:
    """Memoise one finished simulation result.

    When a run journal is active (``REPRO_CHECKPOINT_DIR``), the result
    is also persisted there so an interrupted run can resume without
    redoing it -- workers inherit the directory through the environment,
    so fanned-out runs checkpoint from every process.
    """
    _RESULTS.put(key, value)
    checkpoint.journal_result(key, value)


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


# -- on-disk store ----------------------------------------------------------


def _satisfies(work: ChunkWork, need_counts: bool) -> bool:
    """Whether a cached entry can serve a request.

    Either match-count representation serves a ``need_counts`` caller:
    materialized counts and packed masks are interchangeable (and
    bit-identical) through the reduction engine, and the rare raw-count
    consumer regenerates via ``ChunkWork.materialized_counts``.
    """
    if not need_counts:
        return True
    return work.counts is not None or work.packed is not None


def _pair_arrays(pair: tuple[LayerData, ChunkWork]) -> list:
    """Every array one (LayerData, ChunkWork) entry keeps alive."""
    data, work = pair
    arrays = [
        data.input_map,
        data.filters,
        work.counts,
        work.input_pop,
        work.match_sums,
        work.filter_chunk_nnz,
        work.assignment.indices,
        work.assignment.cluster_of,
        work.assignment.weight_of,
        work.assignment.cluster_positions,
    ]
    if work.packed is not None:
        arrays += [work.packed.win_words, work.packed.filt_words]
    return arrays


def _pair_nbytes(pair: tuple[LayerData, ChunkWork]) -> int:
    """Bytes of the distinct buffers one entry holds."""
    buffers = {id(b): b for b in map(_buffer_of, _pair_arrays(pair)) if b is not None}
    return sum(b.nbytes for b in buffers.values())


def _cache_dir() -> pathlib.Path | None:
    path = os.environ.get("REPRO_CACHE_DIR")
    return pathlib.Path(path) if path else None


def _disk_path(key: tuple) -> pathlib.Path | None:
    base = _cache_dir()
    if base is None:
        return None
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
    return base / f"workload-{digest}.npz"


def _disk_store(key: tuple, pair: tuple[LayerData, ChunkWork]) -> None:
    path = _disk_path(key)
    if path is None:
        return
    data, work = pair
    payload = {
        "key": np.array(repr(key)),
        "input_map": data.input_map,
        "filters": data.filters,
        "input_pop": work.input_pop,
        "match_sums": work.match_sums,
        "filter_chunk_nnz": work.filter_chunk_nnz,
        "n_chunks": np.int64(work.n_chunks),
        "indices": work.assignment.indices,
        "cluster_of": work.assignment.cluster_of,
        "weight_of": work.assignment.weight_of,
        "cluster_positions": work.assignment.cluster_positions,
    }
    if work.counts is not None:
        payload["counts"] = work.counts
    if work.packed is not None:
        payload["win_words"] = work.packed.win_words
        payload["filt_words"] = work.packed.filt_words
        payload["packed_chunk_size"] = np.int64(work.packed.chunk_size)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with timing.stage("cache_disk"), os.fdopen(fd, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
            telemetry.count("cache.disk.store")
            telemetry.count("cache.disk.store_bytes", path.stat().st_size)
            if faults.fire("cache_corrupt", token=path.name):
                # Deterministic chaos: truncate the entry we just wrote
                # so the next load exercises the quarantine path.
                with open(path, "r+b") as cf:
                    cf.truncate(max(8, path.stat().st_size // 2))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # Disk cache is best-effort; a full or read-only volume only
        # costs the persistence, not the run.
        _log.debug(
            "disk cache store failed %s", telemetry.kv(path=path, error=exc)
        )
        return


def _disk_load(
    key: tuple, spec: ConvLayerSpec, need_counts: bool
) -> tuple[LayerData, ChunkWork] | None:
    path = _disk_path(key)
    if path is None or not path.exists():
        return None
    try:
        with timing.stage("cache_disk"), np.load(path, allow_pickle=False) as z:
            if str(z["key"][()]) != repr(key):
                # Digest collision: the 96-bit file name matched but the
                # full key does not. Recompute rather than trust -- and
                # count it, because a collision storm reads as a plain
                # miss otherwise.
                telemetry.count("cache.disk.collision")
                _log.warning(
                    "disk cache digest collision %s",
                    telemetry.kv(path=path),
                )
                return None
            if need_counts and "counts" not in z.files and "win_words" not in z.files:
                return None
            data = LayerData(
                spec=spec, input_map=z["input_map"], filters=z["filters"]
            )
            assignment = PositionAssignment(
                indices=z["indices"],
                cluster_of=z["cluster_of"],
                weight_of=z["weight_of"],
                cluster_positions=z["cluster_positions"],
            )
            packed = None
            if "win_words" in z.files:
                packed = PackedMasks(
                    win_words=z["win_words"],
                    filt_words=z["filt_words"],
                    chunk_size=int(z["packed_chunk_size"]),
                )
            work = ChunkWork(
                counts=z["counts"] if "counts" in z.files else None,
                input_pop=z["input_pop"],
                match_sums=z["match_sums"],
                assignment=assignment,
                n_chunks=int(z["n_chunks"]),
                filter_chunk_nnz=z["filter_chunk_nnz"],
                packed=packed,
            )
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # np.load raises BadZipFile/EOFError on a truncated archive and
        # ValueError/KeyError on garbled contents -- all mean the entry
        # is damaged. Quarantine it (rename, never delete: the bytes may
        # matter for a post-mortem) and fall through to recompute.
        _quarantine_entry(path, exc)
        return None
    except OSError as exc:
        # A read error is the volume's problem, not the entry's; leave
        # the file alone and recompute.
        _log.debug(
            "disk cache load failed %s", telemetry.kv(path=path, error=exc)
        )
        return None
    _WORKLOADS.stats.disk_hits += 1
    telemetry.count("cache.disk.load")
    return (data, work)


def _quarantine_entry(path: pathlib.Path, error: Exception) -> None:
    """Move a corrupt cache entry aside so it is never trusted again."""
    telemetry.count("cache.disk.quarantine")
    events.emit("cache.quarantine", path=str(path), error=str(error))
    _log.warning(
        "quarantining corrupt cache entry %s",
        telemetry.kv(path=path, error=error),
    )
    try:
        os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
    except OSError:
        pass  # best-effort: recompute happens regardless
