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
  ``REPRO_CACHE_BYTES`` bytes) with an optional on-disk ``.npz`` store under
  ``$REPRO_CACHE_DIR`` that persists across processes. Each store entry
  holds both masks inline as ``np.packbits`` members, one bit per
  element, plus the counts-free chunk work (one-sided populations, match
  sums, filter chunk occupancy, position assignment). The
  ``(n_chunks, n_sel, F)`` counts tensor is never written: it is by far
  the largest member and one kernel call rebuilds it from the masks, so
  a counts request served from the store recomputes it on load. A cached
  entry computed with ``need_counts=False`` is upgraded in place when a
  caller later needs the counts tensor. The dense :class:`LayerData`
  stays behind :func:`get_layer_data` for the value-level consumers.
- **Result memo** (:func:`lookup_result` / :func:`store_result`): finished
  per-layer simulation results keyed by (scheme, spec fields, *full*
  config fields, seed), so a warm re-run of a figure skips the
  simulators entirely. With ``$REPRO_CACHE_DIR`` set, the memo has a
  disk tier: every stored result is published to the store as a
  ``result-<sha>.json`` entry (:mod:`repro.resilience.checkpoint`) and a
  memo miss reads it back, so a fresh process over a populated store
  answers every result without loading a workload or simulating. That
  tier is the only copy of a finished result: ``repro run --resume DIR``
  uses *DIR* as the store to skip finished work after a crash, and
  distributed sweeps coordinate on the same entries.

The disk store is *corruption-safe*: a truncated or garbled ``.npz`` or
result entry (a crash mid-``os.replace`` on exotic filesystems, bit rot,
a concurrent writer on shared storage), or a packed mask whose dtype or
length disagrees with the spec's shape, is detected on load, renamed to
``.corrupt`` (counted as ``cache.disk.quarantine``) and recomputed --
never trusted, never a crash. ``repro doctor`` scans and prunes
quarantined entries, and ``REPRO_FAULT=cache_corrupt:N`` injects the
damage deterministically so the path stays tested.

Keys are tuples of plain values (``dataclasses.astuple`` of frozen
specs/configs), so two workloads collide only if every field that can
influence the arrays is equal -- the cache test asserts distinct
(seed, chunk_size, sampling) keys never collide. Both key kinds also
carry :func:`source_fingerprint`, so a store that outlives an edit to
the simulator serves nothing the new code did not produce.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pathlib
import tempfile
import threading
import zipfile
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
from repro.sim.kernels import ChunkWork, PositionAssignment, compute_chunk_work

__all__ = [
    "CacheStats",
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


def workload_key(spec: ConvLayerSpec, cfg: HardwareConfig, seed: int) -> tuple:
    """Content key for one (LayerMasks, ChunkWork) pair.

    Only the config fields the kernel reads participate; sweeps that vary
    other knobs (e.g. ``bisection_width``) share one workload entry.
    """
    return (
        "workload",
        source_fingerprint(),
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
        source_fingerprint(),
        kind,
        type(spec).__name__,
        astuple(spec),
        astuple(cfg),
        int(seed),
        profiling.profile_mode(),
    )


def get_layer_data(spec: ConvLayerSpec, seed: int = 0) -> LayerData:
    """Memoised :func:`synthesize_layer`: the dense values, for value-level use."""
    key = ("data", type(spec).__name__, astuple(spec), int(seed))
    data = _WORKLOADS.get(key)
    if data is None:
        with telemetry.span("synthesize", layer=spec.name):
            data = synthesize_layer(spec, seed=seed)
        _WORKLOADS.put(key, data, arrays=(data.input_map, data.filters))
    return data


def get_layer_masks(spec: ConvLayerSpec, seed: int = 0) -> LayerMasks:
    """Memoised :func:`synthesize_masks`: the occupancy, never the values."""
    key = ("masks", type(spec).__name__, astuple(spec), int(seed))
    masks = _WORKLOADS.get(key)
    if masks is None:
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
    if entry is not None:
        if _satisfies(entry[1], need_counts):
            return entry
        # Upgrade in place. The store's entry holds no counts either, so
        # only the in-memory copy changes.
        pair = (entry[0], _chunk_work(entry[0], cfg, need_counts=True))
        _WORKLOADS.put(key, pair, arrays=_pair_arrays(pair))
        return pair
    path = _disk_path(key)
    absent = path is not None and not path.exists()
    disk = _disk_load(key, spec, cfg, need_counts)
    if disk is not None:
        _WORKLOADS.put(key, disk, arrays=_pair_arrays(disk))
        return disk
    claim, published = _claim_compute(key)
    if published or (claim is not None and absent):
        # A won claim checks again when there was no entry: a peer may
        # have computed, published and released between our miss above
        # and the election.
        disk = _disk_load(key, spec, cfg, need_counts)
        if disk is not None:
            if claim is not None:
                claim.release()
            _WORKLOADS.put(key, disk, arrays=_pair_arrays(disk))
            return disk
        # No entry, or the peer's was quarantined: compute.
    try:
        masks = get_layer_masks(spec, seed)
        pair = (masks, _chunk_work(masks, cfg, need_counts))
        _WORKLOADS.put(key, pair, arrays=_pair_arrays(pair))
        _disk_store(key, pair)
    finally:
        if claim is not None:
            claim.release()
    return pair


def _chunk_work(masks: LayerMasks, cfg: HardwareConfig, need_counts: bool) -> ChunkWork:
    """:func:`compute_chunk_work` under the ``chunk_work`` span."""
    with telemetry.span("chunk_work", layer=masks.spec.name):
        return compute_chunk_work(masks, cfg, need_counts=need_counts)


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


# -- on-disk store ----------------------------------------------------------


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


def _cache_dir() -> pathlib.Path | None:
    path = config.current().cache_dir
    return pathlib.Path(path) if path else None


def _disk_path(key: tuple) -> pathlib.Path | None:
    base = _cache_dir()
    if base is None:
        return None
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
    return base / f"workload-{digest}.npz"


def _unpack_mask(z, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Entry member *name* unpacked to a bool mask of *shape*.

    A member of the wrong dtype or length raises ``ValueError``, so the
    caller quarantines the entry instead of unpacking garbage.
    """
    packed = z[name]
    size = math.prod(shape)
    want = (size + 7) // 8
    if packed.dtype != np.uint8 or packed.shape != (want,):
        raise ValueError(
            f"packed {name} is {packed.dtype}{list(packed.shape)}, "
            f"expected uint8[{want}] for shape {shape}"
        )
    return np.unpackbits(packed, count=size).view(bool).reshape(shape)


def _disk_store(key: tuple, pair: tuple[LayerMasks, ChunkWork]) -> None:
    path = _disk_path(key)
    if path is None:
        return
    masks, work = pair
    payload = {
        "key": np.array(repr(key)),
        "input_mask": np.packbits(masks.input_mask, axis=None),
        "filter_masks": np.packbits(masks.filter_masks, axis=None),
        "input_pop": work.input_pop,
        "match_sums": work.match_sums,
        "filter_chunk_nnz": work.filter_chunk_nnz,
        "n_chunks": np.int64(work.n_chunks),
        "indices": work.assignment.indices,
        "cluster_of": work.assignment.cluster_of,
        "weight_of": work.assignment.weight_of,
        "cluster_positions": work.assignment.cluster_positions,
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with telemetry.span("cache_disk"), os.fdopen(fd, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
            telemetry.count("cache.disk.store")
            telemetry.count("cache.disk.store_bytes", path.stat().st_size)
            faults.truncate_entry(path, site="workload")
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
    key: tuple,
    spec: ConvLayerSpec,
    cfg: HardwareConfig | None = None,
    need_counts: bool = False,
) -> tuple[LayerMasks, ChunkWork] | None:
    """The store's entry under *key*, or ``None`` on a miss or damage.

    Entries hold no counts tensor: a counts request (*need_counts*, with
    the *cfg* the key was built from) rebuilds it from the loaded masks,
    which costs a kernel call but no synthesis.
    """
    path = _disk_path(key)
    if path is None or not path.exists():
        return None
    try:
        # Open the file here: np.load(path) leaks its handle when it
        # raises on a truncated archive.
        with (
            telemetry.span("cache_disk"),
            open(path, "rb") as fh,
            np.load(fh, allow_pickle=False) as z,
        ):
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
            masks = LayerMasks(
                spec=spec,
                input_mask=_unpack_mask(
                    z, "input_mask", (spec.in_height, spec.in_width, spec.in_channels)
                ),
                filter_masks=_unpack_mask(
                    z,
                    "filter_masks",
                    (spec.n_filters, spec.kernel, spec.kernel, spec.in_channels),
                ),
            )
            assignment = PositionAssignment(
                indices=z["indices"],
                cluster_of=z["cluster_of"],
                weight_of=z["weight_of"],
                cluster_positions=z["cluster_positions"],
            )
            work = ChunkWork(
                counts=None,
                input_pop=z["input_pop"],
                match_sums=z["match_sums"],
                assignment=assignment,
                n_chunks=int(z["n_chunks"]),
                filter_chunk_nnz=z["filter_chunk_nnz"],
            )
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # np.load raises BadZipFile/EOFError on a truncated archive and
        # ValueError/KeyError on garbled contents -- all mean the entry
        # is damaged. Quarantine it and fall through to recompute.
        checkpoint.quarantine(path, exc, "cache.disk.quarantine")
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
    if need_counts:
        work = _chunk_work(masks, cfg, need_counts=True)
    return (masks, work)


def _result_path(key: tuple) -> pathlib.Path | None:
    base = _cache_dir()
    return None if base is None else checkpoint.entry_path(base, key)


def _disk_store_result(key: tuple, value) -> None:
    path = _result_path(key)
    if path is None:
        return
    try:
        with telemetry.span("cache_disk"):
            published = checkpoint.write_entry(path, key, value)
        if published:
            telemetry.count("cache.result.disk_store")
            faults.truncate_entry(path, site="result")
    except OSError as exc:
        # Best-effort, like the workload entries.
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
