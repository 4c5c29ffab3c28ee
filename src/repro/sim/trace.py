"""Event-driven trace simulation of one cluster with double buffering.

Section 3.2: "To hide memory latency, the input map, filter and output
map are double-buffered so that later input map chunks are fetched and
broadcast, and the previous output map data is written while processing
the current input chunks."

The chunk-level simulators assume that hiding is perfect; this module
*checks* it. It walks one cluster cycle by cycle through a sequence of
chunk jobs with an explicit memory port: each chunk's payload must be
fetched into the shadow buffer while the current chunk computes; when a
fetch outlasts the compute, the cluster stalls -- and the trace records
exactly where. The result quantifies, per layer, how much latency the
double buffer actually hides, and at what memory latency/bandwidth the
compute-bound assumption breaks (complementing the FPGA roofline, which
models bandwidth but not per-chunk latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nets.synthesis import LayerMasks
from repro.sim.config import HardwareConfig
from repro.sim.kernels import ChunkWork, compute_chunk_work

__all__ = ["ChunkJob", "TraceEvent", "TraceResult", "DoubleBufferedCluster"]


@dataclass(frozen=True)
class ChunkJob:
    """One broadcast interval: its compute time and its fetch payload."""

    compute_cycles: int
    fetch_bytes: float


@dataclass(frozen=True)
class TraceEvent:
    """One scheduling event in the trace (for debugging/inspection)."""

    cycle: int
    kind: str  # "compute", "stall", "fetch_done"
    chunk: int
    detail: float = 0.0


@dataclass
class TraceResult:
    """Outcome of one traced execution."""

    total_cycles: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def hiding_efficiency(self) -> float:
        """Fraction of memory time hidden under compute (1.0 = perfect)."""
        if self.total_cycles == 0:
            return 1.0
        return self.compute_cycles / self.total_cycles


class DoubleBufferedCluster:
    """A cluster front-end with a two-deep input buffer and a memory port.

    Args:
        bytes_per_cycle: memory-port bandwidth.
        fetch_latency: fixed cycles before a fetch's first byte arrives
            (overlapped across outstanding requests, as DRAM pipelines).
        prefetch_depth: input buffers available. 2 is the paper's double
            buffering; deeper models the CPU's request buffering
            ("the CPU places many requests to keep the compute units
            busy") with more chunk buffers.
        keep_events: record the full event list (memory-heavy for long
            traces; cycle totals are always kept).
    """

    def __init__(
        self,
        bytes_per_cycle: float = 8.0,
        fetch_latency: int = 20,
        prefetch_depth: int = 2,
        keep_events: bool = False,
    ):
        if bytes_per_cycle <= 0:
            raise ValueError(f"bandwidth must be positive, got {bytes_per_cycle}")
        if fetch_latency < 0:
            raise ValueError(f"latency must be non-negative, got {fetch_latency}")
        if prefetch_depth < 2:
            raise ValueError(
                f"need at least double buffering (depth 2), got {prefetch_depth}"
            )
        self.bytes_per_cycle = bytes_per_cycle
        self.fetch_latency = fetch_latency
        self.prefetch_depth = prefetch_depth
        self.keep_events = keep_events

    def transfer_cycles(self, nbytes: float) -> int:
        """Port-occupancy cycles for one chunk's payload."""
        return int(np.ceil(nbytes / self.bytes_per_cycle))

    def run(self, jobs: list[ChunkJob]) -> TraceResult:
        """Trace a job sequence through the buffered front end.

        Chunk ``i``'s fetch may issue once a buffer frees (when chunk
        ``i - depth``'s compute completes); the memory port serialises
        transfers and each arrival trails its transfer by the (pipelined)
        fetch latency. Compute ``i`` starts at
        ``max(compute_{i-1} done, arrival_i)`` -- the gap is a stall.
        """
        result = TraceResult()
        if not jobs:
            return result
        n = len(jobs)
        compute_done = np.zeros(n, dtype=np.int64)
        port_free = 0
        clock = 0
        for i, job in enumerate(jobs):
            # Buffer availability gates the fetch issue.
            issue = 0 if i < self.prefetch_depth else int(
                compute_done[i - self.prefetch_depth]
            )
            begin = max(issue, port_free)
            transfer = self.transfer_cycles(job.fetch_bytes)
            port_free = begin + transfer
            arrival = begin + transfer + self.fetch_latency
            self._emit(result, arrival, "fetch_done", i)

            start = max(clock, arrival)
            if start > clock:
                result.stall_cycles += start - clock
                self._emit(result, start, "stall", i, start - clock)
            clock = start + job.compute_cycles
            compute_done[i] = clock
            result.compute_cycles += job.compute_cycles
            self._emit(result, clock, "compute", i, job.compute_cycles)
        result.total_cycles = int(clock)
        return result

    def run_layer(
        self,
        data: LayerMasks,
        cfg: HardwareConfig,
        work: ChunkWork | None = None,
        value_bytes: int = 1,
    ) -> TraceResult:
        """Trace a whole layer's chunk stream for the busiest cluster.

        Builds one :class:`ChunkJob` per (position, chunk) broadcast from
        the vectorised work counts: compute = the barrier (max unit
        matches, min 1), fetch = the input chunk's mask + non-zero
        payload.
        """
        if work is None:
            work = compute_chunk_work(data, cfg, need_counts=True)
        counts = work.materialized_counts()
        busiest = int(np.argmax(work.assignment.cluster_positions))
        sel = work.assignment.cluster_of == busiest
        barrier = np.maximum(counts[:, sel, :].max(axis=2), 1)  # (chunks, pos)
        pops = work.input_pop[:, sel]
        mask_bytes = cfg.chunk_size / 8.0
        jobs = [
            ChunkJob(
                compute_cycles=int(barrier[c, p]),
                fetch_bytes=mask_bytes + float(pops[c, p]) * value_bytes,
            )
            for p in range(barrier.shape[1])
            for c in range(barrier.shape[0])
        ]
        return self.run(jobs)

    def _emit(
        self, result: TraceResult, cycle: int, kind: str, chunk: int, detail: float = 0.0
    ) -> None:
        if self.keep_events:
            result.events.append(
                TraceEvent(cycle=int(cycle), kind=kind, chunk=chunk, detail=detail)
            )
