"""Streaming-multiprocessor model: event-driven warp execution.

One SM executes one *wave* of resident warps from a kernel trace.  The
model is event-driven over instruction issues rather than stepping every
cycle: warps become ready when their previous instruction's latency
expires, a single issue port serializes issues (1 instruction/cycle), and
a greedy-then-oldest pick order approximates a GTO scheduler.  Memory
instructions traverse L1 -> L2 slice -> DRAM with bandwidth queueing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cache import Cache
from .memory import DramModel
from .stats import SimStats
from .trace import KernelTrace, Op

__all__ = ["LatencyTable", "StreamingMultiprocessor"]

#: Op code -> SimStats counter attribute, in opcode order.
_COUNTER_FIELDS = (
    "fp32_ops",
    "fp16_ops",
    "int_ops",
    "sfu_ops",
    "shared_ops",
    "branches",
    "global_loads",
    "global_stores",
)


@dataclass(frozen=True)
class LatencyTable:
    """Instruction latencies in cycles."""

    fp32: float = 4.0
    fp16: float = 2.0
    int_alu: float = 4.0
    sfu: float = 16.0
    shared: float = 24.0
    branch: float = 6.0
    l1_hit: float = 32.0
    l2_hit: float = 190.0
    #: DRAM access latency on top of the bandwidth queue.
    dram: float = 560.0
    #: Independent instructions in flight per warp: exposed dependent
    #: latency is divided by this.
    ilp: float = 2.0


class StreamingMultiprocessor:
    """Executes kernel-trace waves against a cache hierarchy."""

    def __init__(
        self,
        latencies: LatencyTable,
        l1: Cache,
        l2: Cache,
        dram: DramModel,
    ):
        self.latencies = latencies
        self.l1 = l1
        self.l2 = l2
        self.dram = dram
        # Base compute latency by opcode, fixed for the simulator's
        # lifetime; indexed by kind in ``_compute_latency`` instead of
        # rebuilding a dict on every issued instruction.
        self._base_latency = (
            latencies.fp32,
            latencies.fp16,
            latencies.int_alu,
            latencies.sfu,
            latencies.shared,
            latencies.branch,
        )

    def _compute_latency(self, kind: int, efficiency: float) -> float:
        # Poor pipeline utilization (layout/alignment stalls) shows up as
        # longer exposed latency on the compute side.
        lat = self.latencies
        return self._base_latency[kind] / (lat.ilp * max(efficiency, 1e-3))

    def _memory_latency(self, address: int, now: float, stats: SimStats) -> float:
        """L1 -> L2 -> DRAM lookup; returns the exposed latency."""
        lat = self.latencies
        if self.l1.access(address):
            stats.l1_hits += 1
            return lat.l1_hit / lat.ilp
        stats.l1_misses += 1
        if self.l2.access(address):
            stats.l2_hits += 1
            return lat.l2_hit / lat.ilp
        stats.l2_misses += 1
        completion = self.dram.request(now)
        stats.dram_accesses += 1
        stats.dram_bytes += self.dram.line_bytes
        return (completion - now) + lat.dram / lat.ilp

    def execute_wave(self, trace: KernelTrace) -> Tuple[float, SimStats]:
        """Run one wave of resident warps; returns (cycles, stats)."""
        stats = SimStats()
        efficiency = trace.invocation.context.efficiency
        counters = _COUNTER_FIELDS
        # Efficiency is constant across a wave, so each opcode's exposed
        # compute latency is too: resolve all six divisions once up front
        # (identical floats to calling ``_compute_latency`` per issue).
        compute_latency = tuple(
            self._compute_latency(kind, efficiency) for kind in range(Op.BRANCH + 1)
        )

        # Per-warp state: program counter and memory-address cursor.  The
        # streams are read as plain lists: indexing a NumPy array once
        # per issued instruction would cost more than the model itself.
        kinds = [warp.kinds.tolist() for warp in trace.warps]
        addresses = [warp.addresses.tolist() for warp in trace.warps]
        pcs = [0] * len(kinds)
        mem_cursor = [0] * len(kinds)
        # Ready heap entries: (ready_cycle, warp_index).
        heap = [(0.0, w) for w in range(len(kinds))]
        heapq.heapify(heap)
        issue_free_at = 0.0
        last_completion = 0.0
        stall = 0.0
        memory_latency = self._memory_latency
        heappop, heappush = heapq.heappop, heapq.heappush
        load = Op.LOAD

        # Each conditional below is ``max`` spelled out: it returns the
        # same operand ``max`` would, without the call.
        while heap:
            ready, w = heappop(heap)
            stream = kinds[w]
            pc = pcs[w]
            if pc >= len(stream):
                continue
            issue_at = issue_free_at if issue_free_at > ready else ready
            stall += issue_at - ready  # never negative: issue_at >= ready
            issue_free_at = issue_at + 1.0

            kind = stream[pc]
            pc += 1
            pcs[w] = pc
            if kind >= load:
                latency = memory_latency(addresses[w][mem_cursor[w]], issue_at, stats)
                mem_cursor[w] += 1
            else:
                latency = compute_latency[kind]
            completion = issue_at + latency
            if completion > last_completion:
                last_completion = completion
            if pc < len(stream):
                heappush(heap, (completion, w))

        # Every traced instruction issues exactly once, so the per-kind
        # event counts are static.
        stats.stall_cycles = stall
        stats.instructions = sum(len(stream) for stream in kinds)
        if kinds:
            issued = np.bincount(
                np.concatenate([warp.kinds for warp in trace.warps]).astype(np.int64),
                minlength=len(counters),
            )
            for name, count in zip(counters, issued.tolist()):
                setattr(stats, name, count)
        stats.cycles = last_completion
        return last_completion, stats
