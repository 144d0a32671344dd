"""Multi-SM detailed simulation with explicit shared-resource contention.

The default :class:`~repro.sim.simulator.GpuSimulator` details one SM and
folds the other SMs' pressure into a bandwidth share.  This module
simulates ``num_detailed_sms`` SMs *concurrently* in one event loop:
each SM has its own issue port, warps, and L1, while the L2 and the DRAM
channel are genuinely shared — so inter-SM cache interference and memory
queueing emerge instead of being approximated.

Cost scales linearly with the detailed-SM count; the remaining SMs are
covered by wave extrapolation exactly as in the single-SM path.  Use it
when studying contention-sensitive questions (e.g. how DSE conclusions
shift when interference is explicit); the sampling experiments use the
single-SM path for speed.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..hardware.gpu_config import GPUConfig
from ..workloads.workload import Workload
from .cache import Cache
from .memory import DramModel
from .noise import noise_factors
from .sm import LatencyTable, StreamingMultiprocessor
from .simulator import KernelSimResult
from .stats import SimStats
from .trace import KernelTrace, Op, TraceGenerator

__all__ = ["MultiSmSimulator"]


class MultiSmSimulator:
    """Simulates several SMs sharing L2 capacity and DRAM bandwidth."""

    def __init__(
        self,
        config: GPUConfig,
        num_detailed_sms: int = 4,
        latencies: Optional[LatencyTable] = None,
        max_instructions_per_warp: int = 128,
        max_resident_warps: int = 16,
        noise: float = 0.02,
    ):
        if num_detailed_sms < 1:
            raise ValueError("num_detailed_sms must be positive")
        self.config = config
        self.num_detailed_sms = min(num_detailed_sms, config.num_sms)
        self.latencies = latencies or self._derive_latencies(config)
        self.tracer = TraceGenerator(
            num_sms=config.num_sms,
            max_blocks_per_sm=config.max_blocks_per_sm,
            max_warps_per_sm=config.max_warps_per_sm,
            max_instructions_per_warp=max_instructions_per_warp,
            max_resident_warps=max_resident_warps,
            line_bytes=config.cache_line_bytes,
        )
        self.noise = noise

    @staticmethod
    def _derive_latencies(config: GPUConfig) -> LatencyTable:
        cycles_per_ns = config.clock_ghz
        return LatencyTable(
            l2_hit=max(20.0, config.l2_latency_ns * cycles_per_ns),
            dram=max(100.0, config.dram_latency_ns * cycles_per_ns),
        )

    # -- shared-resource construction ---------------------------------------
    def _shared_l2(self, cache_scale: float) -> Cache:
        line = self.config.cache_line_bytes
        # The detailed group shares its proportional slice of L2 capacity.
        share = self.config.l2_bytes * self.num_detailed_sms / self.config.num_sms
        return Cache(
            max(line * 4, int(share * cache_scale)),
            line_bytes=line,
            associativity=16,
        )

    def _shared_dram(self) -> DramModel:
        # The detailed group's fair share of total DRAM bandwidth; the K
        # simulated SMs then contend for it explicitly.
        share_gbps = (
            self.config.dram_bandwidth_gbps
            * self.num_detailed_sms
            / self.config.num_sms
        )
        return DramModel(
            latency_cycles=0.0,
            bandwidth_bytes_per_cycle=max(share_gbps / self.config.clock_ghz, 1e-3),
            line_bytes=self.config.cache_line_bytes,
        )

    # -- the multi-SM event loop ------------------------------------------------
    def _execute_group(
        self, traces: List[KernelTrace]
    ) -> Tuple[float, SimStats]:
        """Run one wave on each detailed SM concurrently."""
        assert traces
        cache_scale = traces[0].cache_scale
        l2 = self._shared_l2(cache_scale)
        dram = self._shared_dram()
        line = self.config.cache_line_bytes
        sms = [
            StreamingMultiprocessor(
                self.latencies,
                l1=Cache(
                    max(line * 2, int(self.config.l1_bytes_per_sm * cache_scale)),
                    line_bytes=line,
                    associativity=8,
                ),
                l2=l2,
                dram=dram,
            )
            for _ in traces
        ]

        stats = SimStats()
        counters: Dict[int, str] = {
            Op.FP32: "fp32_ops", Op.FP16: "fp16_ops", Op.INT: "int_ops",
            Op.SFU: "sfu_ops", Op.SHARED: "shared_ops", Op.BRANCH: "branches",
            Op.LOAD: "global_loads", Op.STORE: "global_stores",
        }

        pcs = [[0] * len(t.warps) for t in traces]
        cursors = [[0] * len(t.warps) for t in traces]
        issue_free = [0.0] * len(traces)
        heap: List[Tuple[float, int, int]] = []
        for s, trace in enumerate(traces):
            for w in range(len(trace.warps)):
                heap.append((0.0, s, w))
        heapq.heapify(heap)
        last_completion = 0.0

        while heap:
            ready, s, w = heapq.heappop(heap)
            warp = traces[s].warps[w]
            if pcs[s][w] >= len(warp.kinds):
                continue
            issue_at = max(ready, issue_free[s])
            stats.stall_cycles += max(0.0, issue_at - ready)
            issue_free[s] = issue_at + 1.0

            kind = int(warp.kinds[pcs[s][w]])
            pcs[s][w] += 1
            stats.instructions += 1
            setattr(stats, counters[kind], getattr(stats, counters[kind]) + 1)

            if kind in (Op.LOAD, Op.STORE):
                address = int(warp.addresses[cursors[s][w]])
                cursors[s][w] += 1
                latency = sms[s]._memory_latency(address, issue_at, stats)
            else:
                latency = sms[s]._compute_latency(
                    kind, traces[s].invocation.context.efficiency
                )
            completion = issue_at + latency
            last_completion = max(last_completion, completion)
            if pcs[s][w] < len(warp.kinds):
                heapq.heappush(heap, (completion, s, w))

        # Merge L1 stats (per SM) into the group record.
        stats.l1_hits = sum(sm.l1.stats.hits for sm in sms)
        stats.l1_misses = sum(sm.l1.stats.misses for sm in sms)
        return last_completion, stats

    # -- public API --------------------------------------------------------------
    def simulate_invocation(
        self, workload: Workload, index: int, seed: int = 0
    ) -> KernelSimResult:
        """Simulate one kernel with explicit multi-SM contention."""
        invocation = workload.invocation(index)
        # Distinct per-SM traces: the warp-index offsets give each SM its
        # own streaming bases while the reuse regions stay shared.
        traces = [
            self.tracer.generate(invocation, seed=seed * 131 + sm_index)
            for sm_index in range(self.num_detailed_sms)
        ]
        wave_cycles, stats = self._execute_group(traces)

        # Extrapolate: the group covered num_detailed_sms SMs of one wave.
        base = traces[0]
        extrapolation = base.extrapolation / 1.0  # waves already per-GPU
        noise = float(noise_factors(seed, [index], self.noise)[0])
        launch_cycles = self.config.launch_overhead_us * self.config.cycles_per_us()
        cycles = (wave_cycles * extrapolation + launch_cycles) * noise
        factor = extrapolation * self.config.num_sms / self.num_detailed_sms
        for field_name in (
            "instructions", "fp32_ops", "fp16_ops", "int_ops", "sfu_ops",
            "shared_ops", "branches", "global_loads", "global_stores",
            "l1_hits", "l1_misses", "l2_hits", "l2_misses",
            "dram_accesses", "dram_bytes",
        ):
            setattr(stats, field_name, int(round(getattr(stats, field_name) * factor)))
        stats.cycles = cycles
        obs.inc("sim.kernels_executed")
        obs.observe("sim.kernel_cycles", cycles)
        return KernelSimResult(
            invocation_index=index,
            cycles=cycles,
            wave_cycles=wave_cycles,
            extrapolation=extrapolation,
            stats=stats,
        )

    def cycle_counts(self, workload: Workload, seed: int = 0) -> np.ndarray:
        """Per-invocation cycles for a whole (reduced) workload."""
        with obs.span(
            "sim.multi_sm.workload",
            workload=workload.name,
            detailed_sms=self.num_detailed_sms,
        ):
            return np.array(
                [
                    self.simulate_invocation(workload, i, seed=seed).cycles
                    for i in range(len(workload))
                ],
                dtype=np.float64,
            )
