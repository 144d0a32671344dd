"""Top-level cycle-level GPU simulator.

The reproduction's MacSim stand-in for the design-space-exploration
experiments (Table 4, Figure 12).  One representative SM is simulated in
detail per kernel wave and the result extrapolated across waves — a
standard reduction whose consistency between "full" and "sampled" runs is
what the sampling-error comparison requires.

Hardware sensitivity enters exactly where the paper's DSE varies it:

* **SM count** — more SMs mean fewer waves (compute side speeds up) but a
  thinner per-SM slice of L2 capacity and DRAM bandwidth (memory-bound
  kernels do not);
* **cache size** — the simulated L1 and the per-SM L2 slice grow or
  shrink, moving hit rates and hence memory latencies.

Caches cold-start at every kernel launch — the paper's extreme-case
L2-flush scenario, which its Sec. 6.2 study found costs well under 1%
accuracy because most reuse happens within kernels rather than across
them.  Cross-kernel L2 persistence is out of scope for the reduced-trace
design (the scaled address space differs per kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..analysis import detsan
from ..hardware.gpu_config import GPUConfig
from ..memo.dedup import collapse_draws
from ..memo.sim_cache import RawKernelSim
from ..workloads.workload import Workload
from .batch import BatchPolicy, execute_wave_batch
from .cache import Cache
from .memory import DramModel
from .noise import noise_factors
from .sm import LatencyTable, StreamingMultiprocessor
from .stats import SimStats
from .trace import KernelTrace, TraceGenerator

__all__ = ["KernelSimResult", "WorkloadSimResult", "GpuSimulator"]

#: Event counters scaled by wave extrapolation (everything but the float
#: ``cycles``/``stall_cycles``), in a fixed order so batch simulation can
#: round and aggregate them as one matrix.
_EVENT_FIELDS = (
    "instructions", "fp32_ops", "fp16_ops", "int_ops", "sfu_ops",
    "shared_ops", "branches", "global_loads", "global_stores",
    "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "dram_accesses", "dram_bytes",
)


@dataclass(frozen=True)
class KernelSimResult:
    """Outcome of simulating one kernel invocation."""

    invocation_index: int
    cycles: float
    wave_cycles: float
    extrapolation: float
    stats: SimStats


@dataclass
class WorkloadSimResult:
    """Outcome of simulating a (subset of a) workload."""

    workload_name: str
    kernel_results: List[KernelSimResult]
    aggregate: SimStats

    def __post_init__(self) -> None:
        self._total_cycles: Optional[float] = None
        self._cycles_by_index: Optional[dict] = None

    @property
    def total_cycles(self) -> float:
        # Cached: estimators query this repeatedly per plan evaluation.
        if self._total_cycles is None:
            self._total_cycles = float(sum(r.cycles for r in self.kernel_results))
        return self._total_cycles

    def cycles_by_index(self) -> dict:
        if self._cycles_by_index is None:
            self._cycles_by_index = {
                r.invocation_index: r.cycles for r in self.kernel_results
            }
        return self._cycles_by_index


class GpuSimulator:
    """Trace-driven cycle-level GPU simulator."""

    def __init__(
        self,
        config: GPUConfig,
        latencies: Optional[LatencyTable] = None,
        max_instructions_per_warp: int = 192,
        max_resident_warps: int = 24,
        noise: float = 0.02,
        warmup=None,
        fault_injector=None,
        sim_cache=None,
        batch_policy: Optional[BatchPolicy] = None,
    ):
        self.config = config
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
        #: Optional cache-warmup strategy (see :mod:`repro.sim.warmup`).
        self.warmup = warmup
        #: Optional :class:`~repro.resilience.faults.FaultInjector`; when
        #: set, :meth:`simulate_invocation` consults it and raises
        #: :class:`~repro.errors.SimulationFailure` for invocations the
        #: fault plan dooms — the hook the resilient executor retries
        #: around.  ``None`` (the default) costs nothing.
        self.fault_injector = fault_injector
        #: Optional :class:`~repro.memo.SimResultCache`; when set,
        #: :meth:`simulate_workload` reuses raw per-invocation results
        #: across calls, repetitions and runs instead of re-simulating.
        self.sim_cache = sim_cache
        #: Structure-of-arrays batching policy for multi-invocation
        #: simulation (see :mod:`repro.sim.batch`).  Pure performance
        #: knobs: results are bit-identical at any setting, so the
        #: policy deliberately contributes nothing to
        #: :meth:`memo_identity`.
        self.batch_policy = batch_policy or BatchPolicy()

    @staticmethod
    def _derive_latencies(config: GPUConfig) -> LatencyTable:
        cycles_per_ns = config.clock_ghz
        return LatencyTable(
            l2_hit=max(20.0, config.l2_latency_ns * cycles_per_ns),
            dram=max(100.0, config.dram_latency_ns * cycles_per_ns),
        )

    def _make_dram(self) -> DramModel:
        # Per-SM share of DRAM bandwidth, in bytes per core cycle.
        per_sm_gbps = self.config.dram_bandwidth_gbps / self.config.num_sms
        bytes_per_cycle = per_sm_gbps / self.config.clock_ghz
        return DramModel(
            latency_cycles=0.0,  # fixed latency lives in LatencyTable.dram
            bandwidth_bytes_per_cycle=max(bytes_per_cycle, 1e-3),
            line_bytes=self.config.cache_line_bytes,
        )

    # -- single kernels -----------------------------------------------------
    def _execute_trace(self, trace: KernelTrace) -> Tuple[float, SimStats]:
        """Run the event-driven wave simulation for one trace.

        The irreducibly sequential core: cache setup, optional warmup and
        the SM wave loop.  Returns the raw (unscaled) wave cycles and
        stats, with L1 counters already folded in.
        """
        # Cache capacities are scaled into the trace's reduced address
        # space so footprint-to-capacity ratios match the full kernel.
        scale = trace.cache_scale
        line = self.config.cache_line_bytes
        l1 = Cache(
            max(line * 2, int(self.config.l1_bytes_per_sm * scale)),
            line_bytes=line,
            associativity=8,
        )
        l2 = Cache(
            max(line * 4, int(self.config.l2_bytes * scale)),
            line_bytes=line,
            associativity=16,
        )
        if self.warmup is not None:
            self.warmup.apply(trace, l1, l2)
            l1.reset_stats()
            l2.reset_stats()
        dram = self._make_dram()
        sm = StreamingMultiprocessor(self.latencies, l1, l2, dram)
        wave_cycles, stats = sm.execute_wave(trace)
        stats.l1_hits = l1.stats.hits
        stats.l1_misses = l1.stats.misses
        return wave_cycles, stats

    def _noise_factor(self, seed: int, index: int) -> float:
        """Per-invocation hardware-noise multiplier (log-normal, mean 1)."""
        if not self.noise:
            return 1.0
        rng = np.random.default_rng((seed * 0x9E3779B9 + index) & 0xFFFFFFFF)
        return float(np.exp(rng.standard_normal() * self.noise - 0.5 * self.noise**2))

    def simulate_trace(self, trace: KernelTrace, seed: int = 0) -> KernelSimResult:
        wave_cycles, stats = self._execute_trace(trace)

        index = trace.invocation.index
        noise = self._noise_factor(seed, index)
        launch_cycles = self.config.launch_overhead_us * self.config.cycles_per_us()
        cycles = (wave_cycles * trace.extrapolation + launch_cycles) * noise
        # Event counters cover the traced wave; scale them by the same
        # extrapolation as the cycles so stats describe the whole kernel.
        factor = trace.extrapolation
        for field_name in _EVENT_FIELDS:
            setattr(stats, field_name, int(round(getattr(stats, field_name) * factor)))
        stats.stall_cycles *= factor
        stats.cycles = cycles
        obs.inc("sim.kernels_executed")
        obs.observe("sim.kernel_cycles", cycles)
        return KernelSimResult(
            invocation_index=index,
            cycles=cycles,
            wave_cycles=wave_cycles,
            extrapolation=trace.extrapolation,
            stats=stats,
        )

    def simulate_invocation(
        self,
        workload: Workload,
        index: int,
        seed: int = 0,
        attempt: int = 1,
    ) -> KernelSimResult:
        if self.fault_injector is not None:
            self.fault_injector.check_simulation(int(index), attempt)
        trace = self.tracer.generate(workload.invocation(index), seed=seed)
        return self.simulate_trace(trace, seed=seed)

    # -- memoization --------------------------------------------------------
    def memo_identity(self) -> str:
        """Everything beyond (workload, GPU, seed) that shapes raw results.

        Part of the simulation-cache context key: the latency table and
        trace-reduction knobs change raw wave cycles, and a warmup
        strategy changes cache hit counters.  A warmup object without a
        stable ``repr`` keys on its object identity, which degrades to
        per-process caching — never to a stale hit.
        """
        return (
            f"{self.latencies!r}"
            f"|mi{self.tracer.max_instructions_per_warp}"
            f"|mr{self.tracer.max_resident_warps}"
            f"|warmup={self.warmup!r}"
        )

    @staticmethod
    def _raw(wave_cycles: float, extrapolation: float, stats: SimStats) -> RawKernelSim:
        """Pack one wave's unscaled outputs as a cacheable raw result."""
        return RawKernelSim(
            wave_cycles=float(wave_cycles),
            extrapolation=float(extrapolation),
            stall_cycles=float(stats.stall_cycles),
            events=np.array(
                [getattr(stats, f) for f in _EVENT_FIELDS], dtype=np.int64
            ),
        )

    def _raw_invocation(self, workload: Workload, index: int, seed: int) -> RawKernelSim:
        """Raw (unscaled) simulation of one invocation — the pure core."""
        trace = self.tracer.generate(workload.invocation(index), seed=seed)
        wave_cycles, stats = self._execute_trace(trace)
        return self._raw(wave_cycles, trace.extrapolation, stats)

    def _raw_invocations(
        self, lanes: Sequence[Tuple[Workload, int, int]]
    ) -> List[RawKernelSim]:
        """Raw simulations of (workload, index, seed) lanes, in order.

        Lanes may come from any number of workloads and seeds: they run
        through the batched structure-of-arrays engine
        (:func:`execute_wave_batch`) as one pool when the policy allows.
        Traces are generated lazily and packed by the engine as they
        arrive, so the pool never holds every trace at once.  Results are
        bit-identical to the scalar per-invocation loop, which remains
        both the fallback (single lane, warmup attached, batching
        disabled) and the oracle the parity suite checks against.
        """
        policy = self.batch_policy
        if not (policy.enabled and self.warmup is None and len(lanes) > 1):
            return [
                self._raw_invocation(workload, index, seed)
                for workload, index, seed in lanes
            ]
        extrapolations: List[float] = []

        def traces():
            for workload, index, seed in lanes:
                trace = self.tracer.generate(workload.invocation(index), seed=seed)
                extrapolations.append(trace.extrapolation)
                yield trace

        pairs, report = execute_wave_batch(
            traces(), self.latencies, self.config, policy
        )
        if obs.is_enabled():
            obs.inc("sim.batch.calls")
            obs.inc("sim.batch.lanes", report.batched_lanes)
            obs.inc("sim.batch.scalar_lanes", report.scalar_lanes)
            obs.inc("sim.batch.chunks", report.chunks)
            obs.observe("sim.batch.width", float(report.batched_lanes))
            obs.observe("sim.batch.fill_ratio", float(report.fill_ratio))
        return [
            self._raw(wave_cycles, extrapolation, stats)
            for extrapolation, (wave_cycles, stats) in zip(extrapolations, pairs)
        ]

    # -- workloads ---------------------------------------------------------
    def simulate_workload(
        self,
        workload: Workload,
        indices: Optional[Iterable[int]] = None,
        seed: int = 0,
        dedup: bool = True,
    ) -> WorkloadSimResult:
        """Simulate the workload (or the subset ``indices``), in order.

        The one-request case of :meth:`simulate_workloads`; see there.
        """
        return self.simulate_workloads([(workload, indices, seed)], dedup=dedup)[0]

    def simulate_workloads(
        self,
        requests: Iterable[Tuple[Workload, Optional[Iterable[int]], int]],
        dedup: bool = True,
    ) -> List[WorkloadSimResult]:
        """Simulate several ``(workload, indices, seed)`` requests at once.

        ``indices=None`` means the whole workload.  Each request gets the
        same result :meth:`simulate_workload` would give it alone, in
        request order; what is shared is the engine: the not-yet-cached
        invocations of *every* request run through the
        structure-of-arrays lock-step engine (:mod:`repro.sim.batch`) as
        one lane pool, so many small workloads fill a few wide chunks
        instead of many narrow ones.  Noise, launch overhead,
        extrapolation scaling, counter rounding and aggregation are then
        single array operations per request.  Results are bit-identical
        to calling :meth:`simulate_invocation` per index — each
        lock-step lane performs the same IEEE ops in the same order as
        the scalar event loop, and the post-processing is the same
        arithmetic applied elementwise.

        With ``dedup=True`` (the default) repeated indices within a
        request — routine for with-replacement sampling plans — are
        simulated once and their raw results gathered back per slot;
        when a :class:`~repro.memo.SimResultCache` is attached, unique
        invocations already simulated by an earlier call, process or run
        are reused from the cache, and each request's results are stored
        under its own (context, index list) entry.  Both reuse paths feed
        the identical vectorized post-processing, so every result and
        aggregate stays bit-for-bit equal to ``dedup=False``.
        """
        requests = [
            (
                workload,
                list(range(len(workload))) if indices is None
                else [int(i) for i in indices],
                int(seed),
            )
            for workload, indices, seed in requests
        ]
        names = ",".join(dict.fromkeys(workload.name for workload, _, _ in requests))
        with obs.span("sim.workload", workload=names) as sp:
            # Fault decisions are pure functions of (plan seed, index,
            # attempt), so checking every index upfront raises the same
            # first failure as the interleaved loop — without paying for
            # the simulations ahead of it.
            if self.fault_injector is not None:
                for _, index_list, _ in requests:
                    for index in index_list:
                        self.fault_injector.check_simulation(index, 1)

            # Per request: raw results already known, and what to run.
            plans = []
            identity = self.memo_identity() if self.sim_cache is not None else ""
            for workload, index_list, seed in requests:
                found: Dict[int, RawKernelSim] = {}
                unique, missing, context = index_list, index_list, None
                if dedup:
                    draws = collapse_draws(index_list)
                    unique = missing = [int(i) for i in draws.unique]
                    obs.inc("memo.dedup.draws", draws.num_draws)
                    obs.inc("memo.dedup.collapsed", draws.collapsed)
                    if self.sim_cache is not None and unique:
                        context = self.sim_cache.context_for(
                            workload, self.config, seed, identity
                        )
                        found, missing = self.sim_cache.load(context, unique)
                plans.append((unique, found, missing, context))

            fresh = iter(self._raw_invocations([
                (workload, index, seed)
                for (workload, _, seed), plan in zip(requests, plans)
                for index in plan[2]
            ]))

            results = []
            executed = 0
            for (workload, index_list, seed), (unique, found, missing, context) in zip(
                requests, plans
            ):
                if dedup:
                    raw_by_index = dict(found)
                    raw_by_index.update((index, next(fresh)) for index in missing)
                    if context is not None and missing:
                        self.sim_cache.store(context, unique, raw_by_index)
                    raws = [raw_by_index[index] for index in index_list]
                else:
                    raws = [next(fresh) for _ in missing]
                executed += len(missing)
                results.append(self._finish(workload, index_list, seed, raws))
            sp.attrs["kernels"] = sum(len(index_list) for _, index_list, _ in requests)
            sp.attrs["kernels_simulated"] = executed
            # Counts wave simulations actually run (deduped/cached reuse
            # is free); per-slot cycles land in the histogram.
            obs.inc("sim.kernels_executed", executed)
        return results

    def _finish(
        self, workload: Workload, index_list: List[int], seed: int,
        raws: List[RawKernelSim],
    ) -> WorkloadSimResult:
        """Post-process one request's raw results into its final result."""
        n = len(index_list)
        # Vectorized replication of the per-index keyed generators;
        # bit-identical to calling ``_noise_factor`` per slot (see
        # :mod:`repro.sim.noise`).
        noises = noise_factors(seed, index_list, self.noise)

        if n:
            waves = np.array([raw.wave_cycles for raw in raws], dtype=np.float64)
            extraps = np.array([raw.extrapolation for raw in raws], dtype=np.float64)
            launch = self.config.launch_overhead_us * self.config.cycles_per_us()
            cycles = (waves * extraps + launch) * noises
            events = np.array([raw.events for raw in raws], dtype=np.float64)
            # np.round is half-to-even, exactly like the scalar path's
            # ``int(round(...))``.
            scaled = np.round(events * extraps[:, None]).astype(np.int64)
        else:
            cycles = np.empty(0, dtype=np.float64)
            scaled = np.empty((0, len(_EVENT_FIELDS)), dtype=np.int64)

        results: List[KernelSimResult] = []
        for i, (index, raw) in enumerate(zip(index_list, raws)):
            # Fresh stats per slot: callers may mutate them.
            stats = SimStats(
                cycles=float(cycles[i]),
                stall_cycles=raw.stall_cycles * raw.extrapolation,
                **dict(zip(_EVENT_FIELDS, scaled[i].tolist())),
            )
            results.append(
                KernelSimResult(
                    invocation_index=index,
                    cycles=stats.cycles,
                    wave_cycles=raw.wave_cycles,
                    extrapolation=raw.extrapolation,
                    stats=stats,
                )
            )
        if obs.is_enabled():
            for kernel_cycles in cycles:
                obs.observe("sim.kernel_cycles", float(kernel_cycles))

        aggregate = SimStats()
        if n:
            totals = scaled.sum(axis=0)
            for j, field_name in enumerate(_EVENT_FIELDS):
                setattr(aggregate, field_name, int(totals[j]))
            aggregate.stall_cycles = float(sum(r.stats.stall_cycles for r in results))
        aggregate.cycles = float(sum(r.cycles for r in results))
        if detsan.is_enabled():
            # Sync point: per-invocation cycles and scaled counters must
            # be bit-identical across engine configs (scalar vs batch,
            # pooled vs per-workload, cold vs warm cache, dedup on/off).
            # The key is engine-invariant; the "cycle" family tag keeps
            # these recordings disjoint from the analytical tier's.
            tag = (
                f"sim.cycle|{workload.name}|seed={seed}"
                f"|idx={detsan.index_digest(index_list)}"
            )
            detsan.record(tag + "|cycles", cycles)
            detsan.record(tag + "|events", scaled)
        return WorkloadSimResult(
            workload_name=workload.name,
            kernel_results=results,
            aggregate=aggregate,
        )

    def cycle_counts(
        self, workload: Workload, seed: int = 0
    ) -> np.ndarray:
        """Per-invocation cycle counts of a full simulation."""
        result = self.simulate_workload(workload, seed=seed)
        return np.array([r.cycles for r in result.kernel_results], dtype=np.float64)
