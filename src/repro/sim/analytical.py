"""PPT-style analytical timing backend.

:class:`AnalyticalSimulator` implements the same ``simulate_workload`` /
``memo_identity`` surface as :class:`~repro.sim.simulator.GpuSimulator`
but predicts per-invocation cycles in closed form from kernel
descriptors — instruction mix, occupancy, and roofline memory/compute
terms derived from :class:`~repro.hardware.gpu_config.GPUConfig` —
instead of executing traces through the event-driven SM model.  The
structure follows PPT-GPU's analytical tier: the same launch-geometry
and trace-reduction arithmetic as :class:`~repro.sim.trace.TraceGenerator`
(waves, loop extrapolation, resident warps, scaled address space), with
the event loop replaced by three closed-form bounds — issue throughput,
per-warp dependency chain, DRAM bandwidth — combined roofline-style.

The backend is deliberately *wrong in a measurable way*: it is meant to
be calibrated per kernel against the cycle-level oracle on a small probe
set (see :mod:`repro.core.fidelity`), after which the residual
distribution is the fidelity gap that multi-fidelity plans fold into
their reported ε.  Both tiers share :func:`~repro.sim.noise.noise_factors`
with identical ``(seed, index)`` keying, so hardware noise cancels in
calibration ratios instead of inflating the measured gap.

Memoization: ``memo_identity()`` is prefixed ``analytical-v1`` so
:class:`~repro.memo.SimResultCache` contexts never collide with
cycle-level entries — tiers cannot cross-contaminate a shared cache
directory.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.gpu_config import GPUConfig
from ..memo.sim_cache import RawKernelSim
from ..workloads.kernel import KernelSpec
from ..workloads.workload import Workload
from .simulator import _EVENT_FIELDS, GpuSimulator, _SimulatorTier
from .sm import LatencyTable

__all__ = ["AnalyticalSimulator", "ANALYTICAL_VERSION"]

#: Bumping this invalidates every cached analytical result; bump whenever
#: the closed-form model below changes numerically.
ANALYTICAL_VERSION = 1


def _reuse(accesses: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """Fraction of accesses that re-touch an already-seen line.

    The first touch of each distinct line is a compulsory miss; everything
    beyond the footprint is a potential hit.
    """
    return np.clip(1.0 - footprint / np.maximum(accesses, 1.0), 0.0, 1.0)


def _fit(capacity: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """Probability a re-touched line is still resident in a cache level."""
    return np.clip(capacity / np.maximum(footprint, 1.0), 0.0, 1.0)


class AnalyticalSimulator(_SimulatorTier):
    """Closed-form analytical GPU timing model.

    Drop-in fast tier for :class:`~repro.sim.simulator.GpuSimulator`:
    same constructor shape (minus the knobs that only make sense for an
    event-driven engine), and the same workload path — dedup, cache
    reuse (under this tier's own context key) and the noise / launch /
    extrapolation post-processing are inherited, not duplicated.
    Roughly three orders of magnitude cheaper per invocation than the
    cycle-level engine.
    """

    _span = "sim.analytical.workload"
    _family = "sim.analytical"
    _executed_counter = "sim.fidelity.analytical_kernels"
    _cycles_histogram = None

    def __init__(
        self,
        config: GPUConfig,
        latencies: Optional[LatencyTable] = None,
        max_instructions_per_warp: int = 192,
        max_resident_warps: int = 24,
        noise: float = 0.02,
        sim_cache=None,
    ):
        self.config = config
        # Same derivation as GpuSimulator so both tiers see one latency
        # table for a given GPUConfig (the DSE varies the config, and the
        # analytical tier must move with it).
        self.latencies = latencies or GpuSimulator._derive_latencies(config)
        self.max_instructions_per_warp = max_instructions_per_warp
        self.max_resident_warps = max_resident_warps
        self.noise = noise
        #: Optional :class:`~repro.memo.SimResultCache`; analytical
        #: entries are keyed by this simulator's distinct
        #: :meth:`memo_identity`, so they can share a cache directory
        #: with cycle-level results without cross-contamination.
        self.sim_cache = sim_cache

    # -- memoization --------------------------------------------------------
    def memo_identity(self) -> str:
        """Cache-key component: model version plus every knob that shapes
        raw analytical results.  The ``analytical-`` prefix keeps these
        contexts disjoint from cycle-level ones by construction."""
        return (
            f"analytical-v{ANALYTICAL_VERSION}"
            f"|{self.latencies!r}"
            f"|mi{self.max_instructions_per_warp}"
            f"|mr{self.max_resident_warps}"
        )

    # -- closed-form model --------------------------------------------------
    def _spec_geometry(self, spec: KernelSpec) -> Tuple[int, int, float, float]:
        """Replicate TraceGenerator's launch-geometry arithmetic exactly.

        Returns ``(blocks_per_sm, resident_warps, waves, warp_factor)``.
        Matching the trace reduction bit-for-bit matters: extrapolation is
        a pure structural factor shared by both tiers, so any fidelity gap
        comes from the wave-cycle model alone, not from disagreeing about
        launch geometry.
        """
        cfg = self.config
        wpb = max(spec.warps_per_block(), 1)
        blocks_per_sm = min(cfg.max_blocks_per_sm, max(1, cfg.max_warps_per_sm // wpb))
        total_blocks = spec.num_blocks()
        blocks_per_sm = min(blocks_per_sm, max(1, -(-total_blocks // cfg.num_sms)))
        resident = min(self.max_resident_warps, blocks_per_sm * spec.warps_per_block())
        resident = min(resident, spec.num_warps())
        blocks_per_wave = max(1, blocks_per_sm * cfg.num_sms)
        waves = max(1.0, total_blocks / blocks_per_wave)
        warp_factor = max(
            1.0,
            min(cfg.max_warps_per_sm, blocks_per_sm * spec.warps_per_block())
            / max(resident, 1),
        )
        return blocks_per_sm, resident, waves, warp_factor

    def _spec_raw(
        self,
        spec: KernelSpec,
        work_scales: np.ndarray,
        localities: np.ndarray,
        efficiencies: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized analytical evaluation of one spec's invocations.

        Returns ``(wave_cycles, extrapolations, stall_cycles, events)``
        with ``events`` shaped ``(n, len(_EVENT_FIELDS))`` — the same raw
        quantities the cycle-level engine produces, feeding the identical
        noise/launch/rounding post-processing (``_SimulatorTier._finish``).
        """
        cfg = self.config
        lat = self.latencies
        mix = spec.mix
        total = max(mix.total(), 1)
        _, resident, waves, warp_factor = self._spec_geometry(spec)

        # Trace-reduction factors (identical arithmetic to TraceGenerator).
        scaled_total = np.maximum(1.0, np.round(total * work_scales))
        traced_len = np.minimum(float(self.max_instructions_per_warp), scaled_total)
        loop_factor = scaled_total / traced_len
        extrapolation = waves * loop_factor * warp_factor

        # Per-warp class counts in the traced stream: the interleaver
        # spreads classes at even strides, so a trimmed/tiled stream keeps
        # the mix's proportions to within one instruction per class.
        counts = np.array(
            [
                mix.fp32, mix.fp16, mix.int_alu, mix.sfu,
                mix.shared_ops(), mix.branch,
                mix.load_global, mix.store_global,
            ],
            dtype=np.float64,
        )
        frac = counts / float(total)
        n_class = traced_len[:, None] * frac[None, :]  # (n, 8)
        n_mem = n_class[:, 6] + n_class[:, 7]

        # Scaled address space, replicated from TraceGenerator.generate.
        line = float(cfg.cache_line_bytes)
        ws_lines = np.maximum(64.0, np.round(n_mem) * max(resident, 1))
        working_set = np.maximum(
            np.floor(spec.memory.working_set_bytes * np.minimum(work_scales, 4.0)),
            line * 4.0,
        )
        cache_scale = ws_lines * line / working_set
        l1_lines = np.maximum(2.0, np.floor(cfg.l1_bytes_per_sm * cache_scale) / line)
        l2_lines = np.maximum(4.0, np.floor(cfg.l2_bytes * cache_scale) / line)
        hot_lines = np.maximum(2.0, np.round(ws_lines * 0.01))
        warm_lines = np.maximum(4.0, np.round(ws_lines * 0.2))

        # Address-class probabilities (the trace generator's distribution).
        p_hot = 0.35 * localities
        p_warm = 0.55 * localities + 0.15
        p_cold = np.clip(1.0 - p_hot - p_warm, 0.0, 1.0)
        p_rand = p_cold * spec.memory.random_fraction
        p_stream = p_cold - p_rand

        acc = np.maximum(n_mem * max(resident, 1), 1e-9)  # accesses per wave
        a_hot, a_warm = p_hot * acc, p_warm * acc
        a_rand, a_stream = p_rand * acc, p_stream * acc

        # Per-class hit rates: compulsory-miss share from the footprint,
        # capacity share from how much of the touched region each level
        # holds.  Warm re-touches contend with the hot region too.
        warm_fp = hot_lines + warm_lines
        stream_fp = np.minimum(ws_lines, np.maximum(a_stream, 1.0))
        h1_hot = _reuse(a_hot, hot_lines) * _fit(l1_lines, hot_lines)
        h1_warm = _reuse(a_warm, warm_lines) * _fit(l1_lines, warm_fp)
        h1_rand = _reuse(a_rand, ws_lines) * _fit(l1_lines, ws_lines)
        h1_stream = _reuse(a_stream, stream_fp) * _fit(l1_lines, stream_fp)

        def _l2(a: np.ndarray, reuse_fp: np.ndarray, fit_fp: np.ndarray) -> np.ndarray:
            r = _reuse(a, reuse_fp)
            return r * (1.0 - _fit(l1_lines, fit_fp)) * _fit(l2_lines, fit_fp)

        l1_frac = (
            a_hot * h1_hot + a_warm * h1_warm + a_rand * h1_rand + a_stream * h1_stream
        ) / acc
        l2_frac = (
            a_hot * _l2(a_hot, hot_lines, hot_lines)
            + a_warm * _l2(a_warm, warm_lines, warm_fp)
            + a_rand * _l2(a_rand, ws_lines, ws_lines)
            + a_stream * _l2(a_stream, stream_fp, stream_fp)
        ) / acc
        l1_frac = np.clip(l1_frac, 0.0, 0.995)
        l2_frac = np.clip(l2_frac, 0.0, 1.0 - l1_frac)
        dram_frac = np.clip(1.0 - l1_frac - l2_frac, 0.0, 1.0)

        # -- the three roofline bounds per wave ---------------------------
        # 1) issue throughput: one shared port, 1 instruction/cycle.
        issue = traced_len * resident
        # 2) per-warp dependency chain: exposed compute latency shrinks
        #    with ILP and pipeline efficiency, memory latency with the
        #    blended hit profile.
        eff = np.maximum(efficiencies, 1e-3)
        base = np.array(
            [lat.fp32, lat.fp16, lat.int_alu, lat.sfu, lat.shared, lat.branch],
            dtype=np.float64,
        )
        compute_chain = (n_class[:, :6] @ base) / (lat.ilp * eff)
        mem_latency = (
            l1_frac * lat.l1_hit + l2_frac * lat.l2_hit + dram_frac * lat.dram
        ) / lat.ilp
        chain = compute_chain + n_mem * mem_latency
        # 3) DRAM bandwidth: per-SM slice in bytes per core cycle (the
        #    same derivation as GpuSimulator._make_dram).
        bw = max(cfg.dram_bandwidth_gbps / cfg.num_sms / cfg.clock_ghz, 1e-3)
        dram_accesses = dram_frac * acc
        dram_bw = dram_accesses * line / bw

        t_sum = issue + chain + dram_bw
        t_max = np.maximum(np.maximum(issue, chain), dram_bw)
        # Roofline combine: the dominant bound plus partial exposure of
        # the others (same 0.25 overlap coefficient as TimingModel).
        wave = t_max + 0.25 * (t_sum - t_max)
        stall = np.maximum(0.0, t_max - chain)

        events = np.zeros((len(work_scales), len(_EVENT_FIELDS)), dtype=np.float64)
        events[:, 0] = issue  # instructions
        events[:, 1:9] = n_class * resident  # per-class ops
        events[:, 9] = l1_frac * acc  # l1_hits
        events[:, 10] = (1.0 - l1_frac) * acc  # l1_misses
        events[:, 11] = l2_frac * acc  # l2_hits
        events[:, 12] = (1.0 - l1_frac - l2_frac) * acc  # l2_misses
        events[:, 13] = dram_accesses
        events[:, 14] = dram_accesses * line  # dram_bytes
        return wave, extrapolation, stall, events

    def _raw_invocations(
        self, lanes: Sequence[Tuple[Workload, int, int]]
    ) -> List[RawKernelSim]:
        """Raw analytical results of ``(workload, index, seed)`` lanes, in
        order, evaluated per run of consecutive lanes of one workload.

        The seed is unused by the closed-form model: noise is applied in
        post-processing, exactly like the cycle tier.
        """
        raws: List[RawKernelSim] = []
        for _, run in itertools.groupby(lanes, key=lambda lane: id(lane[0])):
            run = list(run)
            raws.extend(self._raw_workload(run[0][0], [index for _, index, _ in run]))
        return raws

    def _raw_workload(self, workload: Workload, indices: List[int]) -> List[RawKernelSim]:
        """Raw analytical results of one workload's ``indices``, in order."""
        idx = np.asarray(indices, dtype=np.int64)
        sids = workload.spec_ids[idx]
        waves = np.empty(len(idx), dtype=np.float64)
        extraps = np.empty(len(idx), dtype=np.float64)
        stalls = np.empty(len(idx), dtype=np.float64)
        events = np.empty((len(idx), len(_EVENT_FIELDS)), dtype=np.float64)
        for sid in np.unique(sids):
            mask = sids == sid
            sel = idx[mask]
            w, e, s, ev = self._spec_raw(
                workload.specs[int(sid)],
                workload.work_scales[sel],
                workload.localities[sel],
                workload.efficiencies[sel],
            )
            waves[mask], extraps[mask], stalls[mask], events[mask] = w, e, s, ev
        rounded = np.round(events).astype(np.int64)
        return [
            RawKernelSim(
                wave_cycles=float(waves[i]),
                extrapolation=float(extraps[i]),
                stall_cycles=float(stalls[i]),
                events=rounded[i].copy(),
            )
            for i in range(len(idx))
        ]
