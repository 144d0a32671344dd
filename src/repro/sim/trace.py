"""Warp-level trace generation from kernel descriptors.

The simulator is trace-driven, as MacSim and Accel-Sim are.  A trace for
one kernel invocation is a per-warp instruction stream plus an address
stream for its global-memory operations.  Traces are *compact*: the
per-warp stream is capped at ``max_instructions_per_warp`` and the cycle
count extrapolated by the work ratio, the standard loop-extrapolation
reduction for long kernels (the sampled-simulation literature's
intra-kernel reduction; our ground truth and sampled runs share it, so
comparisons stay internally consistent).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..workloads.kernel import KernelInvocation

__all__ = ["Op", "WarpTrace", "KernelTrace", "TraceGenerator"]


class Op:
    """Instruction-kind opcodes used in warp traces."""

    FP32 = 0
    FP16 = 1
    INT = 2
    SFU = 3
    SHARED = 4
    BRANCH = 5
    LOAD = 6
    STORE = 7


@dataclass
class WarpTrace:
    """One warp's instruction stream.

    ``kinds`` holds opcode codes in program order; ``addresses`` holds one
    transaction address per memory instruction, consumed in order.
    Generated traces share one read-only ``kinds`` array across all their
    warps (and across every invocation with the same instruction mix and
    traced length), so it must never be written in place.
    """

    kinds: np.ndarray
    addresses: np.ndarray

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass
class KernelTrace:
    """Compact trace of one kernel invocation."""

    invocation: KernelInvocation
    warps: List[WarpTrace]
    #: Thread blocks per SM wave actually traced.
    resident_warps: int
    #: Multiply simulated-wave cycles by this to cover the full kernel:
    #: (waves across the whole GPU) x (uncaptured loop iterations).
    extrapolation: float
    #: Scale caches by this factor when simulating the trace: the trace's
    #: scaled address space stands in for the real working set.
    cache_scale: float = 1.0


@functools.lru_cache(maxsize=4096)
def _kinds_stream(mix_counts: Tuple[int, ...], length: int) -> Tuple[np.ndarray, int]:
    """The shared read-only kinds stream of one (mix counts, traced
    length) key, and its count of memory instructions.

    The stream depends on nothing else, so every warp of every invocation
    with the same key shares one array instead of building its own copy.
    """
    kinds = TraceGenerator._interleave(
        list(mix_counts),
        [Op.FP32, Op.FP16, Op.INT, Op.SFU, Op.SHARED, Op.BRANCH, Op.LOAD, Op.STORE],
        length,
    )
    kinds.flags.writeable = False
    return kinds, int(np.count_nonzero(kinds >= Op.LOAD))


class TraceGenerator:
    """Builds compact kernel traces from specs and launch contexts."""

    def __init__(
        self,
        num_sms: int,
        max_blocks_per_sm: int = 16,
        max_warps_per_sm: int = 48,
        max_instructions_per_warp: int = 192,
        max_resident_warps: int = 24,
        line_bytes: int = 128,
    ):
        self.num_sms = num_sms
        self.max_blocks_per_sm = max_blocks_per_sm
        self.max_warps_per_sm = max_warps_per_sm
        self.max_instructions_per_warp = max_instructions_per_warp
        self.max_resident_warps = max_resident_warps
        self.line_bytes = line_bytes

    # -- instruction-stream synthesis ------------------------------------
    @staticmethod
    def _interleave(mix_counts: List[int], kinds: List[int], length: int) -> np.ndarray:
        """Spread instruction classes evenly through the stream.

        Mirrors how compilers schedule memory operations among arithmetic
        to hide latency: each class is distributed at its own stride.
        """
        total = sum(mix_counts)
        if total == 0:
            return np.full(length, Op.INT, dtype=np.int8)
        stream = np.empty(total, dtype=np.int8)
        positions = np.argsort(
            np.concatenate(
                [
                    (np.arange(count) + 0.5) / count + 1e-9 * kind
                    for count, kind in zip(mix_counts, kinds)
                    if count
                ]
            ),
            kind="stable",
        )
        flat_kinds = np.concatenate(
            [np.full(c, k, dtype=np.int8) for c, k in zip(mix_counts, kinds) if c]
        )
        stream[positions.argsort(kind="stable")] = flat_kinds
        # Tile or trim to the requested traced length.
        if total >= length:
            return stream[:length]
        reps = int(np.ceil(length / total))
        return np.tile(stream, reps)[:length]

    def _address_lines(
        self,
        invocation: KernelInvocation,
        resident: int,
        n_mem: int,
        ws_lines: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Coalesced transaction line numbers of every resident warp.

        Returns a ``[resident, n_mem]`` array: row ``w`` is warp ``w``'s
        address stream.  With probability ``locality`` a transaction
        re-touches a hot region (sized as a fraction of the working set);
        otherwise it streams through cold addresses or, for
        ``random_fraction`` of accesses, lands anywhere in the working set
        — so the hit rate a cache of a given capacity achieves responds
        to both the locality knob and the cache size, which is what the
        DSE experiments vary.

        All warps are drawn in one lock-step pass, so the cost per
        invocation is a fixed handful of numpy calls however many warps
        are resident.
        """
        spec = invocation.spec
        context = invocation.context

        # The compact trace works in a *scaled address space*: the trace's
        # total access count stands in for the full working set, and the
        # simulator scales cache capacities by the same ratio (see
        # ``KernelTrace.cache_scale``).  Footprint-to-capacity ratios —
        # the quantity cache behaviour depends on — are thereby preserved
        # despite the trace reduction.
        hot_lines = max(2, int(round(ws_lines * 0.01)))
        warm_lines = max(4, int(round(ws_lines * 0.2)))

        p_hot = 0.35 * context.locality
        p_warm = p_hot + 0.55 * context.locality + 0.15
        shape = (resident, n_mem)
        u = rng.random(shape)
        hot = u < p_hot
        warm = ~hot & (u < p_warm)
        cold = ~hot & ~warm
        random_access = cold & (rng.random(shape) < spec.memory.random_fraction)
        streaming = cold & ~random_access

        # NOTE: the rng call sequence is part of the deterministic trace
        # identity (SIM_VERSION 2): the class uniforms of every slot,
        # then the random-access uniforms of every slot, both shaped
        # [resident, n_mem]; then one ``integers`` draw each for the hot,
        # warm and random classes, whose values fill that class's slots
        # in row-major (warp-major) order.  Reordering, splitting per
        # warp or fusing any of these draws changes every downstream
        # result and needs a SIM_VERSION bump.  Zero-size ``integers``
        # calls are stream-neutral (they consume no bits), so skipping
        # them when a class is empty is bit-identical.
        #
        # Streaming accesses: a strided walk from each warp's base line,
        # one step per streaming access of that warp (its per-row rank).
        warp_lines = np.maximum(
            1, (np.arange(resident, dtype=np.int64) * 7919) % ws_lines
        )
        rank = np.cumsum(streaming, axis=1, dtype=np.int64) - 1
        lines = (warp_lines[:, None] + rank) % ws_lines
        n_hot = int(np.count_nonzero(hot))
        if n_hot:
            lines[hot] = rng.integers(0, hot_lines, size=n_hot)
        n_warm = int(np.count_nonzero(warm))
        if n_warm:
            lines[warm] = hot_lines + rng.integers(0, warm_lines, size=n_warm)
        n_random = int(np.count_nonzero(random_access))
        if n_random:
            lines[random_access] = rng.integers(0, ws_lines, size=n_random)
        return lines

    # -- public API -------------------------------------------------------
    def generate(
        self, invocation: KernelInvocation, seed: int = 0
    ) -> KernelTrace:
        """Build the compact trace of one invocation."""
        spec = invocation.spec
        context = invocation.context
        rng = np.random.default_rng(
            (seed * 0x9E3779B9 + invocation.index * 0x85EBCA6B) & 0xFFFFFFFF
        )

        mix = spec.mix
        per_thread_total = max(mix.total(), 1)
        scaled_total = max(1, int(round(per_thread_total * context.work_scale)))
        traced_len = min(self.max_instructions_per_warp, scaled_total)

        kinds, n_mem = _kinds_stream(
            (
                mix.fp32,
                mix.fp16,
                mix.int_alu,
                mix.sfu,
                mix.shared_ops(),
                mix.branch,
                mix.load_global,
                mix.store_global,
            ),
            traced_len,
        )

        # Resident warps of one SM wave.  A launch too small to fill every
        # SM leaves each SM with fewer resident blocks, so adding SMs
        # still spreads the work (and its memory traffic) thinner.
        blocks_per_sm = min(
            self.max_blocks_per_sm,
            max(1, self.max_warps_per_sm // max(spec.warps_per_block(), 1)),
        )
        total_blocks = spec.num_blocks()
        blocks_per_sm = min(
            blocks_per_sm, max(1, -(-total_blocks // self.num_sms))
        )
        resident = min(
            self.max_resident_warps, blocks_per_sm * spec.warps_per_block()
        )
        resident = min(resident, spec.num_warps())

        # Scaled address space: the wave's total transaction count stands
        # in for the real working set (footprint-to-capacity preserved).
        ws_lines = max(64, n_mem * max(resident, 1))
        working_set = max(
            int(spec.memory.working_set_bytes * min(context.work_scale, 4.0)),
            self.line_bytes * 4,
        )
        cache_scale = ws_lines * self.line_bytes / working_set
        addresses = (
            self._address_lines(invocation, resident, n_mem, ws_lines, rng)
            * self.line_bytes
        )
        warps = [WarpTrace(kinds=kinds, addresses=row) for row in addresses]

        # Extrapolation: waves across the GPU x untraced loop iterations
        # x untraced resident warps.
        blocks_per_wave = max(1, blocks_per_sm * self.num_sms)
        waves = max(1.0, total_blocks / blocks_per_wave)
        loop_factor = scaled_total / traced_len
        warp_factor = max(
            1.0,
            min(self.max_warps_per_sm, blocks_per_sm * spec.warps_per_block())
            / max(resident, 1),
        )
        return KernelTrace(
            invocation=invocation,
            warps=warps,
            resident_warps=resident,
            extrapolation=waves * loop_factor * warp_factor,
            cache_scale=cache_scale,
        )
