"""Batched structure-of-arrays wave simulation: many traces in lock-step.

The event-driven :class:`~repro.sim.sm.StreamingMultiprocessor` loop is
inherently sequential *within* one trace — the single issue port orders
every instruction — but kernel invocations are independent of each other:
each gets its own L1/L2/DRAM state.  That makes "many invocations" a free
SIMD axis.  This module converts a set of :class:`KernelTrace`s into
structure-of-arrays form (per-warp program counters, memory cursors and
ready times; flat instruction kinds and pre-resolved cache-line numbers)
and advances *all* waves in lock-step, one instruction per trace per
step:

* ready-warp selection is a row-wise ``argmin`` (ties resolve to the
  lowest warp index, exactly like the scalar ``(ready, w)`` heap);
* the per-trace issue port serializes issues through a ``port`` array;
* L1/L2/DRAM lookups run as array gathers against timestamp-LRU caches
  that reproduce the scalar list-LRU decision for decision.

Bit-identity with the scalar path is a structural property, not a
numerical accident: step *t* of lane *b* performs the same IEEE float
operations, in the same order, on the same values as iteration *t* of
the scalar event loop for trace *b*.  The parity suite
(``tests/test_simbatch.py``) asserts this across every bundled workload,
and the scalar path stays available as the oracle.

Performance shape: one lock-step iteration costs a fixed number of numpy
calls regardless of batch width, so throughput grows with width while
the scalar path grows with width x trace length.  Below
``BatchPolicy.min_width`` lanes the fixed per-step overhead loses to the
plain Python loop, which is why the policy keeps a floor.

Traces are sorted by total instruction count (descending) so finished
lanes form a suffix: the active set is always a zero-copy prefix slice.
Lanes whose scaled cache would need a pathologically large dense tag
array run through the scalar oracle instead (see
``BatchPolicy.max_lane_cache_bytes``); results are identical either way.

Memory shape: the chunk is compact — unpadded ``int8`` kinds with a
per-lane ``[lane, kind]`` latency row, a per-warp memory cursor, and
``int32`` line numbers whenever every line of the chunk fits — and the
input is streamed: each trace is packed into a small per-lane record as
the iterable yields it and then dropped, so a caller that passes a
generator never holds more than one trace at a time.  The
``max_width`` / ``max_chunk_cache_bytes`` ceilings bound the whole
chunk (caches and per-slot arrays), so pooling lanes from many
workloads into wide chunks does not grow peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cache import Cache
from .memory import DramModel
from .sm import LatencyTable, StreamingMultiprocessor
from .stats import SimStats
from .trace import KernelTrace, Op

__all__ = ["BatchPolicy", "BatchExecReport", "execute_wave_batch"]

#: Sentinel "never ready" time for finished warps.  Deliberately a huge
#: *finite* float rather than ``inf``: finite arithmetic keeps every
#: masked lane's numbers well-defined (``inf - inf`` would poison NaN
#: into adjacent where-expressions) while still losing every ``argmin``
#: against any real ready time.
_BIG = 1.0e300

#: Stamp value larger than any step index, used to mask ways beyond a
#: lane's associativity out of the LRU victim argmin.
_IBIG = np.int64(2**62)

#: Opcodes per latency row; ``Op.LOAD`` and ``Op.STORE`` are the two
#: highest, so ``kind >= Op.LOAD`` detects a memory instruction.
_N_KINDS = Op.STORE + 1

#: Line numbers up to this fit the compact ``int32`` slot layout.
_INT32_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class BatchPolicy:
    """Tuning knobs for the batched engine.

    Every knob here is pure performance policy: any setting produces
    bit-identical results (the parity suite pins this), so none of these
    fields may enter ``memo_identity()`` — cached results computed at any
    width must keep hitting.  ``repro lint``'s cache-key pass enforces
    exactly that via the ``[[tool.repro.lint.cache-key]]`` spec in
    pyproject.toml.
    """

    #: Master switch; ``False`` forces the scalar oracle everywhere.
    enabled: bool = True
    #: Fewest pending traces worth batching.  One lock-step iteration
    #: costs a fixed ~30 numpy calls however wide the batch is, so very
    #: narrow batches lose to the plain Python loop (measured breakeven
    #: is near 16 lanes on CPython 3.11; see docs/performance.md).
    min_width: int = 16
    #: Widest single lock-step chunk; wider batches run as consecutive
    #: chunks (lanes are independent, so chunk boundaries cannot change
    #: results — they only bound peak memory).
    max_width: int = 512
    #: A lane whose scaled L1+L2 would need a dense tag/stamp array
    #: bigger than this runs through the scalar oracle instead (its
    #: dict-backed cache is sparse).  Keeps degenerate cache_scale
    #: values from allocating gigabytes.
    max_lane_cache_bytes: int = 8 << 20
    #: Ceiling for one chunk's memory — its dense cache arrays (padded
    #: to the widest lane's geometry) plus its per-slot SoA arrays
    #: (kinds, line numbers, per-warp state); a chunk closes before the
    #: next lane would push it past this.
    max_chunk_cache_bytes: int = 256 << 20

    def memo_identity(self) -> str:
        """Contribution to the simulation-cache key: always empty.

        Batched and scalar execution are bit-identical, so no batch knob
        may invalidate cached raw results.  Changing this to return
        anything non-constant requires evidence that results changed —
        which would be a bug in the engine, not a cache-key concern.
        """
        return ""


@dataclass
class BatchExecReport:
    """What one ``execute_wave_batch`` call did (feeds ``sim.batch.*``)."""

    #: Traces simulated in lock-step (excludes scalar-oracle lanes).
    batched_lanes: int = 0
    #: Traces routed through the scalar oracle (oversized caches).
    scalar_lanes: int = 0
    #: Number of lock-step chunks run.
    chunks: int = 0
    #: Useful-work fraction of the padded step grid: sum of per-lane
    #: steps over (width x longest lane), averaged over chunks weighted
    #: by their step counts.  1.0 means no padding waste.
    fill_ratio: float = 1.0


class _LaneCaches:
    """Timestamp-LRU set-associative caches for a chunk of lanes.

    Reproduces :class:`repro.sim.cache.Cache` exactly: tags live in a
    dense, flat ``[lane * set, way]`` array, recency is a monotone
    per-step stamp, the victim on a full-set miss is the stamped-oldest
    way (``== ways.pop(0)``), and fills below associativity append in
    fill order (``== ways.append``).  Stamps within one lane are
    distinct — a lane makes at most one access per cache per step — so
    the victim argmin never ties among real ways; ways beyond a lane's
    associativity are pre-stamped with a sentinel larger than any step,
    so they lose every argmin and need no masking in the hot path.

    Only hits are counted: every memory slot is accessed exactly once,
    so misses (and the DRAM traffic behind L2) follow statically from
    the per-lane access totals.
    """

    __slots__ = ("nsets", "assoc", "tags", "stamps", "tags_flat",
                 "stamps_flat", "fill", "hits", "assoc_per_set", "n_ways",
                 "n_sets_max")

    def __init__(
        self, size_bytes: np.ndarray, line_bytes: int, associativity: int, tag_dtype
    ):
        num_lines = np.maximum(1, size_bytes // line_bytes)
        assoc = np.minimum(associativity, num_lines)
        self.nsets = np.maximum(1, num_lines // assoc)
        self.assoc = assoc
        lanes = len(size_bytes)
        n_sets = int(self.nsets.max())
        n_ways = int(assoc.max())
        self.n_ways = n_ways
        self.n_sets_max = n_sets
        # Tags share the chunk's line dtype, so the hit compare and the
        # victim fill never convert.
        self.tags = np.full((lanes * n_sets, n_ways), -1, dtype=tag_dtype)
        stamps = np.zeros((lanes, n_sets, n_ways), dtype=np.int64)
        pad_ways = np.arange(n_ways)[None, :] >= assoc[:, None]  # [lanes, ways]
        stamps += np.where(pad_ways, _IBIG, np.int64(0))[:, None, :]
        self.stamps = stamps.reshape(lanes * n_sets, n_ways)
        # Flat 1-D views over the same memory: scatters through a single
        # flat index are markedly cheaper than multi-axis fancy indexing.
        self.tags_flat = self.tags.reshape(-1)
        self.stamps_flat = self.stamps.reshape(-1)
        self.fill = np.zeros(lanes * n_sets, dtype=np.int64)
        self.hits = np.zeros(lanes, dtype=np.int64)
        # Per-(lane, set) associativity, for one-gather clamping.
        self.assoc_per_set = np.repeat(assoc, n_sets)

    @staticmethod
    def dense_bytes(size_bytes: int, line_bytes: int, associativity: int) -> int:
        """One lane's dense tag+stamp footprint of the given geometry."""
        num_lines = max(1, size_bytes // line_bytes)
        assoc = min(associativity, num_lines)
        nsets = max(1, num_lines // assoc)
        return nsets * assoc * 16  # int64 tags (at most) + int64 stamps

    def access(self, lanes: np.ndarray, lines: np.ndarray, stamp: int) -> np.ndarray:
        """Access one line per lane; returns the hit mask.

        ``lanes`` must be unique (one access per lane per step), which
        makes the fancy-indexed updates race-free.
        """
        flat_set = lanes * self.n_sets_max + lines % self.nsets.take(lanes)
        ways = self.tags.take(flat_set, axis=0)
        match = ways == lines[:, None]
        hit = match.any(axis=1)
        self.hits[lanes] += hit
        # Touched way per row: the (unique) matching way on a hit — the
        # argmax is computed for every row but only believed where ``hit``
        # is set — and the fill/LRU victim on a miss.
        flat_way = flat_set * self.n_ways + match.argmax(axis=1)
        miss = (~hit).nonzero()[0]
        if len(miss):
            flat_miss = flat_set.take(miss)
            filled = self.fill.take(flat_miss)
            assoc = self.assoc_per_set.take(flat_miss)
            full = filled >= assoc
            victim = np.where(
                full, self.stamps.take(flat_miss, axis=0).argmin(axis=1), filled
            )
            flat_miss_way = flat_miss * self.n_ways + victim
            flat_way[miss] = flat_miss_way
            self.tags_flat[flat_miss_way] = lines.take(miss)
            self.fill[flat_miss] = np.minimum(filled + 1, assoc)
        # One recency-stamp scatter covers hits and misses alike.
        self.stamps_flat[flat_way] = stamp
        return hit


def _cache_footprint(cache_scale: float, config) -> Tuple[Tuple[int, int], int]:
    """Scaled (L1, L2) bytes — the expressions ``_execute_trace`` uses —
    and the dense tag+stamp bytes one lane of them costs."""
    line = config.cache_line_bytes
    l1 = max(line * 2, int(config.l1_bytes_per_sm * cache_scale))
    l2 = max(line * 4, int(config.l2_bytes * cache_scale))
    dense = _LaneCaches.dense_bytes(l1, line, 8) + _LaneCaches.dense_bytes(l2, line, 16)
    return (l1, l2), dense


class _Lane:
    """One trace packed for the SoA: what a chunk needs, and no more.

    Each warp's kinds (``int8``) and cache-line numbers are concatenated
    into one flat array per lane — no padding — with per-warp lengths
    alongside.  Line numbers are ``int32`` when every line fits and
    ``int64`` otherwise.  Packing lets the caller drop the trace (its
    per-warp objects and byte addresses) as soon as it is generated.
    """

    __slots__ = ("kinds", "warp_len", "lines", "mem_len", "steps", "events",
                 "efficiency", "cache_sizes", "cache_bytes")

    def __init__(self, trace: KernelTrace, config, cache_sizes: Tuple[int, int],
                 cache_bytes: int):
        warps = trace.warps
        self.kinds = np.concatenate([w.kinds for w in warps]).astype(np.int8, copy=False)
        self.warp_len = np.array([len(w.kinds) for w in warps], dtype=np.int64)
        lines = np.concatenate([w.addresses for w in warps]).astype(np.int64)
        lines //= config.cache_line_bytes
        if lines.size == 0 or (lines.min() >= 0 and lines.max() <= _INT32_MAX):
            lines = lines.astype(np.int32)
        self.lines = lines
        self.mem_len = np.array([len(w.addresses) for w in warps], dtype=np.int64)
        self.steps = len(self.kinds)
        # Static event counts: every traced instruction issues exactly
        # once, so per-kind totals never depend on timing.
        self.events = np.bincount(self.kinds, minlength=_N_KINDS)
        self.efficiency = float(trace.invocation.context.efficiency)
        self.cache_sizes = cache_sizes
        self.cache_bytes = cache_bytes

    def slot_bytes(self) -> int:
        """Chunk memory of this lane's slots: kinds, lines, warp state."""
        return self.steps + self.lines.nbytes + 32 * len(self.warp_len)


class _Chunk:
    """Structure-of-arrays state for one lock-step chunk.

    Kinds and line numbers are flat concatenations over every (lane,
    warp); each warp's program counter and memory cursor are absolute
    positions into them, so the step loop reads a slot with one ``take``
    and no index arithmetic.  Consumes ``lanes``: each entry is set to
    ``None`` once copied in, so a record's memory is freed as the chunk
    fills.
    """

    __slots__ = (
        "steps", "ready", "pcs", "pc_end", "cursor", "kinds", "lat_rows",
        "lines", "l1", "l2", "busy", "events",
    )

    def __init__(self, lanes: List[Optional[_Lane]], latencies: LatencyTable, config):
        width = len(lanes)
        n_warps = max(len(lane.warp_len) for lane in lanes)
        efficiency = np.array([lane.efficiency for lane in lanes], dtype=np.float64)
        sizes = np.array([lane.cache_sizes for lane in lanes], dtype=np.int64)
        self.steps = np.array([lane.steps for lane in lanes], dtype=np.int64)
        self.events = np.array([lane.events for lane in lanes], dtype=np.int64)
        line_dtype = np.result_type(*(lane.lines.dtype for lane in lanes))

        warp_len = np.zeros((width, n_warps), dtype=np.int64)
        mem_len = np.zeros((width, n_warps), dtype=np.int64)
        self.kinds = np.empty(int(self.steps.sum()), dtype=np.int8)
        self.lines = np.empty(sum(len(lane.lines) for lane in lanes), dtype=line_dtype)
        kind_at = line_at = 0
        for b in range(width):
            lane, lanes[b] = lanes[b], None
            warp_len[b, : len(lane.warp_len)] = lane.warp_len
            mem_len[b, : len(lane.mem_len)] = lane.mem_len
            self.kinds[kind_at : kind_at + lane.steps] = lane.kinds
            self.lines[line_at : line_at + len(lane.lines)] = lane.lines
            kind_at += lane.steps
            line_at += len(lane.lines)
        # Warps are laid out lane-major, so an exclusive prefix sum of
        # the per-warp lengths is each warp's first slot.
        self.pcs = (np.cumsum(warp_len) - warp_len.ravel()).reshape(warp_len.shape)
        self.pc_end = self.pcs + warp_len
        self.cursor = (np.cumsum(mem_len) - mem_len.ravel()).reshape(mem_len.shape)
        # Padded and empty warps are never ready, exactly as the scalar
        # loop never issues from them.
        self.ready = np.where(warp_len > 0, 0.0, _BIG)

        # Per-lane latency row indexed by kind: compute kinds resolve now
        # (the division mirrors ``_compute_latency`` bit for bit); memory
        # kinds are NaN and always overwritten by the cache walk.
        lat = latencies
        base = np.array(
            [lat.fp32, lat.fp16, lat.int_alu, lat.sfu, lat.shared, lat.branch,
             np.nan, np.nan],
            dtype=np.float64,
        )
        denom = lat.ilp * np.maximum(efficiency, 1e-3)
        self.lat_rows = base[None, :] / denom[:, None]

        line_bytes = config.cache_line_bytes
        self.l1 = _LaneCaches(sizes[:, 0], line_bytes, 8, line_dtype)
        self.l2 = _LaneCaches(sizes[:, 1], line_bytes, 16, line_dtype)
        self.busy = np.zeros(width, dtype=np.float64)


def _dram_service_cycles(config) -> float:
    """Exactly ``GpuSimulator._make_dram()``'s service time in cycles."""
    per_sm_gbps = config.dram_bandwidth_gbps / config.num_sms
    bytes_per_cycle = per_sm_gbps / config.clock_ghz
    return config.cache_line_bytes / max(bytes_per_cycle, 1e-3)


def _run_chunk(
    chunk: _Chunk, latencies: LatencyTable, config
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance every lane of the chunk to completion.

    Returns (wave_cycles[lanes], stall_cycles[lanes]); hit counters
    accumulate inside the chunk's cache state.  Lanes must be ordered by
    descending step count so the active set stays a prefix — the lane
    ids inside the loop are then just ``arange(active)``, and every
    per-lane array is addressed by zero-copy prefix slices.

    The loop body works on *flat* views with single-axis ``take``/fancy
    scatters: multi-axis fancy indexing costs 2-3x as much per call, and
    at a fixed ~30 numpy calls per lock-step iteration the constant
    factor is the whole game.
    """
    steps = chunk.steps
    lanes = len(steps)
    total = int(steps.max()) if lanes else 0
    n_warps = chunk.ready.shape[1]

    # Active-lane count per step, precomputed: lanes are sorted by
    # descending step count, so the count still running at step t is a
    # searchsorted on the reversed (ascending) array.
    active_at = lanes - np.searchsorted(steps[::-1], np.arange(total), side="right")

    ready = chunk.ready            # [lanes, W] — argmin runs on 2-D rows
    ready_flat = ready.reshape(-1)
    pcs_flat = chunk.pcs.reshape(-1)
    pc_end_flat = chunk.pc_end.reshape(-1)
    cursor_flat = chunk.cursor.reshape(-1)
    kinds = chunk.kinds
    lat_rows_flat = chunk.lat_rows.reshape(-1)
    lines_all = chunk.lines
    l1, l2 = chunk.l1, chunk.l2
    busy = chunk.busy

    port = np.zeros(lanes, dtype=np.float64)
    stall = np.zeros(lanes, dtype=np.float64)
    last_completion = np.zeros(lanes, dtype=np.float64)
    lane_range = np.arange(lanes)
    row_base_all = lane_range * n_warps
    kind_base_all = lane_range * _N_KINDS

    lat_tbl = latencies
    l1_latency = lat_tbl.l1_hit / lat_tbl.ilp
    l2_latency = lat_tbl.l2_hit / lat_tbl.ilp
    dram_latency = lat_tbl.dram / lat_tbl.ilp
    service = _dram_service_cycles(config)

    for t in range(total):
        active = int(active_at[t])
        w = ready[:active].argmin(axis=1)
        flat_w = row_base_all[:active] + w
        ready_w = ready_flat.take(flat_w)
        port_a = port[:active]
        issue = np.maximum(ready_w, port_a)
        stall[:active] += issue - ready_w
        np.add(issue, 1.0, out=port_a)

        pc = pcs_flat.take(flat_w)
        kind = kinds.take(pc)
        lat = lat_rows_flat.take(kind_base_all[:active] + kind)
        m = (kind >= Op.LOAD).nonzero()[0]  # == lane ids: the active set is a prefix
        if len(m):
            flat_w_m = flat_w.take(m)
            slot = cursor_flat.take(flat_w_m)
            cursor_flat[flat_w_m] = slot + 1
            lines = lines_all.take(slot)
            now = issue.take(m)
            mem_lat = np.empty(len(m), dtype=np.float64)
            hit1 = l1.access(m, lines, t)
            mem_lat[hit1] = l1_latency
            pos1 = (~hit1).nonzero()[0]
            if len(pos1):
                hit2 = l2.access(m.take(pos1), lines.take(pos1), t)
                mem_lat[pos1.compress(hit2)] = l2_latency
                pos2 = pos1.compress(~hit2)
                if len(pos2):
                    m_dram = m.take(pos2)
                    now_dram = now.take(pos2)
                    start = np.maximum(now_dram, busy.take(m_dram))
                    dram_done = start + service
                    busy[m_dram] = dram_done
                    # DramModel adds latency_cycles == 0.0 into the
                    # completion; x + 0.0 is bit-identical for the
                    # positive times here, so the term is elided.
                    mem_lat[pos2] = (dram_done - now_dram) + dram_latency
            lat[m] = mem_lat
        completion = issue + lat
        new_pc = pc + 1
        pcs_flat[flat_w] = new_pc
        finished = new_pc >= pc_end_flat.take(flat_w)
        ready_flat[flat_w] = np.where(finished, _BIG, completion)
        np.maximum(last_completion[:active], completion, out=last_completion[:active])

    return last_completion, stall


def _stats_for_lane(
    chunk: _Chunk, lane: int, wave_cycles: float, stall: float, line_bytes: int
) -> SimStats:
    """Assemble the SimStats exactly as ``execute_wave`` + caller do.

    Misses are not counted in the hot loop: every memory slot is
    accessed exactly once, so ``l1_misses = accesses - l1_hits``, L2
    sees exactly the L1 misses, and every L2 miss is one DRAM line.
    """
    kind_counts = chunk.events[lane]
    loads = int(kind_counts[Op.LOAD])
    stores = int(kind_counts[Op.STORE])
    l1_hits = int(chunk.l1.hits[lane])
    l1_misses = loads + stores - l1_hits
    l2_hits = int(chunk.l2.hits[lane])
    l2_misses = l1_misses - l2_hits
    stats = SimStats(
        instructions=int(chunk.steps[lane]),
        fp32_ops=int(kind_counts[Op.FP32]),
        fp16_ops=int(kind_counts[Op.FP16]),
        int_ops=int(kind_counts[Op.INT]),
        sfu_ops=int(kind_counts[Op.SFU]),
        shared_ops=int(kind_counts[Op.SHARED]),
        branches=int(kind_counts[Op.BRANCH]),
        global_loads=loads,
        global_stores=stores,
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        dram_accesses=l2_misses,
        dram_bytes=l2_misses * line_bytes,
        stall_cycles=float(stall),
    )
    stats.cycles = float(wave_cycles)
    return stats


def _execute_scalar(trace: KernelTrace, latencies: LatencyTable, config) -> Tuple[float, SimStats]:
    """The oracle: per-trace scalar execution, as ``_execute_trace`` runs it."""
    scale = trace.cache_scale
    line = config.cache_line_bytes
    l1 = Cache(
        max(line * 2, int(config.l1_bytes_per_sm * scale)),
        line_bytes=line,
        associativity=8,
    )
    l2 = Cache(
        max(line * 4, int(config.l2_bytes * scale)),
        line_bytes=line,
        associativity=16,
    )
    per_sm_gbps = config.dram_bandwidth_gbps / config.num_sms
    dram = DramModel(
        latency_cycles=0.0,
        bandwidth_bytes_per_cycle=max(per_sm_gbps / config.clock_ghz, 1e-3),
        line_bytes=line,
    )
    sm = StreamingMultiprocessor(latencies, l1, l2, dram)
    wave_cycles, stats = sm.execute_wave(trace)
    stats.l1_hits = l1.stats.hits
    stats.l1_misses = l1.stats.misses
    return wave_cycles, stats


def execute_wave_batch(
    traces: Iterable[KernelTrace],
    latencies: LatencyTable,
    config,
    policy: Optional[BatchPolicy] = None,
) -> Tuple[List[Tuple[float, SimStats]], BatchExecReport]:
    """Execute every trace's wave; returns per-trace (cycles, stats).

    Results are returned in input order and are bit-identical to calling
    the scalar ``_execute_trace`` per trace.  The report carries the
    batching shape for ``sim.batch.*`` observability.

    ``traces`` may be any iterable.  Each trace is packed into a compact
    per-lane record as it arrives and is not referenced afterwards, so a
    generator lets the caller stream traces in without holding them all
    (only the first ``min_width - 1`` are kept, in case too few lanes
    turn up to batch and they must run through the scalar oracle).
    """
    policy = policy or BatchPolicy()
    report = BatchExecReport()
    results: Dict[int, Tuple[float, SimStats]] = {}
    lanes: List[Optional[_Lane]] = []
    positions: List[int] = []
    held: List[Tuple[int, KernelTrace]] = []
    floor = max(2, policy.min_width)
    count = 0
    for pos, trace in enumerate(traces):
        count += 1
        sizes, cache_bytes = _cache_footprint(trace.cache_scale, config)
        if not policy.enabled or cache_bytes > policy.max_lane_cache_bytes:
            results[pos] = _execute_scalar(trace, latencies, config)
            report.scalar_lanes += 1
            continue
        lanes.append(_Lane(trace, config, sizes, cache_bytes))
        positions.append(pos)
        if len(lanes) < floor:
            held.append((pos, trace))
        elif held:
            held.clear()

    if len(lanes) < floor:
        for pos, trace in held:
            results[pos] = _execute_scalar(trace, latencies, config)
            report.scalar_lanes += 1
        return [results[pos] for pos in range(count)], report

    # Sort by total instruction count, descending, so finished lanes are
    # always a suffix of each chunk (active set = prefix slice).
    order = sorted(range(len(lanes)), key=lambda j: (-lanes[j].steps, j))

    # Greedy chunking under the width and chunk-memory ceilings.
    chunks: List[List[int]] = []
    current: List[int] = []
    cache_peak = slot_total = 0
    for j in order:
        lane = lanes[j]
        # Dense caches pad every lane to the widest geometry; slots are flat.
        cache_peak = max(cache_peak, lane.cache_bytes)
        slot_total += lane.slot_bytes()
        if current and (
            len(current) >= policy.max_width
            or (len(current) + 1) * cache_peak + slot_total
            > policy.max_chunk_cache_bytes
        ):
            chunks.append(current)
            current = []
            cache_peak, slot_total = lane.cache_bytes, lane.slot_bytes()
        current.append(j)
    if current:
        chunks.append(current)

    padded_steps = 0
    useful_steps = 0
    line_bytes = config.cache_line_bytes
    for chunk_lanes in chunks:
        members = [lanes[j] for j in chunk_lanes]
        for j in chunk_lanes:
            lanes[j] = None  # ``members`` is the last reference; _Chunk drops it
        chunk = _Chunk(members, latencies, config)
        wave_cycles, stall = _run_chunk(chunk, latencies, config)
        for lane, j in enumerate(chunk_lanes):
            stats = _stats_for_lane(
                chunk, lane, float(wave_cycles[lane]), float(stall[lane]), line_bytes
            )
            results[positions[j]] = (float(wave_cycles[lane]), stats)
        report.batched_lanes += len(chunk_lanes)
        report.chunks += 1
        padded_steps += int(chunk.steps.max()) * len(chunk_lanes)
        useful_steps += int(chunk.steps.sum())
        del chunk  # free this chunk's arrays before the next one is built

    if padded_steps:
        report.fill_ratio = useful_steps / padded_steps
    return [results[pos] for pos in range(count)], report
