"""Tests for the cycle-level GPU simulator."""

import dataclasses

import numpy as np
import pytest

from repro.errors import InvocationIndexError, ReproError
from repro.hardware import RTX_2080, GPUConfig
from repro.sim import (
    BatchPolicy,
    Cache,
    DramModel,
    GpuSimulator,
    LatencyTable,
    Op,
    StreamingMultiprocessor,
    TraceGenerator,
    WarpTrace,
    execute_wave_batch,
)
from repro.sim.stats import SimStats
from repro.workloads import LaunchContext
from repro.workloads.generators.synthetic import flat_workload, make_kernel_spec


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(size_bytes=1024, line_bytes=128, associativity=2)
        assert cache.access(0) is False
        assert cache.access(64) is True  # same line
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_eviction_lru(self):
        # 2 sets x 2 ways of 128B lines = 512B.
        cache = Cache(size_bytes=512, line_bytes=128, associativity=2)
        # Fill set 0 (even line numbers) beyond associativity.
        cache.access(0)
        cache.access(2 * 128)
        cache.access(4 * 128)  # evicts line 0
        assert cache.access(0) is False

    def test_lru_refresh(self):
        cache = Cache(size_bytes=512, line_bytes=128, associativity=2)
        cache.access(0)
        cache.access(2 * 128)
        cache.access(0)  # refresh line 0
        cache.access(4 * 128)  # evicts line 2, not 0
        assert cache.access(0) is True

    def test_flush(self):
        cache = Cache(size_bytes=1024)
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False
        assert cache.resident_lines() == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=0)

    def test_hit_rate_property(self):
        cache = Cache(size_bytes=1024)
        assert cache.stats.hit_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestDram:
    def test_latency_includes_service(self):
        dram = DramModel(latency_cycles=100.0, bandwidth_bytes_per_cycle=64.0, line_bytes=128)
        done = dram.request(0.0)
        assert done == pytest.approx(2.0 + 100.0)

    def test_queueing_under_contention(self):
        dram = DramModel(latency_cycles=0.0, bandwidth_bytes_per_cycle=128.0, line_bytes=128)
        first = dram.request(0.0)
        second = dram.request(0.0)  # queues behind the first
        assert second == pytest.approx(first + 1.0)

    def test_counters(self):
        dram = DramModel(latency_cycles=0.0, bandwidth_bytes_per_cycle=128.0)
        dram.request(0.0)
        dram.request(10.0)
        assert dram.accesses == 2
        assert dram.bytes_transferred == 2 * 128

    def test_reset(self):
        dram = DramModel(latency_cycles=0.0, bandwidth_bytes_per_cycle=1.0)
        dram.request(0.0)
        dram.reset()
        assert dram.accesses == 0
        assert dram.request(0.0) == pytest.approx(128.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DramModel(latency_cycles=-1.0, bandwidth_bytes_per_cycle=1.0)


class TestTraceGenerator:
    @pytest.fixture
    def tracer(self):
        return TraceGenerator(num_sms=46)

    def invocation(self, spec=None, **ctx):
        from repro.workloads import KernelInvocation

        return KernelInvocation(
            index=0, spec=spec or make_kernel_spec(), context=LaunchContext(**ctx)
        )

    def test_trace_shape(self, tracer):
        trace = tracer.generate(self.invocation())
        assert trace.resident_warps == len(trace.warps)
        assert trace.resident_warps > 0
        for warp in trace.warps:
            n_mem = int(np.count_nonzero((warp.kinds == Op.LOAD) | (warp.kinds == Op.STORE)))
            assert len(warp.addresses) == n_mem

    def test_instruction_cap(self):
        tracer = TraceGenerator(num_sms=46, max_instructions_per_warp=50)
        trace = tracer.generate(self.invocation(work_scale=100.0))
        assert len(trace.warps[0]) == 50
        assert trace.extrapolation > 1.0

    def test_extrapolation_covers_work_scale(self, tracer):
        small = tracer.generate(self.invocation(work_scale=1.0))
        big = tracer.generate(self.invocation(work_scale=10.0))
        assert big.extrapolation > small.extrapolation

    def test_deterministic(self, tracer):
        a = tracer.generate(self.invocation(), seed=3)
        b = tracer.generate(self.invocation(), seed=3)
        assert np.array_equal(a.warps[0].addresses, b.warps[0].addresses)

    def test_locality_concentrates_addresses(self, tracer):
        hot = tracer.generate(self.invocation(locality=0.95), seed=1)
        cold = tracer.generate(self.invocation(locality=0.05), seed=1)
        hot_unique = len(np.unique(np.concatenate([w.addresses for w in hot.warps])))
        cold_unique = len(np.unique(np.concatenate([w.addresses for w in cold.warps])))
        assert hot_unique < cold_unique

    def test_small_launch_fewer_resident_warps(self):
        tracer = TraceGenerator(num_sms=46)
        tiny_spec = make_kernel_spec("tiny", grid=8)
        big_spec = make_kernel_spec("big", grid=4096)
        tiny = tracer.generate(self.invocation(spec=tiny_spec))
        big = tracer.generate(self.invocation(spec=big_spec))
        assert tiny.resident_warps <= big.resident_warps

    def test_cache_scale_positive(self, tracer):
        trace = tracer.generate(self.invocation())
        assert trace.cache_scale > 0


class TestStreamingMultiprocessor:
    def make_sm(self):
        return StreamingMultiprocessor(
            LatencyTable(),
            l1=Cache(8 << 10),
            l2=Cache(64 << 10),
            dram=DramModel(latency_cycles=400.0, bandwidth_bytes_per_cycle=5.0),
        )

    def test_executes_all_instructions(self):
        tracer = TraceGenerator(num_sms=4)
        from repro.workloads import KernelInvocation

        inv = KernelInvocation(0, make_kernel_spec(), LaunchContext())
        trace = tracer.generate(inv)
        cycles, stats = self.make_sm().execute_wave(trace)
        expected = sum(len(w) for w in trace.warps)
        assert stats.instructions == expected
        assert cycles >= expected  # single-issue port

    def test_low_efficiency_slows_compute(self):
        tracer = TraceGenerator(num_sms=4)
        from repro.workloads import KernelInvocation

        spec = make_kernel_spec()
        fast_trace = tracer.generate(
            KernelInvocation(0, spec, LaunchContext(efficiency=1.0)), seed=1
        )
        slow_trace = tracer.generate(
            KernelInvocation(0, spec, LaunchContext(efficiency=0.3)), seed=1
        )
        fast, _ = self.make_sm().execute_wave(fast_trace)
        slow, _ = self.make_sm().execute_wave(slow_trace)
        assert slow > fast


class TestGpuSimulator:
    def test_cycle_counts_positive_and_deterministic(self):
        w = flat_workload(n=20, seed=0)
        sim = GpuSimulator(RTX_2080)
        a = sim.cycle_counts(w, seed=2)
        b = GpuSimulator(RTX_2080).cycle_counts(w, seed=2)
        assert (a > 0).all()
        assert np.allclose(a, b)

    def test_work_scale_increases_cycles(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec()
        builder.launch(spec, work_scale=1.0)
        builder.launch(spec, work_scale=8.0)
        cycles = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(builder.build(), seed=0)
        assert cycles[1] > 2 * cycles[0]

    def test_more_sms_speed_up_compute_bound(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec("k", memory_boundedness=0.1, grid=4096)
        for _ in range(3):
            builder.launch(spec, locality=0.9)
        w = builder.build()
        base = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=0).sum()
        doubled = (
            GpuSimulator(RTX_2080.scaled(sm_scale=2.0), noise=0.0)
            .cycle_counts(w, seed=0)
            .sum()
        )
        assert doubled < 0.85 * base

    def test_larger_cache_helps_poor_fit_workloads(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec("k", memory_boundedness=0.9, working_set_mb=64.0)
        for _ in range(3):
            builder.launch(spec, locality=0.6)
        w = builder.build()
        base = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=0).sum()
        bigger = (
            GpuSimulator(RTX_2080.scaled(cache_scale=4.0), noise=0.0)
            .cycle_counts(w, seed=0)
            .sum()
        )
        assert bigger < base

    def test_workload_result_aggregation(self):
        w = flat_workload(n=5, seed=0)
        result = GpuSimulator(RTX_2080).simulate_workload(w, seed=1)
        assert len(result.kernel_results) == 5
        assert result.total_cycles == pytest.approx(
            sum(r.cycles for r in result.kernel_results)
        )
        assert result.aggregate.instructions > 0

    def test_subset_simulation(self):
        w = flat_workload(n=10, seed=0)
        result = GpuSimulator(RTX_2080).simulate_workload(w, indices=[2, 7], seed=1)
        assert [r.invocation_index for r in result.kernel_results] == [2, 7]

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim, w: sim.simulate_invocation(w, -1),
            lambda sim, w: sim.simulate_workload(w, [-1]),
            lambda sim, w: sim.simulate_workload(w, [len(w)]),
        ],
        ids=["invocation-negative", "workload-negative", "workload-past-end"],
    )
    def test_out_of_range_index_raises_typed_error(self, call):
        w = flat_workload(n=5, seed=0)
        with pytest.raises(InvocationIndexError) as excinfo:
            call(GpuSimulator(RTX_2080), w)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, IndexError)

    def test_stats_merge(self):
        a = SimStats(cycles=10.0, instructions=5, l1_hits=2)
        b = SimStats(cycles=20.0, instructions=7, l1_hits=1)
        a.merge(b)
        assert a.cycles == 30.0
        assert a.instructions == 12
        assert a.l1_hits == 3

    def test_stats_rates(self):
        s = SimStats(cycles=10.0, instructions=20, l1_hits=3, l1_misses=1)
        assert s.ipc == pytest.approx(2.0)
        assert s.l1_hit_rate == pytest.approx(0.75)
        assert "l2_hit_rate" in s.as_dict()


class TestWarmup:
    def invocation(self):
        from repro.workloads import KernelInvocation, LaunchContext

        return KernelInvocation(0, make_kernel_spec(), LaunchContext(locality=0.6))

    def test_no_warmup_touches_nothing(self):
        from repro.sim import NoWarmup

        trace = TraceGenerator(num_sms=4).generate(self.invocation())
        assert NoWarmup().apply(trace, Cache(8 << 10), Cache(64 << 10)) == 0

    def test_proportional_warmup_populates_l2(self):
        from repro.sim import ProportionalWarmup

        trace = TraceGenerator(num_sms=4).generate(self.invocation())
        l2 = Cache(1 << 20)
        touched = ProportionalWarmup(0.5).apply(trace, Cache(8 << 10), l2)
        assert touched > 0
        assert l2.resident_lines() > 0

    def test_warmup_fraction_validation(self):
        from repro.sim import ProportionalWarmup, WarmupKernel

        with pytest.raises(ValueError):
            ProportionalWarmup(1.5)
        with pytest.raises(ValueError):
            WarmupKernel(0.0)

    def test_warmup_reduces_cycles(self):
        from repro.sim import ProportionalWarmup
        from repro.workloads.generators.synthetic import flat_workload

        w = flat_workload(n=10, seed=0)
        cold = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=1).sum()
        warm = (
            GpuSimulator(RTX_2080, noise=0.0, warmup=ProportionalWarmup(0.8))
            .cycle_counts(w, seed=1)
            .sum()
        )
        assert warm < cold

    def test_warmup_stats_not_counted(self):
        from repro.sim import WarmupKernel

        trace = TraceGenerator(num_sms=4).generate(self.invocation())
        sim = GpuSimulator(RTX_2080, warmup=WarmupKernel(1.0))
        result = sim.simulate_trace(trace, seed=0)
        # Measured accesses equal the trace's memory ops scaled by the
        # kernel extrapolation — the untimed warmup replay adds nothing.
        n_mem = sum(len(w.addresses) for w in trace.warps)
        expected = int(round(n_mem * trace.extrapolation))
        assert result.stats.l1_hits + result.stats.l1_misses == expected


class TestMultiSmSimulator:
    def test_validation(self):
        from repro.sim import MultiSmSimulator

        with pytest.raises(ValueError):
            MultiSmSimulator(RTX_2080, num_detailed_sms=0)

    def test_detailed_sms_capped_at_config(self):
        from repro.sim import MultiSmSimulator

        cfg = GPUConfig(name="tiny", num_sms=2)
        sim = MultiSmSimulator(cfg, num_detailed_sms=8)
        assert sim.num_detailed_sms == 2

    def test_cycles_positive_and_deterministic(self):
        from repro.sim import MultiSmSimulator
        from repro.workloads.generators.synthetic import flat_workload

        w = flat_workload(n=4, seed=0)
        a = MultiSmSimulator(RTX_2080, num_detailed_sms=2).cycle_counts(w, seed=3)
        b = MultiSmSimulator(RTX_2080, num_detailed_sms=2).cycle_counts(w, seed=3)
        assert (a > 0).all()
        assert np.allclose(a, b)

    def test_contention_never_faster_than_isolated(self):
        """Sharing L2/DRAM across detailed SMs cannot speed a kernel up."""
        from repro.sim import MultiSmSimulator
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec("k", memory_boundedness=0.9, working_set_mb=64.0)
        builder.launch(spec, locality=0.4)
        w = builder.build()
        single = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=1).sum()
        multi = (
            MultiSmSimulator(RTX_2080, num_detailed_sms=4, noise=0.0)
            .cycle_counts(w, seed=1)
            .sum()
        )
        assert multi >= single * 0.8  # allow trace-shape slack, no big speedup

    def test_stats_cover_whole_gpu(self):
        from repro.sim import MultiSmSimulator
        from repro.workloads.generators.synthetic import flat_workload

        w = flat_workload(n=1, seed=0)
        sim = MultiSmSimulator(RTX_2080, num_detailed_sms=2, noise=0.0)
        result = sim.simulate_invocation(w, 0, seed=0)
        # Extrapolated counters exceed what two SMs alone executed.
        assert result.stats.instructions > 2 * 16 * 10


class TestBatchedWorkloadSimulation:
    def test_batch_matches_per_invocation_exactly(self):
        w = flat_workload(n=12, seed=1)
        batch = GpuSimulator(RTX_2080).simulate_workload(w, seed=3)
        scalar_sim = GpuSimulator(RTX_2080)
        assert len(batch.kernel_results) == len(w)
        for i, got in enumerate(batch.kernel_results):
            want = scalar_sim.simulate_invocation(w, i, seed=3)
            assert got.cycles == want.cycles
            assert got.wave_cycles == want.wave_cycles
            assert got.extrapolation == want.extrapolation
            assert got.stats == want.stats

    def test_subset_indices_match_full_run(self):
        w = flat_workload(n=10, seed=2)
        full = GpuSimulator(RTX_2080).simulate_workload(w, seed=5)
        subset = GpuSimulator(RTX_2080).simulate_workload(w, indices=[1, 4, 7], seed=5)
        for got, idx in zip(subset.kernel_results, [1, 4, 7]):
            assert got.cycles == full.kernel_results[idx].cycles

    def test_aggregate_fields_cached_and_consistent(self):
        w = flat_workload(n=8, seed=0)
        res = GpuSimulator(RTX_2080).simulate_workload(w, seed=1)
        total = res.total_cycles
        assert total == res.total_cycles  # cached value is stable
        assert total == sum(r.cycles for r in res.kernel_results)
        by_index = res.cycles_by_index()
        assert by_index is res.cycles_by_index()  # memoized
        assert set(by_index) == {r.invocation_index for r in res.kernel_results}
        assert sum(by_index.values()) == total


# -- lock-step trace generation (SIM_VERSION 2) --------------------------------
HOT, WARM, RANDOM, STREAM = range(4)


def _trace_rng(invocation, seed):
    return np.random.default_rng(
        (seed * 0x9E3779B9 + invocation.index * 0x85EBCA6B) & 0xFFFFFFFF
    )


def _geometry(invocation, resident, n_mem):
    ws_lines = max(64, n_mem * max(resident, 1))
    locality = invocation.context.locality
    p_hot = 0.35 * locality
    return (
        ws_lines,
        max(2, int(round(ws_lines * 0.01))),
        max(4, int(round(ws_lines * 0.2))),
        p_hot,
        p_hot + 0.55 * locality + 0.15,
    )


def reference_lines(invocation, seed, resident, n_mem):
    """The SIM_VERSION 1 generator: one rng pass per warp, warp by warp.

    Kept as the distribution reference for the lock-step generator.
    Returns (line numbers, address classes), both ``[resident, n_mem]``.
    """
    ws_lines, hot_lines, warm_lines, p_hot, p_warm = _geometry(
        invocation, resident, n_mem
    )
    rng = _trace_rng(invocation, seed)
    lines = np.empty((resident, n_mem), dtype=np.int64)
    classes = np.empty((resident, n_mem), dtype=np.int8)
    for w in range(resident):
        u = rng.random(n_mem)
        hot = u < p_hot
        warm = ~hot & (u < p_warm)
        cold = ~hot & ~warm
        rand = cold & (rng.random(n_mem) < invocation.spec.memory.random_fraction)
        stream = cold & ~rand
        row = lines[w]
        if hot.any():
            row[hot] = rng.integers(0, hot_lines, size=int(hot.sum()))
        if warm.any():
            row[warm] = hot_lines + rng.integers(0, warm_lines, size=int(warm.sum()))
        if rand.any():
            row[rand] = rng.integers(0, ws_lines, size=int(rand.sum()))
        base = max(1, (w * 7919) % ws_lines)
        row[stream] = (base + np.arange(int(stream.sum()))) % ws_lines
        classes[w] = np.select([hot, warm, rand], [HOT, WARM, RANDOM], STREAM)
    return lines, classes


def lockstep_classes(invocation, seed, resident, n_mem):
    """Address classes of the lock-step generator, re-drawn in its
    documented order: every slot's class uniforms, then every slot's
    random-access uniforms, both shaped ``[resident, n_mem]``."""
    _, _, _, p_hot, p_warm = _geometry(invocation, resident, n_mem)
    rng = _trace_rng(invocation, seed)
    u = rng.random((resident, n_mem))
    rand_u = rng.random((resident, n_mem))
    hot = u < p_hot
    warm = ~hot & (u < p_warm)
    rand = ~hot & ~warm & (rand_u < invocation.spec.memory.random_fraction)
    return np.select([hot, warm, rand], [HOT, WARM, RANDOM], STREAM)


def _trace_lines(trace, line_bytes):
    return np.array([w.addresses for w in trace.warps], dtype=np.int64) // line_bytes


@pytest.fixture(scope="module")
def casio_traces():
    """CASIO at scale 0.001, seed 1: every invocation's lock-step trace."""
    from repro.workloads import load_suite

    sim = GpuSimulator(RTX_2080)
    workloads = load_suite("casio", scale=0.001, seed=1)
    invocations = [w.invocation(i) for w in workloads for i in range(len(w))]
    traces = [sim.tracer.generate(inv, seed=1) for inv in invocations]
    return sim, invocations, traces


class TestLockstepTraceGeneration:
    def test_class_fractions_match_per_warp_reference(self, casio_traces):
        sim, invocations, traces = casio_traces
        # Invocations with the same index draw from the same rng stream
        # whatever their workload, so they are one cluster: per-cluster
        # count differences are independent with mean zero when both
        # generators draw each slot's class with the same probabilities.
        diff = {}
        counts = np.zeros(4)
        for inv, trace in zip(invocations, traces):
            resident, n_mem = len(trace.warps), len(trace.warps[0].addresses)
            new = np.bincount(
                lockstep_classes(inv, 1, resident, n_mem).ravel(), minlength=4
            )
            ref = np.bincount(
                reference_lines(inv, 1, resident, n_mem)[1].ravel(), minlength=4
            )
            diff[inv.index] = diff.get(inv.index, 0) + new - ref
            counts += new
        d = np.array(list(diff.values()), dtype=np.float64)
        assert len(d) > 50 and counts.sum() > 100_000
        assert np.all(np.abs(d.sum(axis=0)) <= 5 * np.sqrt((d**2).sum(axis=0)))
        assert np.all(np.abs(d.sum(axis=0)) / counts.sum() < 0.01)
        assert np.all(counts > 0)

    def test_each_class_lands_in_its_region(self, casio_traces):
        sim, invocations, traces = casio_traces
        line_bytes = sim.config.cache_line_bytes
        for inv, trace in zip(invocations[::7], traces[::7]):
            lines = _trace_lines(trace, line_bytes)
            resident, n_mem = lines.shape
            ws_lines, hot_lines, warm_lines, _, _ = _geometry(inv, resident, n_mem)
            classes = lockstep_classes(inv, 1, resident, n_mem)
            assert np.all(lines[classes == HOT] < hot_lines)
            warm = lines[classes == WARM]
            assert np.all((warm >= hot_lines) & (warm < hot_lines + warm_lines))
            assert np.all((lines >= 0) & (lines < ws_lines))

    def test_streaming_lines_walk_from_each_warps_base(self, casio_traces):
        sim, invocations, traces = casio_traces
        line_bytes = sim.config.cache_line_bytes
        walked = 0
        for inv, trace in zip(invocations, traces):
            lines = _trace_lines(trace, line_bytes)
            resident, n_mem = lines.shape
            ws_lines = _geometry(inv, resident, n_mem)[0]
            stream = lockstep_classes(inv, 1, resident, n_mem) == STREAM
            for w in range(resident):
                got = lines[w][stream[w]]
                base = max(1, (w * 7919) % ws_lines)
                assert np.array_equal(got, (base + np.arange(len(got))) % ws_lines)
                walked += len(got)
        assert walked > 0

    def test_suite_wave_cycles_match_per_warp_reference(self, casio_traces):
        sim, invocations, traces = casio_traces
        line_bytes = sim.config.cache_line_bytes
        reference = []
        for inv, trace in zip(invocations, traces):
            resident, n_mem = len(trace.warps), len(trace.warps[0].addresses)
            lines, _ = reference_lines(inv, 1, resident, n_mem)
            kinds = trace.warps[0].kinds
            reference.append(dataclasses.replace(trace, warps=[
                WarpTrace(kinds=kinds.copy(), addresses=row * line_bytes)
                for row in lines
            ]))
        new, _ = execute_wave_batch(traces, sim.latencies, sim.config)
        old, _ = execute_wave_batch(reference, sim.latencies, sim.config)
        new_total = sum(cycles for cycles, _ in new)
        old_total = sum(cycles for cycles, _ in old)
        assert abs(new_total / old_total - 1.0) < 0.01

    def test_kinds_stream_is_shared_and_read_only(self, casio_traces):
        _, _, traces = casio_traces
        trace = traces[0]
        kinds = trace.warps[0].kinds
        assert all(w.kinds is kinds for w in trace.warps)
        assert not kinds.flags.writeable
        with pytest.raises(ValueError):
            kinds[0] = Op.FP32

    def test_trace_independent_of_generation_context(self):
        """Alone, in reverse lane order, or inside a pooled multi-workload
        simulation: a trace depends only on (invocation, seed, geometry)."""
        from repro.workloads import load_workload

        workloads = [
            load_workload("rodinia", "bfs", scale=0.2, seed=0),
            load_workload("casio", "dlrm", scale=0.001, seed=1),
        ]
        requests = [(workloads[0], None, 4), (workloads[1], [2, 0, 2, 5], 9)]
        lanes = [
            (w, i, seed)
            for w, indices, seed in requests
            for i in (range(len(w)) if indices is None else dict.fromkeys(indices))
        ]

        def alone(w, i, seed):
            return GpuSimulator(RTX_2080).tracer.generate(w.invocation(i), seed=seed)

        reverse_tracer = GpuSimulator(RTX_2080).tracer
        reversed_traces = {
            (w.name, i, seed): reverse_tracer.generate(w.invocation(i), seed=seed)
            for w, i, seed in reversed(lanes)
        }

        pooled = GpuSimulator(RTX_2080, batch_policy=BatchPolicy(min_width=2))
        seen = {}
        generate = pooled.tracer.generate

        def recording(invocation, seed=0):
            trace = generate(invocation, seed=seed)
            seen[(invocation.index, seed)] = trace
            return trace

        pooled.tracer.generate = recording
        pooled.simulate_workloads(requests)
        assert len(seen) == len(lanes)

        for w, i, seed in lanes:
            want = alone(w, i, seed)
            for got in (reversed_traces[(w.name, i, seed)], seen[(i, seed)]):
                assert got.extrapolation == want.extrapolation
                assert got.cache_scale == want.cache_scale
                assert len(got.warps) == len(want.warps)
                for a, b in zip(got.warps, want.warps):
                    assert np.array_equal(a.kinds, b.kinds)
                    assert np.array_equal(a.addresses, b.addresses)
