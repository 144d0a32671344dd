"""Parity suite for the batched structure-of-arrays wave engine.

The contract: :func:`repro.sim.batch.execute_wave_batch` and the scalar
event-driven loop are the *same simulation* — bit-identical cycles,
stalls and event counters for every trace, under every composition the
simulator supports (dedup on/off, warm and cold result caches, fault
plans, degenerate batch shapes).  The scalar path stays available as the
oracle, so every test here compares the two directly.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import SimulationFailure
from repro.hardware import RTX_2080
from repro.memo import SimResultCache
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultInjector
from repro.sim import BatchPolicy, GpuSimulator, execute_wave_batch, noise_factors
from repro.seeding import SPLITMIX64_GAMMA, splitmix64
from repro.sim.noise import standard_normals
from repro.workloads import load_workload

from .test_memo import results_equal

#: Forces batching for the tiny test workloads (production floor is 16).
EAGER = BatchPolicy(min_width=2)
SCALAR = BatchPolicy(enabled=False)


def small_workload(scale: float = 0.2):
    return load_workload("rodinia", "bfs", scale=scale, seed=0)


def make_traces(sim, workload, seed=0, n=None):
    count = len(workload) if n is None else min(n, len(workload))
    return [
        sim.tracer.generate(workload.invocation(i), seed=seed) for i in range(count)
    ]


def assert_engine_parity(traces, sim, policy=EAGER):
    batched, report = execute_wave_batch(
        traces, sim.latencies, sim.config, policy
    )
    assert report.batched_lanes + report.scalar_lanes == len(traces)
    assert 0.0 < report.fill_ratio <= 1.0
    for i, trace in enumerate(traces):
        cycles, stats = sim._execute_trace(trace)
        bcycles, bstats = batched[i]
        assert bcycles == cycles, f"lane {i}: cycles differ"
        assert bstats.as_dict() == stats.as_dict(), f"lane {i}: stats differ"
    return report


class TestEngineParity:
    def test_bfs_traces_bit_identical(self):
        sim = GpuSimulator(RTX_2080)
        report = assert_engine_parity(make_traces(sim, small_workload()), sim)
        assert report.batched_lanes > 0

    def test_ragged_lengths(self):
        """Traces of very different lengths share one batch correctly."""
        sim = GpuSimulator(RTX_2080)
        short = make_traces(sim, load_workload("rodinia", "nw", scale=0.1, seed=0))
        long = make_traces(sim, load_workload("rodinia", "hotspot", scale=0.1, seed=0))
        assert_engine_parity(short + long, sim)

    def test_width_one_falls_back_to_scalar(self):
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload(), n=1)
        report = assert_engine_parity(traces, sim)
        assert report.scalar_lanes == 1 and report.batched_lanes == 0

    def test_empty_trace_list(self):
        sim = GpuSimulator(RTX_2080)
        results, report = execute_wave_batch([], sim.latencies, sim.config, EAGER)
        assert results == [] and report.chunks == 0

    def test_disabled_policy_is_all_scalar(self):
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload(), n=4)
        report = assert_engine_parity(traces, sim, policy=SCALAR)
        assert report.batched_lanes == 0 and report.scalar_lanes == len(traces)

    def test_narrow_chunks_match_wide(self):
        """Chunk boundaries are pure memory policy, never results."""
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload())
        wide, _ = execute_wave_batch(traces, sim.latencies, sim.config, EAGER)
        narrow, report = execute_wave_batch(
            traces, sim.latencies, sim.config, BatchPolicy(min_width=2, max_width=3)
        )
        assert report.chunks > 1
        for (wc, ws), (nc, ns) in zip(wide, narrow):
            assert wc == nc and ws.as_dict() == ns.as_dict()


class TestWorkloadParity:
    """simulate_workload: batched default == scalar path, everywhere."""

    def _pair(self, **kwargs):
        batched = GpuSimulator(RTX_2080, batch_policy=EAGER, **kwargs)
        scalar = GpuSimulator(RTX_2080, batch_policy=SCALAR, **kwargs)
        return batched, scalar

    def test_dedup_on_and_off(self):
        workload = small_workload()
        indices = [0, 3, 3, 1, 0, 2, 3]
        batched, scalar = self._pair()
        for dedup in (True, False):
            a = batched.simulate_workload(workload, indices, seed=5, dedup=dedup)
            b = scalar.simulate_workload(workload, indices, seed=5, dedup=dedup)
            assert results_equal(a, b)

    def test_full_workload(self):
        workload = small_workload()
        batched, scalar = self._pair()
        assert results_equal(
            batched.simulate_workload(workload, seed=1),
            scalar.simulate_workload(workload, seed=1),
        )

    def test_empty_index_list(self):
        workload = small_workload()
        batched, scalar = self._pair()
        a = batched.simulate_workload(workload, [], seed=1)
        b = scalar.simulate_workload(workload, [], seed=1)
        assert results_equal(a, b) and a.kernel_results == []

    def test_under_fault_plan_results(self):
        """A plan that dooms nothing: identical results with the injector on."""
        plan = FaultPlan(sim_fail_rate=1e-9, seed=77)
        workload = small_workload()
        a = GpuSimulator(
            RTX_2080, batch_policy=EAGER, fault_injector=FaultInjector(plan)
        ).simulate_workload(workload, seed=2)
        b = GpuSimulator(
            RTX_2080, batch_policy=SCALAR, fault_injector=FaultInjector(plan)
        ).simulate_workload(workload, seed=2)
        assert results_equal(a, b)

    def test_under_fault_plan_failures(self):
        """A plan that dooms an index: both paths raise the same failure."""
        plan = FaultPlan(sim_perm_fail_rate=0.3, seed=9)
        workload = small_workload()
        batched, scalar = self._pair()
        batched.fault_injector = FaultInjector(plan)
        scalar.fault_injector = FaultInjector(plan)
        caught = []
        for sim in (batched, scalar):
            try:
                sim.simulate_workload(workload, seed=2)
                caught.append(None)
            except SimulationFailure as exc:
                caught.append(str(exc))
        assert caught[0] == caught[1] is not None

    def test_sim_cache_cold_then_warm(self, tmp_path):
        workload = small_workload()
        cache = SimResultCache(str(tmp_path / "sim"))
        scalar_ref = GpuSimulator(RTX_2080, batch_policy=SCALAR).simulate_workload(
            workload, seed=3
        )
        cold = GpuSimulator(
            RTX_2080, batch_policy=EAGER, sim_cache=cache
        ).simulate_workload(workload, seed=3)
        warm = GpuSimulator(
            RTX_2080, batch_policy=EAGER, sim_cache=cache
        ).simulate_workload(workload, seed=3)
        assert results_equal(cold, scalar_ref)
        assert results_equal(warm, scalar_ref)

    def test_sim_cache_cross_engine(self, tmp_path):
        """Batched-written entries hit for scalar readers and vice versa:
        the batch policy must not leak into the cache key."""
        workload = small_workload()
        root = str(tmp_path / "sim")
        batched_first = GpuSimulator(
            RTX_2080, batch_policy=EAGER, sim_cache=SimResultCache(root)
        ).simulate_workload(workload, seed=4)
        reread = SimResultCache(root)
        scalar_warm = GpuSimulator(
            RTX_2080, batch_policy=SCALAR, sim_cache=reread
        ).simulate_workload(workload, seed=4)
        assert results_equal(batched_first, scalar_warm)
        assert reread.stats()["hits"] > 0

    def test_memo_identity_excludes_batch_policy(self):
        a = GpuSimulator(RTX_2080, batch_policy=EAGER)
        b = GpuSimulator(RTX_2080, batch_policy=SCALAR)
        assert a.memo_identity() == b.memo_identity()
        assert BatchPolicy().memo_identity() == ""


def pooled_requests():
    """Three suite workloads with different cache scales and mixed seeds."""
    return [
        (load_workload("rodinia", "bfs", scale=0.2, seed=0), None, 1),
        (load_workload("rodinia", "hotspot", scale=0.1, seed=0), [0, 2, 2, 5, 1], 7),
        (load_workload("casio", "dlrm", scale=0.001, seed=0), range(12), 3),
    ]


def assert_pooled_parity(sim, requests, dedup=True):
    """simulate_workloads == per-request simulate_workload on the oracle."""
    pooled = sim.simulate_workloads(requests, dedup=dedup)
    oracle = GpuSimulator(RTX_2080, batch_policy=SCALAR)
    assert len(pooled) == len(requests)
    for (workload, indices, seed), result in zip(requests, pooled):
        expected = oracle.simulate_workload(workload, indices, seed=seed, dedup=dedup)
        assert results_equal(result, expected), f"{workload.name} seed={seed}"
    return pooled


class TestPooledParity:
    """simulate_workloads pools lanes across requests, never results."""

    def test_mixed_workloads_and_seeds(self):
        requests = pooled_requests()
        sim = GpuSimulator(RTX_2080, batch_policy=EAGER)
        scales = {
            sim.tracer.generate(w.invocation(0), seed=s).cache_scale
            for w, _, s in requests
        }
        assert len(scales) == len(requests)
        for dedup in (True, False):
            assert_pooled_parity(sim, requests, dedup=dedup)

    def test_partially_warm_cache(self, tmp_path):
        requests = pooled_requests()
        cache = SimResultCache(str(tmp_path / "sim"))
        sim = GpuSimulator(RTX_2080, batch_policy=EAGER, sim_cache=cache)
        # Warm the whole first request and part of the second.
        sim.simulate_workload(requests[0][0], seed=requests[0][2])
        sim.simulate_workload(requests[1][0], [0, 5], seed=requests[1][2])
        hits, misses = cache.hits, cache.misses
        assert_pooled_parity(sim, requests)
        assert cache.hits > hits and cache.misses > misses
        # Every request is now stored under its own entry.
        warm = GpuSimulator(RTX_2080, sim_cache=SimResultCache(cache.root))
        assert_pooled_parity(warm, requests)
        assert warm.sim_cache.misses == 0

    def test_duplicate_indices_and_repeated_requests(self):
        workload = small_workload()
        requests = [(workload, [3, 3, 1, 3], 1), (workload, [3, 3, 1, 3], 1),
                    (workload, [1, 0, 1], 2)]
        assert_pooled_parity(GpuSimulator(RTX_2080, batch_policy=EAGER), requests)

    def test_request_below_min_width(self):
        """A tiny request rides in the pool; an all-tiny pool runs scalar."""
        workload = small_workload()
        policy = BatchPolicy(min_width=8)
        sim = GpuSimulator(RTX_2080, batch_policy=policy)
        assert_pooled_parity(sim, [(workload, [4], 2), (workload, range(10), 5)])
        traces = make_traces(sim, workload, n=5)
        _, report = execute_wave_batch(traces, sim.latencies, sim.config, policy)
        assert report.batched_lanes == 0 and report.scalar_lanes == 5
        assert_pooled_parity(sim, [(workload, [4], 2), (workload, [0, 1], 5)])

    def test_chunk_boundary_inside_a_workload(self):
        requests = pooled_requests()
        narrow = BatchPolicy(min_width=2, max_width=3)
        sim = GpuSimulator(RTX_2080, batch_policy=narrow)
        assert_pooled_parity(sim, requests)
        lanes = len(requests[0][0])
        traces = make_traces(sim, requests[0][0], seed=requests[0][2])
        _, report = execute_wave_batch(traces, sim.latencies, sim.config, narrow)
        assert report.chunks == -(-lanes // 3)


class TestCompactLayout:
    def test_line_numbers_beyond_int32_fall_back_to_int64(self):
        from repro.sim.batch import _Chunk, _Lane

        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload(), n=6)
        line_bytes = sim.config.cache_line_bytes
        for warp in traces[2].warps:
            warp.addresses = warp.addresses + (2**33) * line_bytes
        def lanes():
            return [_Lane(t, sim.config, (1, 1), 0) for t in traces]

        assert [lane.lines.dtype for lane in lanes()].count(np.int64) == 1
        assert _Chunk(lanes(), sim.latencies, sim.config).lines.dtype == np.int64
        assert _Chunk(lanes()[:2], sim.latencies, sim.config).lines.dtype == np.int32
        assert_engine_parity(traces, sim)


class TestCacheKeyLint:
    """`repro lint` pins BatchPolicy's constant memo_identity()."""

    def test_every_batch_knob_is_declared_exempt(self):
        """The pyproject cache-key spec must exempt each BatchPolicy
        field explicitly: a new knob added without an exemption (or a
        key change) fails repo lint — and this set comparison — so batch
        width can never silently enter the simulation cache key."""
        import dataclasses
        import os

        from repro.lint import load_config, run_lint

        repo_config = os.path.join(
            os.path.dirname(__file__), "..", "pyproject.toml"
        )
        config = load_config(repo_config)
        specs = [s for s in config.cache_keys if s.cls == "BatchPolicy"]
        assert len(specs) == 1
        spec = specs[0]
        assert spec.key == "memo_identity"
        field_names = {f.name for f in dataclasses.fields(BatchPolicy)}
        assert set(spec.exempt) == field_names
        result = run_lint(config)
        assert not [
            f for f in result.findings if "BatchPolicy" in f.message
        ], [f.format_text() for f in result.findings]


class TestSeedDomain:
    """Every Python int is a seed, on every path (taken mod 2**64)."""

    @pytest.mark.parametrize("seed", [-1, 0, 7, 2**64 + 5])
    def test_batch_equals_scalar_loop(self, seed):
        workload = small_workload()
        indices = [0, 3, 3, 1, 2, 5]
        sim = GpuSimulator(RTX_2080, batch_policy=EAGER)
        batched = sim.simulate_workload(workload, indices, seed=seed)
        scalar = [sim.simulate_invocation(workload, i, seed=seed) for i in indices]
        assert len(batched.kernel_results) == len(scalar)
        for a, b in zip(batched.kernel_results, scalar):
            assert a.invocation_index == b.invocation_index
            assert a.cycles == b.cycles
            assert a.wave_cycles == b.wave_cycles
            assert a.extrapolation == b.extrapolation
            assert a.stats.as_dict() == b.stats.as_dict()


#: 200k draws: ten seeds x 20k consecutive indices.
_SEEDS = range(10)
_PER_SEED = 20_000


def _z_by_seed():
    return np.stack([standard_normals(seed, range(_PER_SEED)) for seed in _SEEDS])


class TestNoiseFactors:
    """Distribution-level checks of the counter-based noise draw."""

    def test_zero_noise_is_ones(self):
        out = noise_factors(3, [0, 1, 2], 0.0)
        assert np.array_equal(out, np.ones(3))

    def test_empty(self):
        assert noise_factors(3, [], 0.02).shape == (0,)

    def test_standard_normal(self):
        from scipy import stats

        z = _z_by_seed().ravel()
        n = z.size
        assert stats.kstest(z, "norm").pvalue > 1e-3
        assert abs(z.mean()) < 5 / np.sqrt(n)
        assert abs(z.std() - 1.0) < 5 / np.sqrt(2 * n)

    def test_factor_mean_one_and_log_std_noise(self):
        noise = 0.02
        factors = np.concatenate(
            [noise_factors(seed, range(_PER_SEED), noise) for seed in _SEEDS]
        )
        n = factors.size
        assert abs(factors.mean() - 1.0) < 5 * noise / np.sqrt(n)
        assert abs(np.log(factors).std() / noise - 1.0) < 5 / np.sqrt(2 * n)

    def test_adjacent_indices_and_seeds_uncorrelated(self):
        z = _z_by_seed()
        bound = 5 / np.sqrt(_PER_SEED)
        for row in z:
            assert abs(np.corrcoef(row[:-1], row[1:])[0, 1]) < bound
        for a, b in zip(z[:-1], z[1:]):
            assert abs(np.corrcoef(a, b)[0, 1]) < bound
        # Seeds equal mod 2**32 were one stream under a 32-bit key.
        far = standard_normals(2**32, range(_PER_SEED))
        assert abs(np.corrcoef(z[0], far)[0, 1]) < bound

    def test_factor_alone_equals_factor_in_array(self):
        for seed in (0, 7, -1):
            long = noise_factors(seed, range(1037), 0.02)
            for i in (0, 1, 7, 8, 15, 16, 511, 1036):
                assert noise_factors(seed, [i], 0.02)[0] == long[i]
            for start, stop in ((3, 20), (100, 133), (1000, 1037)):
                part = noise_factors(seed, range(start, stop), 0.02)
                assert np.array_equal(part, long[start:stop])

    def test_fresh_process_gives_same_bits(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.sim.noise import noise_factors; "
            "print(noise_factors(123456789, range(500), 0.02).tobytes().hex())"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        assert out == noise_factors(123456789, range(500), 0.02).tobytes().hex()

    def test_full_64_bit_key(self):
        # (seed * 0x9E3779B9 + index) & 0xFFFFFFFF maps both to key 0x9E3779B9.
        assert standard_normals(1, [0])[0] != standard_normals(0, [0x9E3779B9])[0]
        assert standard_normals(-1, [0])[0] == standard_normals(2**64 - 1, [0])[0]
        assert standard_normals(2**64 + 5, [3])[0] == standard_normals(5, [3])[0]

    def test_golden_values(self):
        # SplitMix64 reference vector: first output of the seed-0 stream.
        assert splitmix64(SPLITMIX64_GAMMA) == 0xE220A8397B1DCDAF
        words = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        assert splitmix64(words).tolist() == [
            splitmix64(0), splitmix64(1), splitmix64(2**64 - 1)
        ] == [0, 6238072747940578789, 13029008266876403067]
        # Rounding may differ across libm builds; the hash may not.
        golden = {
            (0, 0): (-0.452757740217458, 0.9907875423165258),
            (0, 1): (2.650605812079669, 1.054231553524335),
            (7, 10**6): (-0.24775125819505256, 0.9948582391758627),
            (2**64 + 5, 3): (0.011090324786997504, 1.0000218067335034),
        }
        for (seed, index), (z, factor) in golden.items():
            assert standard_normals(seed, [index])[0] == pytest.approx(z, rel=1e-12)
            assert noise_factors(seed, [index], 0.02)[0] == pytest.approx(
                factor, rel=1e-12
            )


class TestObservability:
    def test_batch_metrics_emitted(self):
        from repro import obs

        workload = small_workload()
        with obs.scoped() as session:
            GpuSimulator(RTX_2080, batch_policy=EAGER).simulate_workload(
                workload, seed=1
            )
            snapshot = session.metrics.snapshot()
        counters = snapshot.get("counters", {})
        assert counters.get("sim.batch.calls", 0) >= 1
        assert counters.get("sim.batch.lanes", 0) > 0
