"""Tests for memoization & incremental re-planning (:mod:`repro.memo`).

The contract under test, in order of importance:

(a) **bit-identity** — dedup, the simulation-result cache and ROOT-tree
    reuse change *nothing*: every kernel result, estimate, sweep point
    and resilient-pipeline outcome equals the unoptimized path exactly,
    including under active fault plans;
(b) **reuse actually happens** — warm paths report cache hits and skip
    simulation/clustering work;
(c) **invalidation** — a changed seed, GPU or torn cache entry is a
    miss, never a stale hit;
(d) the new CLI subcommands (``sweep``/``dse``) run end to end and
    report per-stage hit rates.
"""

import json
import os

import numpy as np
import pytest

from repro.baselines import ProfileStore
from repro.cli import main
from repro.core import StemRootSampler
from repro.core.root import RootConfig, root_split
from repro.errors import SimulationFailure
from repro.experiments import error_bound_sweep as sweep_mod
from repro.experiments.error_bound_sweep import (
    SimGroundTruth,
    run_error_bound_sweep,
)
from repro.experiments.runner import ExperimentConfig
from repro.hardware import RTX_2080, get_preset
from repro.memo import (
    SimResultCache,
    SplitTreeCache,
    collapse_draws,
    expand_unique,
)
from repro.resilience import FaultPlan, sample_resiliently
from repro.resilience.faults import FaultInjector
from repro.sim import GpuSimulator
from repro.workloads import load_workload


def small_workload(scale: float = 0.2):
    return load_workload("rodinia", "bfs", scale=scale, seed=0)


def results_equal(a, b) -> bool:
    """Exact equality of two WorkloadSimResults, field by field."""
    if len(a.kernel_results) != len(b.kernel_results):
        return False
    for ra, rb in zip(a.kernel_results, b.kernel_results):
        if (
            ra.invocation_index != rb.invocation_index
            or ra.cycles != rb.cycles
            or ra.wave_cycles != rb.wave_cycles
            or ra.extrapolation != rb.extrapolation
            or ra.stats.as_dict() != rb.stats.as_dict()
        ):
            return False
    return a.aggregate.as_dict() == b.aggregate.as_dict()


class TestDedupHelpers:
    def test_collapse_expand_roundtrip(self):
        draws = np.array([7, 2, 7, 7, 3, 2, 9])
        ms = collapse_draws(draws)
        assert np.array_equal(ms.unique[ms.inverse], draws)
        assert ms.counts.sum() == len(draws)
        assert ms.num_draws == 7 and ms.num_unique == 4 and ms.collapsed == 3

    def test_expanded_mean_is_bitwise_equal(self):
        rng = np.random.default_rng(4)
        draws = rng.integers(0, 10, size=100)
        values = rng.random(10) * 1e3
        ms = collapse_draws(draws)
        per_draw = float(values[draws].mean())
        expanded = float(expand_unique(values[ms.unique], ms.inverse).mean())
        assert per_draw == expanded

    def test_no_duplicates_is_a_noop(self):
        draws = np.array([3, 1, 4])
        ms = collapse_draws(draws)
        assert ms.collapsed == 0
        assert np.array_equal(np.sort(draws), ms.unique)


class TestPlanDedupEquivalence:
    """Weighted-unique estimates == per-draw estimates for every method."""

    METHODS = ["random", "pka", "sieve", "photon", "stem"]

    def _assert_plan_dedup_equal(self, plan, truth):
        for cluster in plan.clusters:
            drawn = cluster.sampled_indices
            if len(drawn) == 0:
                continue
            ms = collapse_draws(drawn)
            per_draw = cluster.member_count * float(truth[drawn].mean())
            unique_vals = truth[ms.unique]
            expanded = cluster.member_count * float(
                expand_unique(unique_vals, ms.inverse).mean()
            )
            assert per_draw == expanded
        # The totals follow, but check them explicitly anyway.
        assert plan.estimate_total(truth) == sum(
            c.member_count
            * float(
                expand_unique(
                    truth[collapse_draws(c.sampled_indices).unique],
                    collapse_draws(c.sampled_indices).inverse,
                ).mean()
            )
            for c in plan.clusters
            if len(c.sampled_indices)
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods(self, method):
        workload = small_workload()
        config = ExperimentConfig(workload_scale=0.2, epsilon=0.1)
        store = ProfileStore(workload, RTX_2080, seed=3)
        sampler = config.sampler_for(method, workload)
        if hasattr(sampler, "build_plan_from_store"):
            plan = sampler.build_plan_from_store(store, seed=3)
        else:
            plan = sampler.build_plan(store, seed=3)
        self._assert_plan_dedup_equal(plan, store.true_execution_times())

    @pytest.mark.parametrize("replacement", [True, False])
    def test_stem_with_and_without_replacement(self, replacement):
        workload = small_workload()
        store = ProfileStore(workload, RTX_2080, seed=5)
        sampler = StemRootSampler(epsilon=0.1, replacement=replacement)
        plan = sampler.build_plan_from_store(store, seed=5)
        if not replacement:
            for cluster in plan.clusters:
                assert collapse_draws(cluster.sampled_indices).collapsed == 0
        self._assert_plan_dedup_equal(plan, store.true_execution_times())

    def test_under_active_fault_plan(self):
        workload = small_workload()
        fault_plan = FaultPlan.from_spec("seed=3,nan=0.05,inf=0.05")
        store = ProfileStore(
            workload,
            RTX_2080,
            seed=3,
            fault_injector=FaultInjector(fault_plan),
            validation="repair",
        )
        plan = StemRootSampler(epsilon=0.1).build_plan_from_store(store, seed=3)
        # Equality must hold against both the corrupted-then-repaired
        # observed profile and the clean truth.
        self._assert_plan_dedup_equal(plan, store.execution_times())
        self._assert_plan_dedup_equal(plan, store.true_execution_times())


class TestSimulatorDedup:
    DRAWS = [2, 5, 2, 7, 5, 2, 0, 7]

    def test_dedup_matches_per_draw_path(self):
        workload = small_workload()
        a = GpuSimulator(RTX_2080).simulate_workload(
            workload, self.DRAWS, seed=3, dedup=True
        )
        b = GpuSimulator(RTX_2080).simulate_workload(
            workload, self.DRAWS, seed=3, dedup=False
        )
        assert results_equal(a, b)

    def test_full_workload_unchanged(self):
        workload = small_workload(scale=0.1)
        a = GpuSimulator(RTX_2080).simulate_workload(workload, seed=1)
        b = GpuSimulator(RTX_2080).simulate_workload(workload, seed=1, dedup=False)
        assert results_equal(a, b)

    def test_same_fault_raised_either_way(self):
        workload = small_workload()
        plan = FaultPlan.from_spec("seed=11,perm_fail=0.2")
        injector = FaultInjector(plan)
        doomed = [
            i for i in range(len(workload))
            if injector.simulation_decision(i, 1).kind != "ok"
        ]
        assert doomed, "fault plan never fires at this rate"
        draws = [doomed[0], doomed[0], 1 - (doomed[0] & 1)]
        errors = []
        for dedup in (True, False):
            sim = GpuSimulator(RTX_2080, fault_injector=FaultInjector(plan))
            with pytest.raises(SimulationFailure) as err:
                sim.simulate_workload(workload, draws, seed=3, dedup=dedup)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_clean_faulty_run_matches_no_injector(self):
        workload = small_workload()
        plan = FaultPlan.from_spec("seed=11,perm_fail=0.2")
        injector = FaultInjector(plan)
        safe = [
            i for i in range(len(workload))
            if injector.simulation_decision(i, 1).kind == "ok"
        ][:3]
        draws = safe + safe[:2]
        a = GpuSimulator(
            RTX_2080, fault_injector=FaultInjector(plan)
        ).simulate_workload(workload, draws, seed=3)
        b = GpuSimulator(RTX_2080).simulate_workload(
            workload, draws, seed=3, dedup=False
        )
        assert results_equal(a, b)


class TestSimResultCache:
    def test_cold_then_warm_bit_identical(self, tmp_path):
        workload = small_workload()
        cache = SimResultCache(str(tmp_path / "sim"))
        baseline = GpuSimulator(RTX_2080).simulate_workload(workload, seed=2)
        cold = GpuSimulator(RTX_2080, sim_cache=cache).simulate_workload(
            workload, seed=2
        )
        assert cache.hits == 0 and cache.misses == len(workload)
        warm = GpuSimulator(RTX_2080, sim_cache=cache).simulate_workload(
            workload, seed=2
        )
        assert cache.hits == len(workload)
        assert results_equal(baseline, cold)
        assert results_equal(baseline, warm)

    def test_disk_reuse_across_processes(self, tmp_path):
        """A fresh cache object (fresh memory layer) hits via disk."""
        workload = small_workload()
        root = str(tmp_path / "sim")
        first = GpuSimulator(
            RTX_2080, sim_cache=SimResultCache(root)
        ).simulate_workload(workload, seed=2)
        reread = SimResultCache(root)
        second = GpuSimulator(RTX_2080, sim_cache=reread).simulate_workload(
            workload, seed=2
        )
        assert reread.hits == len(workload) and reread.misses == 0
        assert results_equal(first, second)

    def test_seed_and_gpu_invalidate(self, tmp_path):
        workload = small_workload()
        cache = SimResultCache(str(tmp_path / "sim"))
        GpuSimulator(RTX_2080, sim_cache=cache).simulate_workload(workload, seed=2)
        GpuSimulator(RTX_2080, sim_cache=cache).simulate_workload(workload, seed=3)
        assert cache.hits == 0  # different trace seed = different context
        other_gpu = get_preset("h100")
        result = GpuSimulator(other_gpu, sim_cache=cache).simulate_workload(
            workload, seed=2
        )
        assert cache.hits == 0
        assert results_equal(
            result, GpuSimulator(other_gpu).simulate_workload(workload, seed=2)
        )

    def test_torn_entry_is_a_miss(self, tmp_path):
        workload = small_workload()
        root = str(tmp_path / "sim")
        cache = SimResultCache(root)
        GpuSimulator(RTX_2080, sim_cache=cache).simulate_workload(workload, seed=2)
        entries = [
            os.path.join(dirpath, f)
            for dirpath, _dirs, files in os.walk(root)
            for f in files
            if f.endswith(".npz")
        ]
        assert entries
        with open(entries[0], "wb") as fh:
            fh.write(b"not an npz file")
        fresh = SimResultCache(root)
        result = GpuSimulator(RTX_2080, sim_cache=fresh).simulate_workload(
            workload, seed=2
        )
        assert fresh.misses == len(workload)
        assert results_equal(
            result, GpuSimulator(RTX_2080).simulate_workload(workload, seed=2)
        )

    def test_dedup_plus_cache_on_repeated_draws(self, tmp_path):
        workload = small_workload()
        cache = SimResultCache(str(tmp_path / "sim"))
        draws = [2, 5, 2, 7, 5, 2]
        baseline = GpuSimulator(RTX_2080).simulate_workload(
            workload, draws, seed=3, dedup=False
        )
        sim = GpuSimulator(RTX_2080, sim_cache=cache)
        cold = sim.simulate_workload(workload, draws, seed=3)
        assert cache.misses == 3  # unique invocations only
        warm = sim.simulate_workload(workload, draws, seed=3)
        assert cache.hits == 3
        assert results_equal(baseline, cold)
        assert results_equal(baseline, warm)


class TestSplitTreeReuse:
    def trimodal(self, n=240):
        rng = np.random.default_rng(0)
        return np.concatenate([
            rng.normal(10, 0.5, n // 3),
            rng.normal(100, 4.0, n // 3),
            rng.normal(1000, 30.0, n // 3),
        ])

    @staticmethod
    def leaves_equal(a, b) -> bool:
        if len(a) != len(b):
            return False
        for la, lb in zip(a, b):
            if not np.array_equal(la.indices, lb.indices):
                return False
            if la.stats != lb.stats or la.depth != lb.depth:
                return False
        return True

    def test_cached_tree_equals_from_scratch(self):
        times = self.trimodal()
        cache = SplitTreeCache()
        for epsilon in (0.03, 0.05, 0.25):
            config = RootConfig(epsilon=epsilon)
            cached = root_split(
                times, config=config, rng=np.random.default_rng(7),
                tree_cache=cache,
            )
            scratch = root_split(
                times, config=config, rng=np.random.default_rng(7)
            )
            assert self.leaves_equal(cached, scratch)
        assert cache.misses == 1 and cache.hits == 2

    def test_lazy_expansion_order_is_irrelevant(self):
        """A tree first walked at a loose bound expands deeper splits
        later — those late expansions must match a from-scratch run."""
        times = self.trimodal()
        cache = SplitTreeCache()
        # Loose bound first: accepts few splits, expands little.
        root_split(
            times, config=RootConfig(epsilon=0.5),
            rng=np.random.default_rng(7), tree_cache=cache,
        )
        tight_cached = root_split(
            times, config=RootConfig(epsilon=0.02),
            rng=np.random.default_rng(7), tree_cache=cache,
        )
        tight_scratch = root_split(
            times, config=RootConfig(epsilon=0.02),
            rng=np.random.default_rng(7),
        )
        assert self.leaves_equal(tight_cached, tight_scratch)

    def test_structural_knobs_key_the_cache(self):
        times = self.trimodal()
        cache = SplitTreeCache()
        root_split(times, config=RootConfig(min_cluster_size=8),
                   rng=np.random.default_rng(7), tree_cache=cache)
        root_split(times, config=RootConfig(min_cluster_size=16),
                   rng=np.random.default_rng(7), tree_cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_eviction(self):
        cache = SplitTreeCache(max_entries=2)
        rng = np.random.default_rng(0)
        for i in range(4):
            times = rng.random(32) + i
            root_split(times, rng=np.random.default_rng(i), tree_cache=cache)
        assert len(cache) == 2

    def test_sampler_plans_identical_with_shared_tree_cache(self):
        workload = small_workload()
        store = ProfileStore(workload, RTX_2080, seed=4)
        cache = SplitTreeCache()
        for epsilon in (0.03, 0.1, 0.25):
            cached_plan = StemRootSampler(
                epsilon=epsilon, tree_cache=cache
            ).build_plan_from_store(store, seed=4)
            plain_plan = StemRootSampler(epsilon=epsilon).build_plan_from_store(
                store, seed=4
            )
            assert cached_plan.to_dict() == plain_plan.to_dict()
        assert cache.hits > 0


class TestSweepMemo:
    EPSILONS = (0.05, 0.25)

    def sweep_config(self):
        return ExperimentConfig(repetitions=2, workload_scale=0.01)

    def test_points_identical_with_and_without_caches(self, tmp_path):
        plain = run_error_bound_sweep(
            self.EPSILONS, config=self.sweep_config(), suite="rodinia",
            tree_cache=False,
        )
        tree_cache = SplitTreeCache()
        sim_cache = SimResultCache(str(tmp_path / "sim"))
        memo = run_error_bound_sweep(
            self.EPSILONS, config=self.sweep_config(), suite="rodinia",
            tree_cache=tree_cache, sim_cache=sim_cache, ground_truth="profile",
        )
        assert plain == memo
        assert tree_cache.hits > 0

    def test_sim_truth_cold_vs_warm(self, tmp_path):
        sim_cache = SimResultCache(str(tmp_path / "sim"))
        cold = run_error_bound_sweep(
            self.EPSILONS, config=self.sweep_config(), suite="rodinia",
            sim_cache=sim_cache, ground_truth="sim",
        )
        assert sim_cache.misses > 0
        cold_misses = sim_cache.misses
        warm = run_error_bound_sweep(
            self.EPSILONS, config=self.sweep_config(), suite="rodinia",
            sim_cache=sim_cache, ground_truth="sim",
        )
        assert cold == warm
        assert sim_cache.hits > 0
        assert sim_cache.misses == cold_misses  # warm run misses nothing

    def test_sim_truth_matches_uncached_sim_truth(self, tmp_path):
        uncached = run_error_bound_sweep(
            self.EPSILONS, config=self.sweep_config(), suite="rodinia",
            ground_truth="sim", tree_cache=False,
        )
        cached = run_error_bound_sweep(
            self.EPSILONS, config=self.sweep_config(), suite="rodinia",
            ground_truth="sim",
            sim_cache=SimResultCache(str(tmp_path / "sim")),
        )
        assert uncached == cached

    def test_sim_truth_simulates_each_cell_once(self):
        """The sim truth is epsilon-independent: with no sim cache, every
        (workload, repetition) cell is simulated once, not once per point."""
        from repro import obs
        from repro.workloads import load_suite

        config = self.sweep_config()
        with obs.scoped() as session:
            sequential = run_error_bound_sweep(
                self.EPSILONS, config=config, suite="rodinia", ground_truth="sim",
            )
            simulated = sum(
                span.attrs.get("kernels_simulated", 0)
                for span in session.tracer.finished()
                if span.name == "sim.workload"
            )
        launches = sum(
            len(w)
            for w in load_suite(
                "rodinia", scale=config.workload_scale, seed=config.base_seed
            )
        )
        assert simulated == launches * config.repetitions
        parallel = run_error_bound_sweep(
            self.EPSILONS, config=config, suite="rodinia", ground_truth="sim", jobs=2,
        )
        assert parallel == sequential

    def test_replace_preserves_every_config_field(self, monkeypatch):
        from types import SimpleNamespace

        captured = []

        def fake_run_suite(suite, config=None, **kwargs):
            captured.append(config)
            return [
                SimpleNamespace(
                    workload="w", speedup=10.0, error_percent=1.0, num_samples=5
                )
            ]

        monkeypatch.setattr(sweep_mod, "run_suite", fake_run_suite)
        fault_plan = FaultPlan.from_spec("seed=1,nan=0.1")
        base = ExperimentConfig(
            repetitions=7,
            base_seed=13,
            workload_scale=0.3,
            fault_plan=fault_plan,
            validation="repair",
        )
        run_error_bound_sweep((0.03, 0.2), config=base, suite="rodinia")
        assert [cfg.epsilon for cfg in captured] == [0.03, 0.2]
        for cfg in captured:
            assert cfg.repetitions == 7
            assert cfg.base_seed == 13
            assert cfg.workload_scale == 0.3
            assert cfg.fault_plan is fault_plan
            assert cfg.validation == "repair"
            assert cfg.tree_cache is not None  # auto-created, shared

    def test_invalid_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            run_error_bound_sweep(
                (0.05,), config=self.sweep_config(), ground_truth="nope"
            )

    def test_sim_ground_truth_is_picklable(self, tmp_path):
        import pickle

        truth = SimGroundTruth(sim_cache_root=str(tmp_path / "sim"))
        assert pickle.loads(pickle.dumps(truth)) == truth

    def test_truth_table_matches_per_cell_truth(self):
        import pickle

        workload = small_workload()
        truth = SimGroundTruth()
        table = pickle.loads(pickle.dumps(truth.table([workload], [1, 2], RTX_2080)))
        for seed in (1, 2):
            store = ProfileStore(workload, RTX_2080, seed=seed)
            assert np.array_equal(table(store, seed), truth(store, seed))
            assert np.array_equal(
                table(store, seed),
                GpuSimulator(RTX_2080).cycle_counts(workload, seed=seed),
            )


class TestResilienceMemo:
    @staticmethod
    def outcome_key(res):
        return (
            res.plan.to_dict(),
            res.result.estimated_total,
            res.result.error_percent,
            res.achieved_epsilon,
            res.quarantined,
            res.redrawn,
            res.retries,
            res.rounds,
        )

    def test_faulty_pipeline_bit_identical_with_cache(self, tmp_path):
        workload = small_workload()
        sampler = StemRootSampler(epsilon=0.1)
        fault_plan = FaultPlan.from_spec("seed=7,sim_fail=0.1,perm_fail=0.02")

        def run(sim_cache=None):
            store = ProfileStore(workload, RTX_2080, seed=6)
            return sample_resiliently(
                store, sampler, fault_plan=fault_plan, seed=6,
                sim_cache=sim_cache,
            )

        plain = run()
        cache = SimResultCache(str(tmp_path / "sim"))
        cold = run(sim_cache=cache)
        assert cache.stores > 0
        warm = run(sim_cache=cache)
        assert cache.hits > 0
        assert self.outcome_key(plain) == self.outcome_key(cold)
        assert self.outcome_key(plain) == self.outcome_key(warm)

    def test_clean_pipeline_bit_identical_with_cache(self, tmp_path):
        workload = small_workload()
        sampler = StemRootSampler(epsilon=0.1)
        store = ProfileStore(workload, RTX_2080, seed=6)
        plain = sample_resiliently(store, sampler, seed=6)
        cache = SimResultCache(str(tmp_path / "sim"))
        cached = sample_resiliently(
            ProfileStore(workload, RTX_2080, seed=6), sampler, seed=6,
            sim_cache=cache,
        )
        assert self.outcome_key(plain) == self.outcome_key(cached)


class TestMemoCli:
    def test_sweep_command_writes_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        status = main([
            "sweep", "rodinia", "--epsilons", "0.05,0.25",
            "--repetitions", "1", "--scale", "0.01",
            "--ground-truth", "sim",
            "--sim-cache", str(tmp_path / "sim"),
            "--out", str(out),
        ])
        assert status == 0
        captured = capsys.readouterr()
        assert "error-bound sweep" in captured.out
        assert "memo:" in captured.err
        payload = json.loads(out.read_text())
        assert [p["epsilon"] for p in payload["points"]] == [0.05, 0.25]
        # The sim truth is computed once, before the eps loop: a cold
        # sweep simulates every invocation once and re-reads none.
        assert payload["memo"]["sim_cache"]["misses"] > 0
        assert payload["memo"]["sim_cache"]["hits"] == 0
        assert payload["memo"]["tree_cache"]["hits"] > 0

    def test_sweep_twice_identical_points_and_warm_hits(self, tmp_path):
        args = [
            "sweep", "rodinia", "--epsilons", "0.05",
            "--repetitions", "1", "--scale", "0.01",
            "--ground-truth", "sim",
            "--sim-cache", str(tmp_path / "sim"),
        ]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["points"] == b["points"]
        assert b["memo"]["sim_cache"]["hit_rate"] == 1.0

    def test_dse_command_writes_report(self, tmp_path, capsys):
        out = tmp_path / "dse.json"
        status = main([
            "dse", "--workloads", "bfs", "--methods", "stem",
            "--repetitions", "1", "--max-invocations", "16",
            "--sim-cache", str(tmp_path / "sim"),
            "--out", str(out),
        ])
        assert status == 0
        assert "DSE error by variant" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["table"]
        assert payload["memo"]["sim_cache"]["misses"] > 0

    def test_dse_rejects_unknown_workload(self, capsys):
        assert main(["dse", "--workloads", "not-a-workload"]) == 2
        assert "unknown DSE workloads" in capsys.readouterr().err
