"""Error-bound sensitivity sweep (Figure 11).

Varies STEM's error bound epsilon over the CASIO suite at a fixed 95%
confidence level and records the speedup/error tradeoff.  The paper's
reference points: eps=3% gave 0.18% error at 76.46x speedup; eps=25% gave
2.00% error at 228.53x.

Memoization: every epsilon point re-profiles and re-clusters the *same*
(workload, repetition) cells — only the acceptance test and sample
allocation actually depend on epsilon.  Sequential sweeps therefore
share one :class:`~repro.memo.SplitTreeCache` across points
automatically (clustering each (workload, seed) once).  The simulator
truth (``ground_truth="sim"``) does not depend on epsilon at all: it is
computed once per cell before the first point — for the cycle tier as
one pooled :meth:`~repro.sim.GpuSimulator.simulate_workloads` call over
every cell — and every point is scored against that table.
``sim_cache`` additionally reuses raw simulation results across runs and
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.metrics import harmonic_mean
from ..memo import SimResultCache, SplitTreeCache
from ..workloads import load_suite
from .runner import ExperimentConfig, repetition_seed, run_suite

__all__ = [
    "SweepPoint",
    "SimGroundTruth",
    "TruthTable",
    "run_error_bound_sweep",
    "PAPER_FIGURE11",
    "DEFAULT_EPSILONS",
]

DEFAULT_EPSILONS = (0.03, 0.05, 0.10, 0.25)

#: Paper reference points: {epsilon: (speedup, error%)}.
PAPER_FIGURE11 = {0.03: (76.46, 0.18), 0.25: (228.53, 2.00)}

#: Per-process registry so every scorer (and re-run) sharing a cache root
#: also shares one in-memory layer and one set of hit/miss counters.
_SIM_CACHES: Dict[str, SimResultCache] = {}


def _sim_cache_for(root: str) -> SimResultCache:
    cache = _SIM_CACHES.get(root)
    if cache is None:
        cache = SimResultCache(root)
        # Result-neutral: memoizes the *handle* to a content-addressed
        # store keyed only by its root path; hits/misses change timing,
        # never any returned number.
        _SIM_CACHES[root] = cache  # repro-lint: disable=pool-safety
    return cache


@dataclass(frozen=True)
class SimGroundTruth:
    """Score plans against the cycle simulator instead of the profile.

    A picklable ``ground_truth`` hook for :func:`run_suite`: the truth
    becomes ``GpuSimulator.cycle_counts`` on the store's GPU at the
    repetition seed.  :meth:`table` derives many cells at once (the
    sweep's path).  With ``sim_cache_root`` set, raw per-invocation
    results are cached on disk — every re-run reuses the same
    full-workload simulation instead of repeating it.

    ``fidelity`` swaps the truth tier: ``"cycle"`` (default, the
    bit-identical legacy path) or ``"analytical"``/``"hybrid"`` screened
    truth from :func:`~repro.core.fidelity.fidelity_cycle_counts` with
    the given probe/escalation knobs.  The callable still returns a plain
    per-invocation array, so :func:`run_suite` is unaffected.
    """

    sim_cache_root: Optional[str] = None
    fidelity: str = "cycle"
    probe_count: int = 8
    escalation_budget: float = 0.05

    def __call__(self, store, seed: int) -> np.ndarray:
        return self.table([store.workload], [seed], store.config)(store, seed)

    def table(self, workloads, seeds: Sequence[int], gpu) -> "TruthTable":
        """The truth of every (workload, seed) cell, computed up front.

        The cycle tier simulates all cells as one pooled
        :meth:`~repro.sim.GpuSimulator.simulate_workloads` call, so the
        lock-step engine runs a few wide chunks instead of one narrow
        chunk set per cell.
        """
        from ..sim import GpuSimulator  # lazy: keeps import graph light

        cache = (
            _sim_cache_for(self.sim_cache_root)
            if self.sim_cache_root is not None
            else None
        )
        cells = [(workload, int(seed)) for workload in workloads for seed in seeds]
        if self.fidelity != "cycle":
            from ..core.fidelity import FidelityPolicy, fidelity_cycle_counts

            policy = FidelityPolicy(
                mode=self.fidelity,
                probe_count=self.probe_count,
                escalation_budget=self.escalation_budget,
            )
            times = [
                fidelity_cycle_counts(
                    workload, gpu, seed=seed, policy=policy, sim_cache=cache
                ).values
                for workload, seed in cells
            ]
        else:
            results = GpuSimulator(gpu, sim_cache=cache).simulate_workloads(
                [(workload, None, seed) for workload, seed in cells]
            )
            times = [
                np.array([r.cycles for r in result.kernel_results], dtype=np.float64)
                for result in results
            ]
        return TruthTable({
            (workload.name, seed): values
            for (workload, seed), values in zip(cells, times)
        })


@dataclass(frozen=True)
class TruthTable:
    """Precomputed per-cell ground truth, keyed by (workload name, seed).

    A picklable :func:`run_suite` ``ground_truth`` hook: scoring a plan
    is a lookup, so every epsilon point (and every pool worker) reuses
    the same truth instead of re-deriving it.
    """

    times: Dict[Tuple[str, int], np.ndarray]

    def __call__(self, store, seed: int) -> np.ndarray:
        return self.times[(store.workload.name, int(seed))]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregate outcome of one epsilon setting."""

    epsilon: float
    speedup: float
    error_percent: float
    mean_samples: float


def run_error_bound_sweep(
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    config: Optional[ExperimentConfig] = None,
    suite: str = "casio",
    jobs: Optional[int] = 1,
    profile_cache=None,
    sim_cache: Optional[Union[SimResultCache, str]] = None,
    ground_truth: Union[str, Callable, None] = "profile",
    tree_cache: Union[SplitTreeCache, bool, None] = None,
    fidelity: str = "cycle",
    escalation_budget: float = 0.05,
) -> List[SweepPoint]:
    """STEM-only sweep of the error bound over one suite.

    ``jobs``/``profile_cache`` pass straight through to
    :func:`~repro.experiments.runner.run_suite`; the cache pays off
    especially here, since every epsilon re-profiles the same
    (workload, seed) cells.

    ``ground_truth`` selects what plans are scored against:
    ``"profile"`` (default, the paper's Table 3 methodology),
    ``"sim"`` (the cycle simulator: each (workload, repetition) cell is
    simulated once, before the first point, and ``sim_cache`` reuses
    raw results across runs), or any custom :func:`run_suite`-style
    callable.

    ``tree_cache`` shares ROOT candidate split trees across epsilon
    points; sequential sweeps create one automatically (epsilon is not
    part of the tree key, so every point after the first re-walks cached
    trees instead of re-clustering).  Pass ``False`` to disable the
    automatic cache (the benchmark's cold baseline).  Results are
    bit-identical with and without every cache.

    ``fidelity``/``escalation_budget`` apply to ``ground_truth="sim"``
    only: ``"analytical"`` or ``"hybrid"`` replaces the full cycle-level
    truth with the calibrated multi-fidelity screen (see
    :mod:`repro.core.fidelity`); ``"cycle"`` (default) keeps the legacy
    path bit-identical.
    """
    if fidelity not in ("cycle", "analytical", "hybrid"):
        raise ValueError(
            f"fidelity must be 'cycle', 'analytical' or 'hybrid', got {fidelity!r}"
        )
    if config is None:
        config = ExperimentConfig()
    sequential = jobs is None or int(jobs) == 1
    if tree_cache is False:
        tree_cache = None
    elif tree_cache is None and sequential and config.tree_cache is None:
        tree_cache = SplitTreeCache()
    if tree_cache is not None:
        config = replace(config, tree_cache=tree_cache)

    if callable(ground_truth):
        truth_fn: Optional[Callable] = ground_truth
    elif ground_truth in (None, "profile"):
        truth_fn = None
    elif ground_truth == "sim":
        root: Optional[str] = None
        if isinstance(sim_cache, SimResultCache):
            _SIM_CACHES[sim_cache.root] = sim_cache
            root = sim_cache.root
        elif sim_cache is not None:
            root = str(sim_cache)
        # The truth does not depend on epsilon: derive every
        # (workload, repetition) cell once, before the first point.
        truth_fn = SimGroundTruth(
            sim_cache_root=root,
            fidelity=fidelity,
            escalation_budget=escalation_budget,
        ).table(
            load_suite(suite, scale=config.workload_scale, seed=config.base_seed),
            [repetition_seed(config, rep) for rep in range(config.repetitions)],
            config.gpu,
        )
    else:
        raise ValueError(
            f"ground_truth must be 'profile', 'sim' or a callable, "
            f"got {ground_truth!r}"
        )

    points: List[SweepPoint] = []
    for epsilon in epsilons:
        # ``replace`` keeps every other knob — fault plans, validation,
        # caches — instead of silently resetting new fields to defaults.
        cfg = replace(config, epsilon=epsilon)
        rows = run_suite(
            suite,
            config=cfg,
            methods=["stem"],
            ground_truth=truth_fn,
            jobs=jobs,
            profile_cache=profile_cache,
        )
        # Average per workload first, then across workloads.
        by_workload: Dict[str, List] = {}
        for row in rows:
            by_workload.setdefault(row.workload, []).append(row)
        speeds, errors, samples = [], [], []
        for reps in by_workload.values():
            speeds.append(harmonic_mean([r.speedup for r in reps]))
            errors.append(float(np.mean([r.error_percent for r in reps])))
            samples.append(float(np.mean([r.num_samples for r in reps])))
        points.append(
            SweepPoint(
                epsilon=epsilon,
                speedup=harmonic_mean(speeds),
                error_percent=float(np.mean(errors)),
                mean_samples=float(np.mean(samples)),
            )
        )
    return points
