"""Shared experiment orchestration.

Runs (method x workload x repetition) grids, producing flat result rows
that the per-table/per-figure experiment modules aggregate.  Encodes the
paper's methodology choices:

* every experiment repeats ``repetitions`` times (paper: 10) with varied
  hardware-noise and sampler seeds, then averages — harmonic mean for
  speedup, arithmetic mean for error;
* PKA and Sieve are hand-tuned to random (instead of first-chronological)
  selection on the workloads the paper lists (``gaussian``, ``heartwall``,
  ``ssdrn34-infer``, ``unet-infer/train``), and Sieve's KDE clustering is
  disabled on CASIO;
* uniform random sampling uses 10% on Rodinia and 0.1% on CASIO and
  HuggingFace;
* methods whose profiling is infeasible at a workload's scale (PKA, Sieve
  and Photon on HuggingFace) are reported as N/A rows.

Fault tolerance (all off by default, see :mod:`repro.resilience`):

* ``ExperimentConfig.fault_plan`` corrupts each repetition's profile
  through a seeded injector; plans are still scored against the clean
  ground truth, so the rows measure how much the corruption hurt;
* only :class:`~repro.errors.InfeasibleProfilingError` maps to an N/A
  row — unrelated runtime bugs propagate instead of masquerading as
  "profiling infeasible".  With a fault plan active, profile-validation
  and simulation failures also degrade to N/A rows so one poisoned cell
  cannot kill the grid;
* passing ``checkpoint`` (a path or
  :class:`~repro.resilience.GridCheckpoint`) persists each completed
  cell to JSONL; a re-run resumes exactly where the previous one died.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .. import obs
from ..analysis import detsan
from ..baselines import (
    PhotonSampler,
    PkaSampler,
    ProfileStore,
    RandomSampler,
    SieveSampler,
    TbpointSampler,
)
from ..core import StemRootSampler, evaluate_plan
from ..core.plan import SamplingPlan
from ..errors import (
    InfeasibleProfilingError,
    ProfileValidationError,
    SimulationFailure,
)
from ..hardware import RTX_2080, GPUConfig
from ..resilience.checkpoint import GridCheckpoint
from ..resilience.faults import FaultInjector, FaultPlan
from ..workloads import load_suite
from ..workloads.workload import Workload

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "METHODS",
    "run_workload",
    "run_suite",
    "compute_cell_rows",
    "repetition_seed",
]

#: Workloads the paper hand-tuned to random sample selection (Sec. 5.1).
HAND_TUNED_WORKLOADS = {
    "gaussian",
    "heartwall",
    "ssdrn34_infer",
    "unet_infer",
    "unet_train",
}

#: Canonical method order used in every table (the paper's Table 3).
METHODS = ["random", "pka", "sieve", "photon", "stem"]

#: Additional methods available on request (e.g. the TBPoint predecessor).
EXTRA_METHODS = ["tbpoint"]

#: Uniform-random sampling fraction per suite (paper Table 3 footnote).
RANDOM_FRACTIONS = {"rodinia": 0.10, "casio": 0.001, "huggingface": 0.001, "synthetic": 0.01}


@dataclass(frozen=True)
class ResultRow:
    """One (method, workload, repetition) evaluation."""

    suite: str
    workload: str
    method: str
    repetition: int
    error_percent: float
    speedup: float
    num_samples: int
    num_clusters: int
    feasible: bool = True
    #: The cell's task kept killing pool workers and was quarantined by
    #: the supervisor (see :mod:`repro.parallel.supervisor`); the value
    #: columns are NaN/0 like an infeasible row.  Quarantined rows are
    #: never checkpointed, so a resumed grid retries them.
    quarantined: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "workload": self.workload,
            "method": self.method,
            "repetition": self.repetition,
            "error_percent": self.error_percent,
            "speedup": self.speedup,
            "num_samples": self.num_samples,
            "num_clusters": self.num_clusters,
            "feasible": self.feasible,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ResultRow":
        return cls(
            suite=str(payload["suite"]),
            workload=str(payload["workload"]),
            method=str(payload["method"]),
            repetition=int(payload["repetition"]),  # type: ignore[arg-type]
            error_percent=float(payload["error_percent"]),  # type: ignore[arg-type]
            speedup=float(payload["speedup"]),  # type: ignore[arg-type]
            num_samples=int(payload["num_samples"]),  # type: ignore[arg-type]
            num_clusters=int(payload["num_clusters"]),  # type: ignore[arg-type]
            feasible=bool(payload.get("feasible", True)),
            quarantined=bool(payload.get("quarantined", False)),
        )


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments."""

    gpu: GPUConfig = field(default_factory=lambda: RTX_2080)
    repetitions: int = 10
    base_seed: int = 0
    epsilon: float = 0.05
    #: Workload-count scale factor (tests shrink workloads through this).
    workload_scale: float = 1.0
    #: Optional seeded fault model applied to every repetition's profile
    #: (see :class:`repro.resilience.FaultPlan`).  ``None`` = no faults.
    fault_plan: Optional[FaultPlan] = None
    #: Profile validation mode for the stores this runner builds
    #: (``off``/``strict``/``repair``).  Forced to ``repair`` whenever a
    #: fault plan corrupts profiles, so injected garbage is healed rather
    #: than crashing every sampler.
    validation: str = "off"
    #: Optional :class:`~repro.memo.SplitTreeCache` handed to every STEM
    #: sampler this config builds.  Sharing one cache across configs that
    #: differ only in ``epsilon`` (see ``run_error_bound_sweep``) reuses
    #: each (workload, seed) ROOT candidate tree per epsilon point.
    #: Deliberately absent from :meth:`fingerprint` — caching never
    #: changes results, so checkpoints stay interchangeable.
    tree_cache: Optional[object] = field(default=None, repr=False, compare=False)

    def sampler_for(self, method: str, workload: Workload):
        """Instantiate a sampling method with the paper's tuning rules.

        Feasibility caps (the kernel counts beyond which PKA/Sieve/Photon
        profiling takes months) are scaled by ``workload_scale`` so a
        reduced workload inherits the feasibility of the full-size
        original it stands in for.
        """
        suite = workload.suite
        tuned = workload.name in HAND_TUNED_WORKLOADS
        select = "random" if tuned else "first"
        scale = self.workload_scale
        if method == "random":
            fraction = RANDOM_FRACTIONS.get(suite, 0.01)
            return RandomSampler(fraction)
        if method == "pka":
            return PkaSampler(
                select=select, max_points_for_sweep=max(1, int(200_000 * scale))
            )
        if method == "sieve":
            return SieveSampler(
                select=select,
                use_kde=(suite == "rodinia"),
                max_kernels=max(1, int(300_000 * scale)),
            )
        if method == "photon":
            return PhotonSampler(max_kernels=max(1, int(500_000 * scale)))
        if method == "tbpoint":
            return TbpointSampler(max_kernels=max(1, int(200_000 * scale)))
        if method == "stem":
            return StemRootSampler(epsilon=self.epsilon, tree_cache=self.tree_cache)
        raise KeyError(
            f"unknown method {method!r}; available: {METHODS + EXTRA_METHODS}"
        )

    def store_for(
        self, workload: Workload, seed: int, cache=None
    ) -> ProfileStore:
        """Build the repetition's profile store, wiring in fault injection.

        ``cache`` (a :class:`repro.parallel.ProfileCache`, or ``None``)
        lets the store reuse already-collected nsys profiles instead of
        recollecting them; cached profiles are the *clean* ones, so fault
        injection and validation behave identically either way.
        """
        injector = None
        validation = self.validation
        if self.fault_plan is not None and self.fault_plan.enabled:
            if self.fault_plan.corrupts_profiles:
                injector = FaultInjector(self.fault_plan)
                if validation == "off":
                    validation = "repair"
            if self.fault_plan.corrupts_cache and cache is not None:
                if getattr(cache, "fault_injector", None) is None:
                    # Chaos-testing hook: corrupt freshly stored cache
                    # entries on disk.  Results stay bit-identical — the
                    # in-memory array is what gets used, and corrupted
                    # entries are quarantined and recollected on read.
                    cache.fault_injector = FaultInjector(self.fault_plan)
        return ProfileStore(
            workload,
            self.gpu,
            seed=seed,
            fault_injector=injector,
            validation=validation,
            cache=cache,
        )

    def fingerprint(self) -> Dict[str, object]:
        """Checkpoint-compatible summary of everything that shapes rows."""
        return {
            "gpu": self.gpu.name,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "epsilon": self.epsilon,
            "workload_scale": self.workload_scale,
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan is not None else None
            ),
            "validation": self.validation,
        }


def build_plan(sampler, store: ProfileStore, seed: int) -> SamplingPlan:
    """Dispatch to the method's plan builder (STEM consumes the store too)."""
    if hasattr(sampler, "build_plan_from_store"):
        return sampler.build_plan_from_store(store, seed=seed)
    return sampler.build_plan(store, seed=seed)


def _infeasible_row(workload: Workload, method: str, rep: int) -> ResultRow:
    return ResultRow(
        suite=workload.suite,
        workload=workload.name,
        method=method,
        repetition=rep,
        error_percent=float("nan"),
        speedup=float("nan"),
        num_samples=0,
        num_clusters=0,
        feasible=False,
    )


def _quarantined_row(workload: Workload, method: str, rep: int) -> ResultRow:
    """An N/A-shaped row for a cell whose task was poison-quarantined."""
    return ResultRow(
        suite=workload.suite,
        workload=workload.name,
        method=method,
        repetition=rep,
        error_percent=float("nan"),
        speedup=float("nan"),
        num_samples=0,
        num_clusters=0,
        feasible=False,
        quarantined=True,
    )


def _as_checkpoint(
    checkpoint: Optional[Union[str, GridCheckpoint]],
    config: ExperimentConfig,
) -> Optional[GridCheckpoint]:
    if checkpoint is None or isinstance(checkpoint, GridCheckpoint):
        return checkpoint
    return GridCheckpoint(str(checkpoint), config=config.fingerprint())


def repetition_seed(config: ExperimentConfig, rep: int) -> int:
    """The RNG seed of one repetition — a pure function of the config.

    Every grid cell derives its randomness from this (never from shared
    state), which is what makes parallel execution bit-identical to
    sequential: a cell's result depends only on (workload, method, rep),
    not on which worker ran it or in what order.
    """
    return config.base_seed + rep * 1009 + 1


def compute_cell_rows(
    workload: Workload,
    config: ExperimentConfig,
    methods: Iterable[str],
    rep: int,
    ground_truth: Optional[Callable[[ProfileStore, int], np.ndarray]] = None,
    profile_cache=None,
) -> Iterator[Tuple[str, ResultRow]]:
    """Compute the (method, row) cells of one repetition, lazily.

    The single source of truth for cell evaluation: the sequential runner
    drains this generator cell-by-cell (checkpointing each row as it
    lands), and parallel grid workers drain it inside their own process —
    both paths therefore produce identical rows by construction.

    The repetition's profile store is created lazily and shared across
    all requested methods, so a repetition profiles its workload at most
    once (and not at all when ``methods`` is empty or the profile comes
    out of ``profile_cache``).
    """
    seed = repetition_seed(config, rep)
    faulty = config.fault_plan is not None and config.fault_plan.enabled
    store: Optional[ProfileStore] = None
    truth: Optional[np.ndarray] = None

    def rep_store() -> ProfileStore:
        nonlocal store
        if store is None:
            store = config.store_for(workload, seed, cache=profile_cache)
        return store

    def rep_truth() -> np.ndarray:
        nonlocal truth
        if truth is None:
            truth = (
                rep_store().true_execution_times()
                if ground_truth is None
                else ground_truth(rep_store(), seed)
            )
        return truth

    for method in methods:
        sampler = config.sampler_for(method, workload)
        try:
            plan = build_plan(sampler, rep_store(), seed=seed)
        except InfeasibleProfilingError:
            # Profiling infeasible at this scale (Table 3/5 "N/A").
            row = _infeasible_row(workload, method, rep)
        except (ProfileValidationError, SimulationFailure):
            if not faulty:
                raise
            # An injected fault broke this cell beyond repair; record
            # it as N/A so the rest of the grid survives.
            obs.log_event(
                "resilience.grid_cell_failed",
                level="warning",
                workload=workload.name,
                method=method,
                repetition=rep,
            )
            row = _infeasible_row(workload, method, rep)
        else:
            result = evaluate_plan(plan, rep_truth())
            row = ResultRow(
                suite=workload.suite,
                workload=workload.name,
                method=method,
                repetition=rep,
                error_percent=result.error_percent,
                speedup=result.speedup,
                num_samples=plan.num_samples,
                num_clusters=plan.num_clusters,
            )
        yield method, row


def run_workload(
    workload: Workload,
    config: Optional[ExperimentConfig] = None,
    methods: Optional[Iterable[str]] = None,
    ground_truth: Optional[Callable[[ProfileStore, int], np.ndarray]] = None,
    checkpoint: Optional[Union[str, GridCheckpoint]] = None,
    jobs: Optional[int] = 1,
    profile_cache=None,
    policy=None,
) -> List[ResultRow]:
    """Evaluate methods on one workload across repetitions.

    ``ground_truth`` optionally overrides what the plans are scored
    against (the DSE experiments score against a *different* hardware's
    times than the plans were built from); it receives the profile store
    and the repetition seed and returns per-invocation times.  By default
    plans are scored against the profiled execution times themselves, the
    paper's Table 3 methodology (the *clean* profile — injected faults
    corrupt what the samplers see, never the truth).

    ``checkpoint`` persists each completed (method, repetition) cell;
    cells already present are replayed from the file instead of being
    recomputed, making a killed grid resumable.

    ``jobs`` fans repetitions across worker processes (``1``/``None`` =
    sequential, ``0`` = all cores); results are bit-identical to
    ``jobs=1`` because every
    cell's randomness derives from :func:`repetition_seed` alone.  With
    ``jobs != 1``, ``ground_truth`` must be picklable (a module-level
    function).  ``profile_cache`` (a :class:`repro.parallel.ProfileCache`)
    reuses collected profiles across runs and processes.  ``policy`` (a
    :class:`repro.parallel.SupervisionPolicy`) tunes worker-death
    supervision for the parallel path; it never affects results.
    """
    if config is None:
        config = ExperimentConfig()
    if jobs is not None and int(jobs) != 1:
        from ..parallel.grid import execute_grid

        return execute_grid(
            [workload],
            config=config,
            methods=methods,
            ground_truth=ground_truth,
            checkpoint=checkpoint,
            profile_cache=profile_cache,
            jobs=jobs,
            policy=policy,
        )
    checkpoint = _as_checkpoint(checkpoint, config)
    method_list = list(methods or METHODS)
    rows: List[ResultRow] = []
    for rep in range(config.repetitions):
        # Replay checkpointed cells; when the whole repetition is stored,
        # its profile is never collected at all.
        stored_rows: Dict[str, ResultRow] = {}
        missing: List[str] = []
        for method in method_list:
            stored = (
                checkpoint.get(workload.suite, workload.name, method, rep)
                if checkpoint is not None
                else None
            )
            if stored is not None:
                stored_rows[method] = ResultRow.from_dict(stored)
                obs.inc("resilience.checkpoint_cells_replayed")
            else:
                missing.append(method)
        computed: Dict[str, ResultRow] = {}
        for method, row in compute_cell_rows(
            workload,
            config,
            missing,
            rep,
            ground_truth=ground_truth,
            profile_cache=profile_cache,
        ):
            # Record the moment each cell lands, so a kill mid-repetition
            # loses at most the in-flight cell.
            computed[method] = row
            if detsan.is_enabled():
                # Sync point: the post-aggregation row — what every
                # downstream table is built from — in its serialized
                # form, so sequential rows compare against parallel
                # rows received by the grid parent.
                detsan.record(
                    f"grid.row|{workload.suite}|{workload.name}"
                    f"|{method}|rep={rep}",
                    row.as_dict(),
                )
            if checkpoint is not None:
                checkpoint.record(
                    workload.suite, workload.name, method, rep, row.as_dict()
                )
        for method in method_list:
            rows.append(
                stored_rows[method] if method in stored_rows else computed[method]
            )
    return rows


def run_suite(
    suite: str,
    config: Optional[ExperimentConfig] = None,
    methods: Optional[Iterable[str]] = None,
    workload_names: Optional[Iterable[str]] = None,
    ground_truth: Optional[Callable[[ProfileStore, int], np.ndarray]] = None,
    checkpoint: Optional[Union[str, GridCheckpoint]] = None,
    jobs: Optional[int] = 1,
    profile_cache=None,
    policy=None,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[ResultRow]:
    """Evaluate methods on every workload of a suite.

    ``ground_truth`` overrides what plans are scored against, exactly as
    in :func:`run_workload` (picklable when ``jobs != 1``);
    ``checkpoint`` (path or :class:`~repro.resilience.GridCheckpoint`)
    makes the grid resumable; ``jobs`` fans (workload, repetition) cells
    across processes with bit-identical results; ``profile_cache`` reuses
    collected profiles — see :func:`run_workload`.  ``workloads`` passes
    the suite already loaded at ``config``'s scale and base seed, so a
    caller that runs the suite many times loads it once.
    """
    if config is None:
        config = ExperimentConfig()
    if workloads is None:
        workloads = load_suite(
            suite, scale=config.workload_scale, seed=config.base_seed
        )
    if workload_names is not None:
        wanted = set(workload_names)
        workloads = [w for w in workloads if w.name in wanted]
    if jobs is not None and int(jobs) != 1:
        from ..parallel.grid import execute_grid

        return execute_grid(
            workloads,
            config=config,
            methods=methods,
            ground_truth=ground_truth,
            checkpoint=checkpoint,
            profile_cache=profile_cache,
            jobs=jobs,
            policy=policy,
        )
    checkpoint = _as_checkpoint(checkpoint, config)
    rows: List[ResultRow] = []
    for workload in workloads:
        rows.extend(
            run_workload(
                workload,
                config=config,
                methods=methods,
                ground_truth=ground_truth,
                checkpoint=checkpoint,
                profile_cache=profile_cache,
            )
        )
    return rows
