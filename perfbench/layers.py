"""Per-layer attribution for a traced benchmark run, from outside the program.

``install`` wraps the public functions of each layer of ``repro`` in
place.  It is called only by a traced run: an untraced run never imports
this module, so it runs the program exactly as shipped.

Each wrapped call is one frame on a per-process stack.  A frame's self
time is its duration minus the time of the wrapped calls made inside it,
so the layers' self times add up to the wall-clock time they cover.
Counts are taken at the same boundaries.  Everything is accumulated as
integer counters in the active ``repro.obs`` session: pool workers run
each task under their own session and ship it back to the parent, so
one set of counters covers every process of the run.

Worker-side self times are summed over processes; the ``parallel`` layer
itself is the pool's wall time in the parent minus the time at least one
worker was running a task (dispatch, fork, pickling and merging).
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs

PREFIX = "perfbench."


class Recorder:
    """Frame stack and counter sink of one traced process."""

    def __init__(self, slow_layer: Optional[str] = None, slow_seconds: float = 0.0):
        self.main_pid = os.getpid()
        self.stack: List[list] = []
        self.slow_layer = slow_layer
        self.slow_seconds = slow_seconds
        self.slowed = False
        #: Pool calls seen in this process: (start, end, jobs, payloads, results).
        self.pools: List[tuple] = []
        self.trace_keys: set = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with no open frames of its own.
        self.stack.clear()
        self.slowed = True

    def count(self, name: str, n: float = 1) -> None:
        obs.inc(PREFIX + name, int(n))

    def add_seconds(self, name: str, seconds: float) -> None:
        obs.inc(PREFIX + name + "_us", int(round(seconds * 1e6)))

    def maybe_slow(self, layer: str) -> None:
        """Self-check hook: the first call of ``slow_layer`` sleeps once."""
        if layer == self.slow_layer and not self.slowed:
            self.slowed = True
            time.sleep(self.slow_seconds)

    def timed(self, layer: str, fn: Callable, after=None) -> Callable:
        """Wrap ``fn`` as one frame of ``layer``; ``after`` counts its result."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack
            outer_same = any(frame[0] == layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                recorder.maybe_slow(layer)
                result = fn(*args, **kwargs)
            except BaseException as err:
                recorder._close(frame, start, outer_same)
                if after is not None:
                    after(recorder, None, args, kwargs, err)
                raise
            recorder._close(frame, start, outer_same)
            if after is not None:
                after(recorder, result, args, kwargs, None)
            return result

        return wrapper

    def _close(self, frame: list, start: float, outer_same: bool) -> None:
        duration = time.perf_counter() - start
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        layer = frame[0]
        self.add_seconds("self." + layer, duration - frame[1])
        if not outer_same:
            self.add_seconds("incl." + layer, duration)
            self.count("calls." + layer)
        if stack:
            stack[-1][1] += duration
        elif os.getpid() == self.main_pid:
            self.add_seconds("covered.main", duration)
        else:
            self.add_seconds("covered.worker", duration)

    def in_layer(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self.stack)


# -- counting hooks (run after the wrapped call returns) ----------------------
def _count_launches(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("workloads.launches", len(result))


def _count_launches_all(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("workloads.launches", sum(len(w) for w in result))


def _count_leaves(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("root.groups")
        rec.count("root.leaves", len(result))


def _count_kmeans(rec, result, args, kwargs, err):
    if rec.in_layer("root"):
        rec.count("root.kmeans_calls")
        rec.count("root.kmeans_points", len(args[0]))


def _count_clusters(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("stem.clusters", len(result))


def _count_samples(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("sampler.samples", result.num_samples)


def _count_infeasible(rec, result, args, kwargs, err):
    from repro.errors import InfeasibleProfilingError

    if isinstance(err, InfeasibleProfilingError):
        rec.count("baselines.infeasible")


def _count_evaluation(rec, result, args, kwargs, err):
    plan = args[0] if args else kwargs.get("plan")
    if result is not None and getattr(plan, "method", "") == "stem":
        # Harmonic mean of speedups = plans / sum(1/speedup).
        rec.count("quality.stem_evals")
        rec.count("quality.inv_speedup_e9", 1e9 / result.speedup)


def _trace_key(rec, invocation, seed, tracer) -> None:
    rec.trace_keys.add((
        invocation.spec.name, invocation.index, int(seed), tracer.num_sms,
        tracer.max_blocks_per_sm, tracer.max_warps_per_sm,
        tracer.max_instructions_per_warp, tracer.max_resident_warps,
        tracer.line_bytes,
    ))


def _count_trace(rec, result, args, kwargs, err):
    if result is None:
        return
    tracer, invocation = args[0], args[1]
    seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
    rec.count("sim.traces")
    rec.count("sim.insts", sum(len(w.kinds) for w in result.warps))
    _trace_key(rec, invocation, seed, tracer)


def _count_batch(rec, result, args, kwargs, err):
    if result is None:
        return
    report = result[1]
    rec.count("sim.lanes", report.batched_lanes)
    rec.count("sim.scalar_lanes", report.scalar_lanes)
    rec.count("sim.chunks", report.chunks)


def _count_scalar_wave(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("sim.scalar_lanes")


def _count_cache_load(rec, result, args, kwargs, err):
    if result is not None:
        found, missing = result
        rec.count("memo.sim_cache.hits", len(found))
        rec.count("memo.sim_cache.misses", len(missing))


def _count_cache_store(rec, result, args, kwargs, err):
    if result is not None:
        rec.count("memo.sim_cache.stores")


# -- installation --------------------------------------------------------------
def _resolve(module_name: str, qualname: str):
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch_function(module_name: str, name: str, wrapper_factory) -> None:
    """Replace a module-level function at every binding of it in ``repro``
    and in the running script."""
    owner, attr = _resolve(module_name, name)
    original = getattr(owner, attr)
    wrapped = wrapper_factory(original)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name in ("repro", "__main__") or mod_name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(module_name: str, qualname: str, wrapper_factory) -> None:
    owner, attr = _resolve(module_name, qualname)
    original = owner.__dict__[attr]
    setattr(owner, attr, wrapper_factory(original))


#: (module, qualified name, layer or None for count-only, counting hook).
METHODS: List[Tuple[str, str, Optional[str], object]] = [
    ("repro.workloads.generators.base", "WorkloadRegistry.generate", "workloads", _count_launches),
    ("repro.workloads.generators.base", "WorkloadRegistry.generate_all", "workloads", _count_launches_all),
    ("repro.workloads.workload", "Workload.subset", "workloads", None),
    ("repro.profiling.nsys", "NsysProfiler.profile", "profiling", None),
    ("repro.profiling.nsys", "NsysProfiler.execution_times", "profiling", None),
    ("repro.profiling.ncu", "NcuProfiler.profile", "profiling", None),
    ("repro.profiling.ncu", "NcuProfiler.feature_matrix", "profiling", None),
    ("repro.profiling.nvbit", "NvbitProfiler.profile", "profiling", None),
    ("repro.profiling.bbv", "BbvProfiler.collect", "profiling", None),
    ("repro.profiling.bbv", "BbvProfiler.profile", "profiling", None),
    ("repro.hardware.timing_model", "TimingModel.execution_times", "profiling", None),
    ("repro.core.sampler", "StemRootSampler.build_plan", "sampler", _count_samples),
    ("repro.core.sampler", "StemRootSampler.cluster", "root", None),
    ("repro.core.sampler", "StemRootSampler.sample_sizes", "stem", _count_clusters),
    ("repro.baselines.pka", "PkaSampler.build_plan", "baselines.pka", _count_infeasible),
    ("repro.baselines.sieve", "SieveSampler.build_plan", "baselines.sieve", _count_infeasible),
    ("repro.baselines.photon", "PhotonSampler.build_plan", "baselines.photon", _count_infeasible),
    ("repro.baselines.random_sampling", "RandomSampler.build_plan", "baselines.random", _count_infeasible),
    ("repro.sim.trace", "TraceGenerator.generate", "sim.trace", _count_trace),
    ("repro.sim.simulator", "GpuSimulator._execute_trace", "sim.wave", _count_scalar_wave),
    ("repro.sim.simulator", "GpuSimulator.simulate_workload", "sim.workload", None),
    ("repro.memo.sim_cache", "SimResultCache.load", "memo.sim_cache.load", _count_cache_load),
    ("repro.memo.sim_cache", "SimResultCache.store", "memo.sim_cache.store", _count_cache_store),
]

FUNCTIONS: List[Tuple[str, str, Optional[str], object]] = [
    ("repro.core.root", "root_split", None, _count_leaves),
    ("repro.core.clustering", "kmeans_1d", None, _count_kmeans),
    ("repro.core.stem", "predicted_error_multi", "stem", None),
    ("repro.core.estimator", "evaluate_plan", "estimator", _count_evaluation),
    ("repro.sim.batch", "execute_wave_batch", "sim.wave", _count_batch),
    ("repro.sim.noise", "noise_factors", "sim.noise", None),
]


def _counting(rec: Recorder, fn: Callable, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(rec, result, args, kwargs, None)
        return result

    return wrapper


def _pool_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """``run_tasks`` is a frame only when it really fans out to a pool."""
    from repro.parallel.executor import resolve_jobs

    timed = rec.timed("parallel", fn)

    @functools.wraps(fn)
    def wrapper(worker, payloads, jobs=1, *args, **kwargs):
        if resolve_jobs(jobs) <= 1 or len(payloads) <= 1:
            return fn(worker, payloads, jobs, *args, **kwargs)
        start = time.perf_counter()
        results = timed(worker, payloads, jobs, *args, **kwargs)
        rec.pools.append((start, time.perf_counter(), resolve_jobs(jobs), payloads, results))
        return results

    return wrapper


def install(slow_layer: Optional[str] = None, slow_seconds: float = 0.0) -> Recorder:
    """Wrap every layer's public functions; returns the run's recorder.

    ``slow_layer`` is the self-check's fault injection: the first call
    into that layer sleeps ``slow_seconds`` inside the layer's frame.
    """
    import repro.experiments.dse  # noqa: F401  (bind every module first)
    import repro.experiments.error_bound_sweep  # noqa: F401
    import repro.parallel.grid  # noqa: F401

    rec = Recorder(slow_layer, slow_seconds)

    def wrap(layer, after):
        if layer is None:
            return lambda fn: _counting(rec, fn, after)
        return lambda fn: rec.timed(layer, fn, after)

    for module, qualname, layer, after in METHODS:
        _patch_method(module, qualname, wrap(layer, after))
    for module, name, layer, after in FUNCTIONS:
        _patch_function(module, name, wrap(layer, after))
    _patch_function(
        "repro.parallel.executor", "run_tasks", lambda fn: _pool_wrapper(rec, fn)
    )
    return rec


# -- read-out ------------------------------------------------------------------
def _union_seconds(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def collect(rec: Recorder, session, cache_dir: Optional[str]) -> Dict[str, float]:
    """Per-layer numbers of this process (and its merged workers)."""
    counters = session.metrics.snapshot()["counters"]

    def c(name: str) -> float:
        return float(counters.get(PREFIX + name, 0))

    def s(name: str) -> float:
        return c(name + "_us") / 1e6

    out: Dict[str, float] = {
        "workloads.s": s("self.workloads"),
        "workloads.launches": c("workloads.launches"),
        "profiling.s": s("self.profiling"),
        "profiling.calls": c("calls.profiling"),
        "root.s": s("self.root"),
        "root.groups": c("root.groups"),
        "root.kmeans_calls": c("root.kmeans_calls"),
        "root.kmeans_points": c("root.kmeans_points"),
        "root.leaves": c("root.leaves"),
        "stem.s": s("self.stem"),
        "stem.clusters": c("stem.clusters"),
        "sampler.s": s("incl.sampler"),
        "sampler.self_s": s("self.sampler"),
        "sampler.samples": c("sampler.samples"),
        "estimator.s": s("self.estimator"),
        "estimator.calls": c("calls.estimator"),
        "baselines.pka_s": s("self.baselines.pka"),
        "baselines.sieve_s": s("self.baselines.sieve"),
        "baselines.photon_s": s("self.baselines.photon"),
        "baselines.random_s": s("self.baselines.random"),
        "baselines.infeasible": c("baselines.infeasible"),
        "sim.trace_s": s("self.sim.trace"),
        "sim.traces": c("sim.traces"),
        "sim.traces_distinct": float(len(rec.trace_keys)),
        "sim.wave_s": s("self.sim.wave"),
        "sim.lanes": c("sim.lanes"),
        "sim.chunks": c("sim.chunks"),
        "sim.scalar_lanes": c("sim.scalar_lanes"),
        "sim.noise_s": s("self.sim.noise"),
        "sim.workload_s": s("incl.sim.workload"),
        "sim.post_self_s": s("self.sim.workload"),
        "sim.insts": c("sim.insts"),
        "memo.sim_cache.hits": c("memo.sim_cache.hits"),
        "memo.sim_cache.misses": c("memo.sim_cache.misses"),
        "memo.sim_cache.stores": c("memo.sim_cache.stores"),
        "memo.sim_cache.load_s": s("self.memo.sim_cache.load"),
        "memo.sim_cache.store_s": s("self.memo.sim_cache.store"),
        "memo.sim_cache.bytes": float(_tree_bytes(cache_dir)),
        "memo.tree_cache.hits": float(counters.get("memo.tree_cache.hits", 0)),
        "memo.tree_cache.misses": float(counters.get("memo.tree_cache.misses", 0)),
        "memo.dedup.collapsed": float(counters.get("memo.dedup.collapsed", 0)),
    }
    # The engine's own per-call fill ratios, averaged.
    fill = session.metrics.snapshot()["histograms"].get("sim.batch.fill_ratio")
    out["sim.fill_ratio"] = float(fill["mean"]) if fill and fill.get("count") else 0.0
    evals = c("quality.stem_evals")
    inv = c("quality.inv_speedup_e9") / 1e9
    out["sample_speedup_x"] = evals / inv if inv > 0 else 0.0

    # Pool layer: parent wall minus the union of worker task intervals.
    spans = session.tracer.finished()
    worker_spans = [
        sp for sp in spans if sp.parent_id is None and "worker" in sp.attrs
    ]
    busy = sum(sp.dur_us for sp in worker_spans) / 1e6
    pool_self, capacity, payload_bytes, result_bytes = 0.0, 0.0, 0, 0
    epoch = session.tracer.epoch_us / 1e6
    for start, end, jobs, payloads, results in rec.pools:
        lo, hi = start - epoch, end - epoch
        inside = [
            (max(lo, sp.start_us / 1e6), min(hi, sp.end_us / 1e6))
            for sp in worker_spans
            if sp.end_us / 1e6 > lo and sp.start_us / 1e6 < hi
        ]
        pool_self += (end - start) - _union_seconds(inside)
        capacity += jobs * (end - start)
        payload_bytes += sum(len(pickle.dumps(p)) for p in payloads)
        result_bytes += sum(len(pickle.dumps(r)) for r in results)
    out.update({
        "parallel.s": pool_self,
        "parallel.tasks": float(sum(len(p[3]) for p in rec.pools)),
        "parallel.payload_bytes": float(payload_bytes),
        "parallel.result_bytes": float(result_bytes),
        "parallel.busy_s": busy,
        "parallel.efficiency": busy / capacity if capacity else 0.0,
    })
    # Coverage inputs for run.py: main-process wall inside named
    # layers (a pool call counts whole), and worker busy time outside them.
    out["_covered_main_s"] = s("covered.main")
    out["_worker_busy_s"] = busy
    out["_worker_unattributed_s"] = max(0.0, busy - s("covered.worker"))
    return out


def _tree_bytes(root: Optional[str]) -> int:
    if not root or not os.path.isdir(root):
        return 0
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
