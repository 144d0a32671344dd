"""One benchmark operation: a workload's pipeline in a fresh process.

Run by ``perfbench/run.py``; never imported.  The process sets up its
inputs from the seed, runs the pipeline once, checks the outputs, and
prints one JSON line with ``time.perf_counter()`` marks (a system-wide
monotonic clock on Linux, so the parent can subtract its spawn time),
the output digest, the checks and, when traced, the per-layer numbers.

Usage: ``python perfbench/op.py WORKLOAD SEED WORKDIR MODE [SLOW_LAYER SLOW_SECONDS]``
where MODE is ``run``, ``trace`` (layer wrappers installed) or ``setup``
(stop once the inputs are ready).
"""

import sys
import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from repro.baselines import ProfileStore  # noqa: E402
from repro.core import StemRootSampler, evaluate_plan  # noqa: E402
from repro.experiments.dse import (  # noqa: E402
    VARIANT_LABELS,
    default_dse_workloads,
    run_dse,
)
from repro.experiments.error_bound_sweep import run_error_bound_sweep  # noqa: E402
from repro.experiments.runner import METHODS, ExperimentConfig  # noqa: E402
from repro.hardware import RTX_2080  # noqa: E402
from repro.memo import SimResultCache  # noqa: E402
from repro.memo.sim_cache import SIM_VERSION  # noqa: E402
from repro.parallel.grid import execute_grid  # noqa: E402
from repro.workloads import load_suite, load_workload  # noqa: E402

T_IMPORT = time.perf_counter()

EPSILON = 0.05

# Input sizes.  Each keeps the layer mix its workload is chosen for (see
# perfbench/README.md) while one process stays within a few seconds.
GPT2_SCALE = 0.1
DSE_WORKLOADS = ("hotspot", "gpt2")
DSE_MAX_INVOCATIONS = 100
DSE_REPETITIONS = 2
DSE_METHODS = ("pka", "sieve", "photon", "stem")
GRID_SCALE = 0.5
GRID_REPETITIONS = 3
GRID_JOBS = 2
SWEEP_SCALE = 0.001
SWEEP_REPETITIONS = 1
SWEEP_EPSILONS = (0.03, 0.05, 0.10, 0.25)


class Outcome:
    """What one pipeline run produced, reduced to checkable numbers."""

    def __init__(self):
        self.kernels = 0          # invocations handled (definition per workload)
        self.ops = 0              # cells or plans attempted
        self.failed = 0           # cells that failed or were quarantined
        self.infeasible = 0       # expected-infeasible baseline cells
        self.stem_errors = []     # achieved error % of each STEM plan or row
        self.bound_violations = 0
        self.problems = []        # failed output checks
        self.digest_items = []

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def finite(self, value, what):
        self.check(isinstance(value, (int, float)) and math.isfinite(value),
                   f"{what} is not a finite number: {value!r}")


# Each workload is setup(seed, workdir) -> state, run(state) -> output
# (the timed pipeline) and check(state, output) -> Outcome.
def setup_sample(seed, workdir):
    workload = load_workload("huggingface", "gpt2", scale=GPT2_SCALE, seed=seed)
    return {"workload": workload, "seed": seed}


def run_sample(state):
    workload, seed = state["workload"], state["seed"]
    store = ProfileStore(workload, RTX_2080, seed=seed)
    plan = StemRootSampler(epsilon=EPSILON).build_plan_from_store(store, seed=seed)
    result = evaluate_plan(plan, store.execution_times())
    return workload, plan, result


def check_sample(state, output):
    workload, plan, result = output
    out = Outcome()
    n = len(workload)
    out.kernels = n
    out.ops = 1
    out.check(plan.num_samples >= 1, "plan has no samples")
    for cluster in plan.clusters:
        idx = cluster.sampled_indices
        out.check(bool(np.all((idx >= 0) & (idx < n))),
                  f"cluster {cluster.label} samples outside [0, {n})")
    out.finite(result.error_percent, "error %")
    out.finite(result.speedup, "speedup")
    bound = plan.metadata["predicted_error"] * 100
    out.finite(bound, "predicted error")
    out.stem_errors.append(result.error_percent)
    out.bound_violations += int(result.error_percent > bound)
    out.digest_items = [
        n, plan.num_clusters,
        [[c.label, c.member_count, c.sampled_indices.tolist()] for c in plan.clusters],
        result.error_percent, result.speedup, bound,
    ]
    return out


def _dse_specs():
    return [s for s in default_dse_workloads(max_invocations=DSE_MAX_INVOCATIONS)
            if s.name in DSE_WORKLOADS]


def setup_dse(seed, workdir):
    # The program generates the reduced workloads itself; the benchmark
    # only needs their sizes for the kernel count.
    sizes = [
        min(len(load_workload(s.suite, s.name, scale=s.scale, seed=seed)), s.max_invocations)
        for s in _dse_specs()
    ]
    return {"specs": _dse_specs(), "seed": seed, "sizes": sizes}


def run_dse_cycle(state):
    return run_dse(
        state["specs"], methods=list(DSE_METHODS), repetitions=DSE_REPETITIONS,
        seed=state["seed"], epsilon=EPSILON, jobs=1, fidelity="cycle",
    )


def check_dse(state, rows):
    out = Outcome()
    out.kernels = sum(state["sizes"]) * len(VARIANT_LABELS)
    expected = len(state["specs"]) * len(VARIANT_LABELS) * len(DSE_METHODS)
    out.ops = expected
    out.check(len(rows) == expected, f"{len(rows)} DSE rows, expected {expected}")
    for row in rows:
        out.finite(row.error_percent, f"{row.workload}/{row.variant}/{row.method} error %")
        out.finite(row.full_cycles, f"{row.workload}/{row.variant} cycles")
        if row.method == "stem":
            out.stem_errors.append(row.error_percent)
            out.bound_violations += int(row.error_percent > row.error_bound_percent)
    cycles = sorted({(r.workload, r.variant, r.full_cycles) for r in rows})
    out.digest_items = [[sorted(vars(r).items()) for r in rows], cycles]
    return out


def setup_grid(seed, workdir):
    config = ExperimentConfig(
        repetitions=GRID_REPETITIONS, base_seed=seed, epsilon=EPSILON,
        workload_scale=GRID_SCALE,
    )
    workloads = load_suite("rodinia", scale=GRID_SCALE, seed=seed)
    return {"config": config, "workloads": workloads}


def run_grid(state):
    return execute_grid(state["workloads"], config=state["config"],
                        methods=METHODS, jobs=GRID_JOBS)


def check_grid(state, rows):
    out = Outcome()
    sizes = {w.name: len(w) for w in state["workloads"]}
    expected = len(sizes) * GRID_REPETITIONS * len(METHODS)
    out.ops = expected
    out.check(len(rows) == expected, f"{len(rows)} grid rows, expected {expected}")
    for row in rows:
        what = f"{row.workload}/{row.method}/rep{row.repetition}"
        if row.quarantined:
            out.failed += 1
            continue
        if not row.feasible:
            out.infeasible += 1
            continue
        out.finite(row.error_percent, what + " error %")
        out.finite(row.speedup, what + " speedup")
        out.check(1 <= row.num_samples <= sizes[row.workload],
                  f"{what} has {row.num_samples} samples")
        out.kernels += sizes[row.workload]
        if row.method == "stem":
            out.stem_errors.append(row.error_percent)
            out.bound_violations += int(row.error_percent > EPSILON * 100)
    out.digest_items = [sorted(r.as_dict().items()) for r in rows]
    return out


def setup_sweep(seed, workdir):
    config = ExperimentConfig(
        repetitions=SWEEP_REPETITIONS, base_seed=seed, workload_scale=SWEEP_SCALE,
    )
    cache_dir = os.path.join(workdir, "sim-cache")
    os.makedirs(cache_dir)
    sizes = {w.name: len(w) for w in load_suite("casio", scale=SWEEP_SCALE, seed=seed)}
    return {"config": config, "cache_dir": cache_dir, "sizes": sizes}


def run_sweep(state):
    return run_error_bound_sweep(
        SWEEP_EPSILONS, config=state["config"], suite="casio",
        sim_cache=SimResultCache(state["cache_dir"]), ground_truth="sim",
    )


def check_sweep(state, points):
    out = Outcome()
    cells = len(state["sizes"]) * SWEEP_REPETITIONS
    out.ops = len(SWEEP_EPSILONS) * cells
    out.kernels = len(SWEEP_EPSILONS) * SWEEP_REPETITIONS * sum(state["sizes"].values())
    out.check(len(points) == len(SWEEP_EPSILONS),
              f"{len(points)} sweep points, expected {len(SWEEP_EPSILONS)}")
    for point in points:
        what = f"eps={point.epsilon}"
        out.finite(point.error_percent, what + " error %")
        out.finite(point.speedup, what + " speedup")
        out.check(1 <= point.mean_samples <= max(state["sizes"].values()),
                  f"{what} mean samples {point.mean_samples}")
        out.stem_errors.append(point.error_percent)
        out.bound_violations += int(point.error_percent > point.epsilon * 100)
    out.digest_items = [[p.epsilon, p.speedup, p.error_percent, p.mean_samples]
                        for p in points]
    return out


WORKLOADS = {
    "sample-gpt2": (setup_sample, run_sample, check_sample),
    "dse-cycle": (setup_dse, run_dse_cycle, check_dse),
    "grid-rodinia-j2": (setup_grid, run_grid, check_grid),
    "sweep-sim": (setup_sweep, run_sweep, check_sweep),
}


def digest(items) -> str:
    text = json.dumps(items, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv) -> int:
    name, seed, workroot, mode = argv[0], int(argv[1]), argv[2], argv[3]
    slow_layer = argv[4] if len(argv) > 4 else None
    slow_seconds = float(argv[5]) if len(argv) > 5 else 0.0
    setup, run, check = WORKLOADS[name]
    if mode == "trace":
        from repro import obs

        import layers

        session = obs.configure()
        recorder = layers.install(slow_layer, slow_seconds)
    workdir = tempfile.mkdtemp(prefix="op-", dir=workroot)
    try:
        state = setup(seed, workdir)
        record = {"t_start": T_START, "t_import": T_IMPORT,
                  "t_setup": time.perf_counter()}
        if mode != "setup":
            output = run(state)
            record["t_done"] = time.perf_counter()
            outcome = check(state, output)
            record.update({
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                "kernels": outcome.kernels, "ops": outcome.ops,
                "failed": outcome.failed, "infeasible": outcome.infeasible,
                "stem_error_pct": float(np.mean(outcome.stem_errors)),
                "bound_violations": outcome.bound_violations,
                "problems": outcome.problems,
                "digest": digest(outcome.digest_items),
                "sim_version": SIM_VERSION,
            })
        if mode == "trace":
            record["layers"] = layers.collect(
                recorder, session, state.get("cache_dir")
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
