"""End-to-end pipeline benchmark of ``repro`` with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-sim --seed 1 --seconds 55 --trace 0

One run is a closed loop with one client: it starts one operation — the
workload's whole pipeline in a fresh ``python3 perfbench/op.py``
process — waits for it, and starts the next, until ``--seconds`` is
used up.  Times run from process spawn to result.  ``--trace 0`` reports
the end-to-end metrics (medians over the run's operations); ``--trace
1`` alternates traced and untraced operations and reports the per-layer
metrics (medians over the traced ones).  The last line of standard
output is one JSON object; the lines before it give the environment
stamp and each operation's outputs digest.  See perfbench/README.md.
"""

import argparse
import collections
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP_TIMEOUT_S = 120
MIN_OPS = 3
MIN_SETUPS = 7

#: Worker processes each workload's pool uses; a workload is refused on
#: a machine with fewer cores, rather than recorded under its name.
#: ``sample-gpt2`` and ``dse-cycle`` are run by hand only: BENCHMARK.json
#: leaves them out (see perfbench/README.md).
WORKLOAD_JOBS = {
    "sample-gpt2": 1,
    "dse-cycle": 1,
    "grid-rodinia-j2": 2,
    "sweep-sim": 1,
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "kernels_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops": "count",
}

#: Self-time metric -> the layer it belongs to.  These partition the
#: traced wall clock, together with ``unattributed_share``.
SELF_METRICS = {
    "import.s": "import",
    "workloads.s": "workloads",
    "profiling.s": "profiling",
    "root.s": "core.root",
    "stem.s": "core.stem",
    "sampler.self_s": "core.sampler",
    "estimator.s": "core.estimator",
    "baselines.pka_s": "baselines",
    "baselines.sieve_s": "baselines",
    "baselines.photon_s": "baselines",
    "baselines.random_s": "baselines",
    "sim.trace_s": "sim.trace",
    "sim.wave_s": "sim.batch",
    "sim.noise_s": "sim.noise",
    "sim.post_self_s": "sim.simulator",
    "memo.sim_cache.load_s": "memo",
    "memo.sim_cache.store_s": "memo",
    "parallel.s": "parallel",
}

PER_LAYER_UNITS = {
    "import.s": "s",
    "workloads.s": "s", "workloads.launches": "count",
    "profiling.s": "s", "profiling.calls": "count",
    "root.s": "s", "root.groups": "count", "root.kmeans_calls": "count",
    "root.kmeans_points": "count", "root.leaves": "count",
    "stem.s": "s", "stem.clusters": "count",
    "sampler.s": "s", "sampler.self_s": "s", "sampler.samples": "count",
    "estimator.s": "s", "estimator.calls": "count",
    "baselines.pka_s": "s", "baselines.sieve_s": "s",
    "baselines.photon_s": "s", "baselines.random_s": "s",
    "baselines.infeasible": "count",
    "sim.trace_s": "s", "sim.traces": "count", "sim.traces_distinct": "count",
    "sim.wave_s": "s", "sim.lanes": "count", "sim.chunks": "count",
    "sim.fill_ratio": "ratio", "sim.scalar_lanes": "count",
    "sim.noise_s": "s", "sim.workload_s": "s", "sim.post_self_s": "s",
    "sim.insts": "count", "sim.insts_per_s": "1/s",
    "memo.sim_cache.hits": "count", "memo.sim_cache.misses": "count",
    "memo.sim_cache.stores": "count", "memo.sim_cache.load_s": "s",
    "memo.sim_cache.store_s": "s", "memo.sim_cache.bytes": "bytes",
    "memo.tree_cache.hits": "count", "memo.tree_cache.misses": "count",
    "memo.dedup.collapsed": "count",
    "parallel.s": "s", "parallel.tasks": "count",
    "parallel.payload_bytes": "bytes", "parallel.result_bytes": "bytes",
    "parallel.busy_s": "s", "parallel.efficiency": "ratio",
    "stem_error_pct": "%", "sample_speedup_x": "x", "bound_violations": "count",
    "unattributed_share": "ratio", "trace_overhead_s": "s",
}


class OpError(RuntimeError):
    """An operation process failed to produce a result."""


def env_stamp() -> dict:
    """Machine and program identity recorded with every result."""
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    with open(os.path.join(SRC, "repro", "memo", "sim_cache.py")) as fh:
        sim_version = int(re.search(r"^SIM_VERSION = (\d+)", fh.read(), re.M).group(1))
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for dirpath, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sim_version": sim_version,
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def run_op(workload, seed, mode, workroot, slow=None) -> dict:
    """Run one operation process in ``mode`` (run, trace or setup).

    Returns the process's record with host timings from spawn added.
    """
    cmd = [sys.executable, os.path.join(HERE, "op.py"), workload, str(seed),
           workroot, mode]
    if slow:
        cmd += [slow[0], repr(float(slow[1]))]
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=workroot)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpError(f"{workload} seed {seed}: no result in {OP_TIMEOUT_S} s")
    finally:
        # Pool workers live in the operation's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise OpError(f"{workload} seed {seed} exited {proc.returncode}:\n{err[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["mode"] = mode
    record["setup_s"] = record["t_setup"] - t_spawn
    record["import_s"] = record["t_import"] - t_spawn
    if mode != "setup":
        record["wall_s"] = record["t_done"] - t_spawn
    return record


def run_loop(workload, seed, seconds, trace, workroot) -> list:
    """Closed loop: operations one after another until the time is used.

    A next operation starts only if one more of the last one's length
    still fits, so a run lasts about ``seconds``.  Trace mode alternates
    traced and untraced operations and needs at least two of each.
    Otherwise, when fewer than ``MIN_SETUPS`` operations fit, the time
    left is spent on set-up-only processes, so that ``setup_s`` is a
    median of at least that many set-ups.
    """
    records = []
    start = time.perf_counter()
    while True:
        mode = "trace" if trace and len(records) % 2 == 0 else "run"
        records.append(run_op(workload, seed, mode, workroot))
        fit = max(1, int(seconds // records[0]["wall_s"]))
        reserve = 0.0 if trace else max(0, MIN_SETUPS - fit) * records[0]["setup_s"]
        elapsed = time.perf_counter() - start
        if (len(records) >= (4 if trace else MIN_OPS)
                and elapsed + records[-1]["wall_s"] > seconds - reserve):
            break
    while not trace and len(records) < MIN_SETUPS:
        records.append(run_op(workload, seed, "setup", workroot))
    return records


def end_to_end(records) -> dict:
    plain = [r for r in records if r["mode"] == "run"]
    return {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in records]),
        "kernels_per_s": median([r["kernels"] / (r["wall_s"] - r["setup_s"]) for r in plain]),
        "peak_rss_mb": median([(r["rss_kb"] + r["child_rss_kb"]) / 1024 for r in plain]),
        "ops": float(plain[0]["ops"]),
    }


def unattributed_share(record) -> float:
    """Traced process-seconds outside every named layer, as a share.

    The parent's wall clock is covered by the import phase and its
    top-level layer frames (a pool call counts whole); worker busy time
    by the workers' top-level frames.
    """
    layers = record["layers"]
    main_gap = record["wall_s"] - record["import_s"] - layers["_covered_main_s"]
    gap = max(0.0, main_gap) + layers["_worker_unattributed_s"]
    return gap / (record["wall_s"] + layers["_worker_busy_s"])


def per_layer(records) -> dict:
    traced = [r for r in records if r["mode"] == "trace"]
    plain = [r for r in records if r["mode"] == "run"]
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name in traced[0]["layers"]:
            metrics[name] = median([r["layers"][name] for r in traced])
    metrics["import.s"] = median([r["import_s"] for r in traced])
    metrics["sim.insts_per_s"] = median(
        [r["layers"]["sim.insts"] / (r["wall_s"] - r["setup_s"]) for r in traced]
    )
    metrics["stem_error_pct"] = traced[0]["stem_error_pct"]
    metrics["bound_violations"] = float(traced[0]["bound_violations"])
    metrics["unattributed_share"] = median([unattributed_share(r) for r in traced])
    metrics["trace_overhead_s"] = (
        median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
    )
    return metrics


def flag_layers(base: dict, new: dict) -> list:
    """Layers whose self time grew beyond host-speed noise, sorted.

    ``base`` and ``new`` map self-time metrics to seconds (per-layer
    medians).  A layer is named when its self time grew by 60% or more,
    by a quarter more than all other attributed time grew (a change of
    the host's speed moves every layer alike), and by at least 0.5% of
    the base's attributed time.
    """
    base_total = sum(base.get(m, 0.0) for m in SELF_METRICS)
    new_total = sum(new.get(m, 0.0) for m in SELF_METRICS)
    flagged = set()
    for metric, layer in SELF_METRICS.items():
        b, n = base.get(metric, 0.0), new.get(metric, 0.0)
        rest_growth = (new_total - n) / max(base_total - b, 1e-9)
        if n > 1.6 * b and n > 1.25 * rest_growth * b and n - b > 0.005 * base_total:
            flagged.add(layer)
    return sorted(flagged)


def tally(records):
    """(attempted, failed, digest) over a run's operations.

    Every operation of a run repeats the same inputs, so all must agree
    on the outputs digest; an operation with another digest, or whose
    output checks failed, counts all its cells as failed.
    """
    records = [r for r in records if r["mode"] != "setup"]
    digests = collections.Counter(r["digest"] for r in records)
    common = digests.most_common(1)[0][0]
    attempted = failed = 0
    for r in records:
        attempted += r["ops"]
        if r["problems"] or r["digest"] != common:
            failed += r["ops"]
        else:
            failed += r["failed"]
    return attempted, failed, common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    stamp = env_stamp()
    jobs = WORKLOAD_JOBS[args.workload]
    if stamp["nproc"] < jobs:
        print(f"perfbench: {args.workload} needs {jobs} cores, this machine "
              f"has {stamp['nproc']}; refusing to record it", file=sys.stderr)
        return 3

    workroot = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workroot)
    try:
        records = run_loop(args.workload, args.seed, args.seconds,
                           bool(args.trace), workroot)
    except OpError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    attempted, failed, digest = tally(records)
    print("env " + json.dumps(stamp, sort_keys=True))
    for r in records:
        if r["mode"] == "setup":
            print(f"op mode=setup setup_s={r['setup_s']:.4f}")
            continue
        print(f"op mode={r['mode']} wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"digest={r['digest']} sim_version={r['sim_version']} "
              f"stem_error_pct={r['stem_error_pct']:.6g} "
              f"bound_violations={r['bound_violations']} "
              f"infeasible={r['infeasible']} problems={r['problems']}")
    print(f"digest {digest} sim_version {stamp['sim_version']}")
    if args.trace:
        values, units = per_layer(records), PER_LAYER_UNITS
    else:
        values, units = end_to_end(records), END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
