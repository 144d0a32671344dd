"""Benchmark the batched SoA wave engine against the scalar event loop.

Standalone script (like ``bench_memo.py``, not pytest-driven).  Two
measurements per workload, both gated on *bit-identity* — equality
failures exit non-zero at any scale, they are the acceptance criterion:

1. **engine** — generate every trace once (timed as
   ``trace_seconds``), then time the scalar per-trace event loop
   against :func:`repro.sim.batch.execute_wave_batch` over the same
   traces.  This isolates the lock-step engine itself;
   ``sim_batch_speedup`` (geometric mean across workloads) is the
   SLO-gated number.
2. **end-to-end** — ``simulate_workload`` with the default batching
   policy vs. with batching disabled.  Includes trace generation and
   post-processing, so it is the user-visible win (smaller than the
   engine ratio because trace generation is shared by both paths).
3. **pooled** — the CASIO suite's traces through one engine call per
   workload vs. one engine call over every workload's lanes (what
   ``GpuSimulator.simulate_workloads`` does).  Pooling gives the
   lock-step engine fewer, wider chunks.

Usage::

    python benchmarks/bench_simbatch.py --quick
    python benchmarks/bench_simbatch.py --out BENCH_simbatch.json

``--quick`` shrinks the workloads so CI finishes in well under a
minute.  The default scale runs Table-4-sized workload sweeps
(thousands of invocations per network) where the engine shows its >=5x.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _shared import machine_stamp, write_bench_report

import numpy as np

from repro.hardware import RTX_2080
from repro.sim import BatchPolicy, GpuSimulator, execute_wave_batch
from repro.sim.simulator import _EVENT_FIELDS
from repro.workloads import load_suite, load_workload

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def geomean(values: List[float]) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


def results_equal(a, b) -> bool:
    if len(a.kernel_results) != len(b.kernel_results):
        return False
    for ra, rb in zip(a.kernel_results, b.kernel_results):
        if (
            ra.invocation_index != rb.invocation_index
            or ra.cycles != rb.cycles
            or ra.wave_cycles != rb.wave_cycles
            or ra.stats.as_dict() != rb.stats.as_dict()
        ):
            return False
    return a.aggregate.as_dict() == b.aggregate.as_dict()


def bench_engine(suite: str, name: str, scale: float, seed: int) -> Dict[str, object]:
    """Scalar event loop vs lock-step engine over identical traces."""
    workload = load_workload(suite, name, scale=scale, seed=0)
    sim = GpuSimulator(RTX_2080)
    traces, trace_s = timed(lambda: [
        sim.tracer.generate(workload.invocation(i), seed=seed)
        for i in range(len(workload))
    ])

    scalar, scalar_s = timed(lambda: [sim._execute_trace(t) for t in traces])
    (batched, report), batched_s = timed(
        lambda: execute_wave_batch(traces, sim.latencies, sim.config, sim.batch_policy)
    )

    identical = all(
        sc == bc and ss.as_dict() == bs.as_dict()
        for (sc, ss), (bc, bs) in zip(scalar, batched)
    )
    return {
        "workload": f"{suite}/{name}",
        "scale": scale,
        "invocations": len(traces),
        "trace_seconds": trace_s,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": (scalar_s / batched_s) if batched_s > 0 else None,
        "identical": identical,
        "batched_lanes": report.batched_lanes,
        "scalar_lanes": report.scalar_lanes,
        "chunks": report.chunks,
        "fill_ratio": report.fill_ratio,
    }


def bench_end_to_end(
    suite: str, name: str, scale: float, seed: int
) -> Dict[str, object]:
    """simulate_workload with batching on (default) vs off."""
    workload = load_workload(suite, name, scale=scale, seed=0)

    on, on_s = timed(
        lambda: GpuSimulator(RTX_2080).simulate_workload(workload, seed=seed)
    )
    off, off_s = timed(
        lambda: GpuSimulator(
            RTX_2080, batch_policy=BatchPolicy(enabled=False)
        ).simulate_workload(workload, seed=seed)
    )
    return {
        "workload": f"{suite}/{name}",
        "scale": scale,
        "invocations": len(workload),
        "batched_seconds": on_s,
        "scalar_seconds": off_s,
        "speedup": (off_s / on_s) if on_s > 0 else None,
        "identical": results_equal(on, off),
    }


def bench_pooled(suite: str, scale: float, seed: int) -> Dict[str, object]:
    """One engine call per workload vs one call pooling every workload."""
    sim = GpuSimulator(RTX_2080)
    per_workload, trace_s = timed(lambda: [
        [sim.tracer.generate(w.invocation(i), seed=seed) for i in range(len(w))]
        for w in load_suite(suite, scale=scale, seed=0)
    ])
    policy = sim.batch_policy

    def run(batches):
        results, chunks = [], 0
        for traces in batches:
            pairs, report = execute_wave_batch(traces, sim.latencies, sim.config, policy)
            results.extend(pairs)
            chunks += report.chunks
        return results, chunks

    (separate, separate_chunks), separate_s = timed(lambda: run(per_workload))
    pooled_traces = [t for traces in per_workload for t in traces]
    (pooled, pooled_chunks), pooled_s = timed(lambda: run([pooled_traces]))
    identical = len(separate) == len(pooled) and all(
        sc == pc and ss.as_dict() == ps.as_dict()
        for (sc, ss), (pc, ps) in zip(separate, pooled)
    )
    return {
        "workload": f"{suite} ({len(per_workload)} workloads)",
        "scale": scale,
        "invocations": len(pooled_traces),
        "trace_seconds": trace_s,
        "per_workload_seconds": separate_s,
        "pooled_seconds": pooled_s,
        "speedup": (separate_s / pooled_s) if pooled_s > 0 else None,
        "per_workload_chunks": separate_chunks,
        "pooled_chunks": pooled_chunks,
        "identical": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny workloads for CI smoke runs (finishes in seconds)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_simbatch.json",
        help="output report path (default BENCH_simbatch.json)",
    )
    args = parser.parse_args(argv)

    if FULL:
        engine_specs = [
            ("huggingface", "gpt2", 0.002),
            ("huggingface", "deit", 0.002),
            ("huggingface", "resnet50", 0.002),
            ("huggingface", "bloom", 0.002),
            ("rodinia", "cfd", 0.1),
        ]
        e2e_specs = [("huggingface", "deit", 0.002), ("rodinia", "srad", 0.1)]
        pooled_scale = 0.003
    elif args.quick:
        engine_specs = [
            ("rodinia", "cfd", 0.1),
            ("rodinia", "srad", 0.1),
        ]
        e2e_specs = [("rodinia", "srad", 0.1)]
        pooled_scale = 0.001
    else:
        engine_specs = [
            ("huggingface", "gpt2", 0.002),
            ("huggingface", "deit", 0.002),
            ("huggingface", "resnet50", 0.002),
        ]
        e2e_specs = [("huggingface", "deit", 0.002)]
        pooled_scale = 0.003

    report: Dict[str, object] = {
        "quick": bool(args.quick),
        "full": FULL,
        "cpu_count": os.cpu_count(),
        "machine": machine_stamp(),
        "event_fields": len(_EVENT_FIELDS),
    }

    engine_rows = []
    for suite, name, scale in engine_specs:
        row = bench_engine(suite, name, scale, seed=0)
        engine_rows.append(row)
        print(
            f"engine {row['workload']:24s} n={row['invocations']:5d} "
            f"traces {row['trace_seconds']:5.2f}s, scalar {row['scalar_seconds']:7.2f}s -> batched "
            f"{row['batched_seconds']:6.2f}s ({row['speedup']:.2f}x) "
            f"fill={row['fill_ratio']:.2f} identical={row['identical']}"
        )
    report["engine"] = engine_rows

    e2e_rows = []
    for suite, name, scale in e2e_specs:
        row = bench_end_to_end(suite, name, scale, seed=0)
        e2e_rows.append(row)
        print(
            f"e2e    {row['workload']:24s} n={row['invocations']:5d} "
            f"scalar {row['scalar_seconds']:7.2f}s -> batched "
            f"{row['batched_seconds']:6.2f}s ({row['speedup']:.2f}x) "
            f"identical={row['identical']}"
        )
    report["end_to_end"] = e2e_rows

    pooled_row = bench_pooled("casio", pooled_scale, seed=0)
    print(
        f"pooled {pooled_row['workload']:24s} n={pooled_row['invocations']:5d} "
        f"traces {pooled_row['trace_seconds']:5.2f}s, per-workload {pooled_row['per_workload_seconds']:6.2f}s "
        f"({pooled_row['per_workload_chunks']} chunks) -> pooled "
        f"{pooled_row['pooled_seconds']:6.2f}s ({pooled_row['pooled_chunks']} chunks, "
        f"{pooled_row['speedup']:.2f}x) identical={pooled_row['identical']}"
    )
    report["pooled"] = pooled_row

    engine_speedup = geomean([row["speedup"] for row in engine_rows])
    e2e_speedup = geomean([row["speedup"] for row in e2e_rows])
    parity = all(
        row["identical"] for row in engine_rows + e2e_rows + [pooled_row]
    )
    report["engine_speedup_geomean"] = engine_speedup
    report["end_to_end_speedup_geomean"] = e2e_speedup
    report["all_identical"] = parity
    print(
        f"engine speedup (geomean) {engine_speedup:.2f}x, "
        f"end-to-end {e2e_speedup:.2f}x, pooled {pooled_row['speedup']:.2f}x, "
        f"parity={'OK' if parity else 'FAIL'}"
    )

    write_bench_report(
        args.out,
        report,
        command="bench_simbatch",
        label="quick" if args.quick else ("full" if FULL else "default"),
        config={
            "quick": bool(args.quick),
            "full": FULL,
            "engine_workloads": [r["workload"] for r in engine_rows],
        },
        metrics={
            "sim_batch_speedup": engine_speedup,
            "sim_batch_e2e_speedup": e2e_speedup,
            "sim_batch_pooled_speedup": pooled_row["speedup"],
            # Float on purpose: `repro obs check` metric floors skip bools.
            "sim_batch_parity": 1.0 if parity else 0.0,
        },
    )
    return 0 if parity else 1


if __name__ == "__main__":
    raise SystemExit(main())
