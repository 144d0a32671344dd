"""Shared machinery for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper.  Run
with ``pytest benchmarks/ --benchmark-only -s`` to see the rendered
paper-vs-measured tables (pytest captures stdout without ``-s``).

Scale control: benches default to reduced workload scales and 3
repetitions so the whole harness completes in minutes.  Set
``REPRO_BENCH_FULL=1`` for paper-scale workloads and 10 repetitions.
EXPERIMENTS.md records results from a full run.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentConfig, ResultRow, run_suite
from repro.experiments.speedup_error import summarize

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Schema tag stamped into every BENCH_*.json this harness writes.
BENCH_SCHEMA_VERSION = 1

#: (workload_scale, repetitions) per suite at bench scale.
SUITE_SETTINGS: Dict[str, Tuple[float, int]] = (
    {
        "rodinia": (1.0, 10),
        "casio": (1.0, 10),
        "huggingface": (0.5, 5),
    }
    if FULL
    else {
        "rodinia": (1.0, 3),
        "casio": (0.25, 3),
        "huggingface": (0.05, 2),
    }
)


def suite_config(suite: str) -> ExperimentConfig:
    scale, reps = SUITE_SETTINGS[suite]
    return ExperimentConfig(repetitions=reps, workload_scale=scale)


@lru_cache(maxsize=None)
def suite_rows(suite: str) -> Tuple[ResultRow, ...]:
    """Run (and cache) the full method grid for one suite."""
    return tuple(run_suite(suite, config=suite_config(suite)))


def table3_summaries(suites: Tuple[str, ...] = ("rodinia", "casio", "huggingface")):
    rows: List[ResultRow] = []
    for suite in suites:
        rows.extend(suite_rows(suite))
    return rows, summarize(rows)


@lru_cache(maxsize=None)
def dse_results():
    """Run (and cache) the DSE grid shared by Table 4 and Figure 12."""
    from repro.experiments.dse import default_dse_workloads, run_dse

    max_inv = 200 if FULL else 100
    reps = 3 if FULL else 2
    return tuple(run_dse(workloads=default_dse_workloads(max_inv), repetitions=reps))


def show(text: str) -> None:
    """Print a rendered table with a blank line around it."""
    print("\n" + text + "\n")


def machine_stamp() -> Dict[str, object]:
    """Where a BENCH file was measured: platform, interpreter, numpy, CPUs."""
    import platform

    import numpy as np

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def write_bench_report(
    path: str,
    payload: Dict[str, object],
    command: str,
    label: str = "",
    config: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write one BENCH_*.json and append a matching run-ledger record.

    Stamps ``schema_version`` into the payload, then records the run in
    the ledger (``$REPRO_RUNS_DIR`` or ``.repro/runs``; an empty
    ``REPRO_RUNS_DIR`` disables recording).  ``metrics`` are the
    SLO-relevant numbers (``warm_sweep_speedup``, cache hit rates, …)
    that ``repro obs check`` enforces budgets against; ``config`` is the
    run's identity (scale, repetitions, jobs) and feeds the record's
    ``run_id`` so histories group correctly.
    """
    from repro import obs
    from repro.obs.resource import process_age_s

    payload = dict(payload)
    payload.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    runs_dir = os.environ.get(obs.RUNS_DIR_ENV)
    if runs_dir is None:
        runs_dir = obs.DEFAULT_RUNS_DIR
    if runs_dir:
        record = obs.build_run_record(
            command=command,
            label=label,
            config=dict(config or {}),
            extra_metrics=dict(metrics or {}),
        )
        # The whole bench process, imports included, so `repro obs
        # check` can hold it to `max_wall_s`.
        wall_s = process_age_s()
        if wall_s is not None:
            record.timing["wall_s"] = round(wall_s, 3)
        ledger = obs.RunLedger(runs_dir)
        ledger.append(record)
        print(f"ledger: run {record.run_id} appended to {ledger.path}")
    return payload
