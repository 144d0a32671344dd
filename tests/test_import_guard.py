"""The pipeline never loads scipy.

``import scipy.stats`` costs more than a second of cold start, which every
CLI call, benchmark operation and pool worker would pay.  The pipeline's
two scipy needs have numpy/stdlib stand-ins (``core.stem.z_score``,
``core.clustering.count_kde_peaks``); only TBPoint, an extra method
outside ``METHODS``, imports ``scipy.cluster.hierarchy``, and only when
it clusters.  Each case runs in a fresh interpreter, so what the test
process itself imported cannot mask a module-level scipy import.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

SETUP = """
import sys

import repro
import repro.cli
from repro.baselines import ProfileStore, SieveSampler, TbpointSampler
from repro.core import StemRootSampler
from repro.experiments.runner import ExperimentConfig
from repro.hardware import RTX_2080
from repro.parallel.grid import execute_grid
from repro.workloads import load_workload

workload = load_workload("rodinia", "bfs", scale=0.5, seed=0)
store = ProfileStore(workload, RTX_2080, seed=0)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(body: str) -> str:
    code = SETUP + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_RUNS_DIR="")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout.strip()


def test_pipeline_never_imports_scipy():
    out = _run("""
        stem = StemRootSampler(epsilon=0.05).build_plan_from_store(store)
        sieve = SieveSampler(use_kde=True).build_plan(store, seed=0)
        rows = execute_grid(
            [workload],
            ExperimentConfig(repetitions=1, workload_scale=0.5),
            methods=["sieve"],
            jobs=1,
        )
        assert stem.clusters and sieve.clusters and len(rows) == 1
        print(scipy_modules())
    """)
    assert out == "[]"


def test_tbpoint_loads_only_the_hierarchy_module():
    out = _run("""
        plan = TbpointSampler().build_plan(store, seed=0)
        assert plan.method == "tbpoint" and plan.clusters
        loaded = scipy_modules()
        assert "scipy.cluster.hierarchy" in loaded, loaded
        print("scipy.stats" in loaded)
    """)
    assert out == "False"
