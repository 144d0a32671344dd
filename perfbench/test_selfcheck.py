"""Self-checks of the benchmark's layer attribution.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench -q

The slowdown check doubles one layer's time — each traced operation
sleeps once inside that layer's first call, for as long as the layer
took in the baseline — and requires the per-layer comparison of
medians over three traced operations to name that layer and no other.
"""

import os
import shutil
import statistics
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

SEED = 7

#: (layer as reported, recorder layer to slow, its self-time metric, workload)
SLOWDOWNS = [
    ("core.root", "root", "root.s", "sample-gpt2"),
    ("sim.trace", "sim.trace", "sim.trace_s", "dse-cycle"),
    ("parallel", "parallel", "parallel.s", "grid-rodinia-j2"),
]


@pytest.fixture
def workroot():
    os.makedirs(os.path.join(bench.ROOT, ".perfbench-work"), exist_ok=True)
    path = tempfile.mkdtemp(dir=os.path.join(bench.ROOT, ".perfbench-work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _median_self_times(workload, workroot, slow=None, n=3):
    """Per-layer self-time medians over ``n`` traced operations."""
    records = [bench.run_op(workload, SEED, "trace", workroot, slow=slow)
               for _ in range(n)]
    assert len({r["digest"] for r in records}) == 1
    times = {
        m: statistics.median(r["layers"].get(m, 0.0) for r in records)
        for m in bench.SELF_METRICS
    }
    times["import.s"] = statistics.median(r["import_s"] for r in records)
    return times, records[0]["digest"]


def test_uniform_drift_names_no_layer():
    base = {m: 1.0 for m in bench.SELF_METRICS}
    drifted = {m: 1.45 for m in bench.SELF_METRICS}
    assert bench.flag_layers(base, drifted) == []


def test_doubled_layer_is_named_under_drift():
    base = {m: 1.0 for m in bench.SELF_METRICS}
    new = {m: 1.3 for m in bench.SELF_METRICS}
    new["sim.trace_s"] = 2.6
    assert bench.flag_layers(base, new) == ["sim.trace"]


@pytest.mark.parametrize("layer,slow,metric,workload", SLOWDOWNS)
def test_doubling_one_layer_names_only_that_layer(workroot, layer, slow, metric, workload):
    if len(os.sched_getaffinity(0)) < bench.WORKLOAD_JOBS[workload]:
        pytest.skip(f"{workload} needs {bench.WORKLOAD_JOBS[workload]} cores")
    base, digest = _median_self_times(workload, workroot)
    assert base[metric] > 0, f"{metric} is empty on {workload}"
    slowed, slowed_digest = _median_self_times(
        workload, workroot, slow=(slow, base[metric])
    )
    assert slowed_digest == digest
    assert bench.flag_layers(base, slowed) == [layer], (base, slowed)
