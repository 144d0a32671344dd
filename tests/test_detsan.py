"""Tests for the DetSan runtime determinism sanitizer.

Covers: canonical type-tagged hashing, the content-addressed assertion
table (pin, match, divergence with owning scopes), deliberate fault
injection for negative testing, the module-level enable/record/scope
API, the instrumentation hooks on the simulator and sampler, and the
``repro detsan`` cross-engine smoke's exit-code contract.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import detsan
from repro.analysis.detsan import DeterminismSanitizer, digest_of, index_digest
from repro.cli import main


@pytest.fixture(autouse=True)
def _detsan_off():
    """Every test starts and ends with the sanitizer disabled."""
    detsan.disable()
    yield
    detsan.disable()


class TestCanonicalHashing:
    def test_list_and_tuple_share_a_digest(self):
        # as_dict() on one engine path may yield tuples where another
        # yields lists; sequence identity is the contract, not the type.
        assert digest_of([1, 2.5, "x"]) == digest_of((1, 2.5, "x"))

    def test_dict_is_order_invariant(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})

    def test_numpy_arrays_hash_by_dtype_shape_bytes(self):
        a = np.arange(6, dtype=np.float64)
        assert digest_of(a) == digest_of(a.copy())
        assert digest_of(a) != digest_of(a.astype(np.float32))
        assert digest_of(a) != digest_of(a.reshape(2, 3))

    def test_numpy_scalar_matches_python_float(self):
        # np.float64 is a float subclass; a row built in-process and a
        # row round-tripped through a worker must hash identically.
        assert digest_of(np.float64(1.5)) == digest_of(1.5)

    def test_floats_are_bit_exact(self):
        assert digest_of(0.1 + 0.2) != digest_of(0.3)

    def test_type_tags_disambiguate(self):
        assert digest_of(1) != digest_of("1")
        assert digest_of(True) != digest_of(1)
        assert digest_of(None) != digest_of(0)

    def test_dataclasses_hash_by_fields(self):
        @dataclass
        class Row:
            name: str
            value: float

        assert digest_of(Row("a", 1.0)) == digest_of(Row("a", 1.0))
        assert digest_of(Row("a", 1.0)) != digest_of(Row("a", 2.0))

    def test_index_digest_is_stable(self):
        assert index_digest([1, 2, 3]) == index_digest(np.array([1, 2, 3]))
        assert index_digest([1, 2, 3]) != index_digest([3, 2, 1])


class TestAssertionTable:
    def test_matching_rerecord_is_not_a_divergence(self):
        san = DeterminismSanitizer()
        san.record("k", [1.0, 2.0])
        san.record("k", [1.0, 2.0])
        assert san.divergences == []
        assert san.coverage()["cross_checked_keys"] == 0  # same scope

    def test_divergence_reports_both_scopes_and_digests(self):
        san = DeterminismSanitizer()
        with san.scoped("engine=scalar"):
            san.record("sim.cycle|w|seed=0", [1.0])
        with san.scoped("engine=batch"):
            san.record("sim.cycle|w|seed=0", [2.0])
        assert len(san.divergences) == 1
        div = san.divergences[0]
        assert div.first_scope == "engine=scalar"
        assert div.scope == "engine=batch"
        assert div.first_digest != div.digest
        text = div.describe()
        assert "sim.cycle|w|seed=0" in text
        assert "engine=scalar" in text and "engine=batch" in text

    def test_first_divergence_per_key_is_kept(self):
        san = DeterminismSanitizer()
        san.record("k", 1)
        san.record("k", 2)
        san.record("k", 3)
        assert len(san.divergences) == 1

    def test_cross_checked_counts_multi_scope_keys(self):
        san = DeterminismSanitizer()
        with san.scoped("a"):
            san.record("k1", 1)
            san.record("k2", 1)
        with san.scoped("b"):
            san.record("k1", 1)
        cov = san.coverage()
        assert cov == {
            "keys": 2, "records": 3, "cross_checked_keys": 1, "divergences": 0,
        }

    def test_fault_perturbs_only_rerecords_of_matching_keys(self):
        san = DeterminismSanitizer(fault="sim.cycle")
        san.record("sim.cycle|w", [1.0])
        san.record("plan.draw|w", [1.0])
        san.record("plan.draw|w", [1.0])  # non-matching key: untouched
        assert san.divergences == []
        san.record("sim.cycle|w", [1.0])  # matching re-record: perturbed
        assert len(san.divergences) == 1
        assert san.divergences[0].key == "sim.cycle|w"

    def test_report_and_reset(self):
        san = DeterminismSanitizer()
        san.record("k", 1)
        assert "1 sync point(s)" in san.report()
        san.reset()
        assert san.coverage()["keys"] == 0


class TestModuleApi:
    def test_disabled_record_is_a_noop(self):
        assert not detsan.is_enabled()
        detsan.record("k", 1)  # must not raise
        assert detsan.get_sanitizer() is None

    def test_enable_scope_record(self):
        san = detsan.enable()
        assert detsan.is_enabled()
        with detsan.scope("cfg=a"):
            detsan.record("k", 1)
        with detsan.scope("cfg=b"):
            detsan.record("k", 2)
        assert len(san.divergences) == 1


class TestHooks:
    def test_scalar_and_batch_engines_cross_check_clean(self):
        from repro.hardware import RTX_2080
        from repro.sim import BatchPolicy, GpuSimulator
        from repro.workloads import load_workload

        workload = load_workload("rodinia", "bfs", scale=0.05, seed=0)
        san = detsan.enable()
        with detsan.scope("engine=scalar"):
            GpuSimulator(
                RTX_2080, batch_policy=BatchPolicy(enabled=False)
            ).simulate_workload(workload, seed=0)
        with detsan.scope("engine=batch"):
            GpuSimulator(
                RTX_2080, batch_policy=BatchPolicy(min_width=2)
            ).simulate_workload(workload, seed=0)
        cov = san.coverage()
        assert cov["cross_checked_keys"] > 0
        assert cov["divergences"] == 0

    def test_sampler_records_draws_only_when_seed_is_authoritative(self):
        from repro.baselines import ProfileStore
        from repro.core import StemRootSampler
        from repro.hardware import RTX_2080
        from repro.workloads import load_workload

        workload = load_workload("rodinia", "bfs", scale=0.05, seed=0)
        store = ProfileStore(workload, RTX_2080, seed=0)
        times = store.execution_times()

        san = detsan.enable()
        StemRootSampler().build_plan(workload, times, seed=0)
        assert san.records > 0

        recorded = san.records
        # An externally-threaded rng carries caller state the key cannot
        # capture: no records may be added.
        StemRootSampler().build_plan(
            workload, times, rng=np.random.default_rng(0), seed=0
        )
        assert san.records == recorded


class TestCli:
    def test_smoke_engine_pairings_clean(self, capsys):
        assert main(["detsan", "--skip-grid"]) == 0
        out = capsys.readouterr().out
        assert "0 divergence(s)" in out
        assert "bit-identical" in out

    def test_smoke_cross_checks_pooled_lanes(self, capsys):
        """With a fault on the pooled seed's key, the pooled scope is the
        one that diverges from its per-workload recording."""
        assert main(["detsan", "--skip-grid", "--fault", "seed=1|"]) == 1
        out = capsys.readouterr().out
        assert "[engine=scalar]" in out and "[engine=pooled]" in out

    def test_smoke_full_grid_clean(self, capsys):
        assert main(["detsan"]) == 0
        capsys.readouterr()

    def test_fault_injection_names_the_sync_point(self, capsys):
        assert main(["detsan", "--skip-grid", "--fault", "sim.cycle"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "sim.cycle|" in out

    def test_detsan_flag_on_a_workload_command(self, capsys):
        status = main([
            "sample", "rodinia", "bfs", "--scale", "0.05",
            "--detsan", "--no-ledger",
        ])
        assert status == 0
        err = capsys.readouterr().err
        assert "detsan:" in err
