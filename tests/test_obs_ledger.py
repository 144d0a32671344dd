"""Tests for the run ledger, profiling analysis, and the SLO gate.

Covers the second observability tier: RunRecord determinism and the
append-only JSONL ledger (including torn-line repair), self-time /
critical-path / collapsed-stack extraction, the resource monitor,
merge-order-independent metrics snapshots, thread-safe instruments,
Chrome-trace schema conformance, SLO budget checks, and the
``repro obs record/show/history/compare/check`` CLI verbs.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ReproError
from repro.obs.flame import normalize_events, self_times, span_forest
from repro.obs.ledger import git_revision, iter_numeric_leaves
from repro.obs.slo import (
    DEFAULT_TOLERANCES,
    comparable_leaves,
    compare_records,
    median_record_leaves,
    render_compare,
    render_violations,
)


def _record(command="bench", label="quick", config=None, metrics=None,
            timing=None):
    record = obs.build_run_record(
        command=command,
        label=label,
        config=dict(config or {"scale": 0.5}),
        extra_metrics=dict(metrics or {}),
    )
    if timing:
        record.timing.update(timing)
    return record


class TestRunRecord:
    def test_run_id_is_deterministic_identity_hash(self):
        a = _record(config={"scale": 0.5, "seed": 0})
        b = _record(config={"seed": 0, "scale": 0.5})  # key order irrelevant
        assert a.run_id == b.run_id
        assert len(a.run_id) == 16

    def test_run_id_changes_with_identity(self):
        base = _record()
        assert _record(label="full").run_id != base.run_id
        assert _record(config={"scale": 0.25}).run_id != base.run_id
        assert _record(command="other").run_id != base.run_id

    def test_identical_runs_diff_clean_outside_timing(self):
        a = _record(metrics={"speedup": 2.0})
        b = _record(metrics={"speedup": 2.0})
        assert a.deterministic_view() == b.deterministic_view()
        assert "timing" not in a.deterministic_view()
        # The wall clock lives only under timing.
        assert "timestamp" in a.timing

    def test_schema_version_stamped(self):
        assert _record().to_dict()["schema_version"] == obs.RUN_SCHEMA_VERSION


class TestRunLedger:
    def test_round_trip_lossless(self, tmp_path):
        ledger = obs.RunLedger(str(tmp_path / "runs"))
        original = _record(
            label="unicode ε",
            config={"scale": 0.5, "methods": ["stem", "root"], "nested": {"a": 1}},
            metrics={"speedup": 3.25, "ok": True},
        )
        ledger.append(original)
        loaded = ledger.read()
        assert len(loaded) == 1
        assert loaded[0].to_dict() == original.to_dict()
        assert loaded[0].run_id == original.run_id

    def test_seq_numbers_and_history(self, tmp_path):
        ledger = obs.RunLedger(str(tmp_path / "runs"))
        for i in range(3):
            ledger.append(_record(metrics={"i": i}))
        ledger.append(_record(command="other"))
        records = ledger.read()
        assert [r.timing["seq"] for r in records] == [0, 1, 2, 3]
        assert len(ledger.history(command="bench")) == 3
        assert ledger.latest(command="other").command == "other"
        prefix = records[0].run_id[:8]
        assert all(r.run_id.startswith(prefix)
                   for r in ledger.history(run_id=prefix))

    def test_torn_last_line_skipped_and_repaired(self, tmp_path):
        ledger = obs.RunLedger(str(tmp_path / "runs"))
        ledger.append(_record(metrics={"i": 0}))
        ledger.append(_record(metrics={"i": 1}))
        with open(ledger.path, "ab") as fh:  # crash mid-append
            fh.write(b'{"command": "torn", "metri')
        # Reads skip the torn line; good records survive untouched.
        records = ledger.read()
        assert [r.metrics["i"] for r in records] == [0, 1]
        # The next append repairs the missing newline first.
        ledger.append(_record(metrics={"i": 2}))
        records = ledger.read()
        assert [r.metrics["i"] for r in records] == [0, 1, 2]
        assert records[-1].timing["seq"] == 3  # torn line occupied seq 2
        with open(ledger.path, "rb") as fh:
            assert fh.read().endswith(b"\n")

    def test_groups_by_run_id(self, tmp_path):
        ledger = obs.RunLedger(str(tmp_path / "runs"))
        ledger.append(_record())
        ledger.append(_record())
        ledger.append(_record(label="full"))
        groups = ledger.groups()
        assert sorted(len(g) for g in groups.values()) == [1, 2]

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert obs.RunLedger(str(tmp_path / "nope")).read() == []


class TestGitRevision:
    def test_resolves_symref(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
        assert git_revision(str(tmp_path)) == "a" * 40

    def test_detached_head(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("b" * 40 + "\n")
        assert git_revision(str(tmp_path)) == "b" * 40

    def test_packed_refs_fallback(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled\n"
            + "c" * 40 + " refs/heads/main\n"
        )
        assert git_revision(str(tmp_path)) == "c" * 40

    def test_no_repo_returns_none(self, tmp_path):
        assert git_revision(str(tmp_path)) is None

    def test_repo_head_matches_current(self):
        rev = git_revision(os.path.dirname(os.path.dirname(__file__)))
        assert rev is None or (len(rev) == 40 and set(rev) <= set("0123456789abcdef"))


#: A synthetic two-level span forest (all on one thread):
#: root [0, 100) > a [10, 40) and b [50, 90); b > leaf [55, 65).
_EVENTS = [
    {"name": "root", "ts": 0.0, "dur": 100.0, "tid": 1},
    {"name": "a", "ts": 10.0, "dur": 30.0, "tid": 1},
    {"name": "b", "ts": 50.0, "dur": 40.0, "tid": 1},
    {"name": "leaf", "ts": 55.0, "dur": 10.0, "tid": 1},
]


class TestFlame:
    def test_span_forest_parents_and_self_time(self):
        events = normalize_events(_EVENTS)
        parents, self_us = span_forest(events)
        by_name = {e["name"]: i for i, e in enumerate(events)}
        assert parents[by_name["root"]] is None
        assert parents[by_name["a"]] == by_name["root"]
        assert parents[by_name["b"]] == by_name["root"]
        assert parents[by_name["leaf"]] == by_name["b"]
        assert self_us[by_name["root"]] == 30.0  # 100 - 30 - 40
        assert self_us[by_name["b"]] == 30.0     # 40 - 10
        assert self_times(events) == self_us

    def test_critical_path_follows_heaviest_descendants(self):
        path = obs.critical_path(_EVENTS)
        assert [s.name for s in path] == ["root", "b", "leaf"]
        assert [s.depth for s in path] == [0, 1, 2]
        assert path[1].dur_us == 40.0 and path[1].self_us == 30.0

    def test_critical_path_tie_breaks_deterministically(self):
        twins = [
            {"name": "z", "ts": 0.0, "dur": 10.0, "tid": 1},
            {"name": "a", "ts": 20.0, "dur": 10.0, "tid": 1},
        ]
        # Equal durations: the earlier-starting root wins.
        assert obs.critical_path(twins)[0].name == "z"

    def test_collapsed_stacks_sum_to_total_duration(self):
        stacks = obs.collapsed_stacks(_EVENTS)
        assert stacks == {
            "root": 30.0,
            "root;a": 30.0,
            "root;b": 30.0,
            "root;b;leaf": 10.0,
        }
        assert sum(stacks.values()) == 100.0

    def test_write_collapsed_sorted_integer_lines(self, tmp_path):
        events = _EVENTS + [{"name": "zero", "ts": 95.0, "dur": 0.0, "tid": 1}]
        path = tmp_path / "flame.txt"
        count = obs.write_collapsed(str(path), events)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 4  # zero-valued stack dropped
        assert lines == sorted(lines)
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0 and ";" not in value

    def test_collapsed_from_live_tracer(self):
        with obs.scoped() as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        stacks = obs.collapsed_stacks(session.tracer)
        assert any(key.startswith("outer;inner") for key in stacks)


class TestResourceMonitor:
    def test_snapshot_shape(self):
        with obs.ResourceMonitor(interval_s=0.01) as monitor:
            sum(range(10000))
        snap = monitor.snapshot()
        assert set(snap) == {
            "max_rss_kb", "cpu_user_s", "cpu_system_s", "wall_s", "samples",
        }
        assert snap["wall_s"] > 0
        if os.path.exists("/proc/self/status"):
            assert snap["max_rss_kb"] > 0 and snap["samples"] >= 1


class TestMergeOrderDeterminism:
    @staticmethod
    def _worker_state(seed):
        registry = obs.MetricsRegistry()
        registry.inc("shared.counter", seed)
        registry.inc(f"only.{seed}")
        registry.set_gauge("shared.gauge", float(seed))
        for i in range(100):
            registry.observe("shared.hist", float(i * seed))
        return registry.export_state()

    def test_snapshots_byte_identical_across_merge_order(self):
        w1, w2 = self._worker_state(1), self._worker_state(2)
        ab, ba = obs.MetricsRegistry(), obs.MetricsRegistry()
        ab.merge_state(w1)
        ab.merge_state(w2)
        ba.merge_state(w2)
        ba.merge_state(w1)
        dumps_ab = json.dumps(ab.snapshot(), sort_keys=True).encode()
        dumps_ba = json.dumps(ba.snapshot(), sort_keys=True).encode()
        assert dumps_ab == dumps_ba
        assert ab.snapshot()["counters"]["shared.counter"] == 3

    def test_parent_contributions_fold_with_workers(self):
        parent = obs.MetricsRegistry()
        parent.inc("shared.counter", 10)
        parent.merge_state(self._worker_state(1))
        snap = parent.snapshot()
        assert snap["counters"]["shared.counter"] == 11
        assert snap["gauges"]["shared.gauge"] == 1.0


class TestInstrumentThreadSafety:
    def test_counter_incs_are_not_lost(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("c")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(5000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40000

    def test_histogram_count_exact_under_threads(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("h")

        def work(base):
            for i in range(2000):
                hist.observe(float(base + i))

        threads = [threading.Thread(target=work, args=(k * 2000,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = hist.snapshot()
        assert snap["count"] == 8000
        assert len(hist._reservoir) == 4096


class TestChromeTraceSchema:
    def test_events_conform_to_trace_event_format(self, tmp_path):
        with obs.scoped() as session:
            with obs.span("outer", kind="test"):
                with obs.span("inner"):
                    pass
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), session.tracer)
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list) and payload["traceEvents"]
        for event in payload["traceEvents"]:
            # Complete-event ("X") schema of the Trace Event Format.
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if "args" in event:
                assert isinstance(event["args"], dict)
        # Round-trips through the loader used by `repro obs report`.
        assert len(obs.load_chrome_trace(str(path))) == len(payload["traceEvents"])


class TestSloChecks:
    def test_budgets_only_constrain_what_is_reported(self):
        budgets = obs.SloBudgets(
            max_wall_s=1.0,
            cache_hit_rate_min={"sim_cache": 0.5},
            metric_min={"speedup": 2.0},
        )
        # Record reports none of wall/cache/speedup: vacuously within SLO.
        assert obs.check_record(_record(), budgets) == []

    def test_each_budget_kind_breaches(self):
        budgets = obs.SloBudgets(
            max_wall_s=1.0,
            max_rss_kb=1000.0,
            epsilon_margin=1.5,
            phase_budget_s={"simulate": 0.5},
            cache_hit_rate_min={"sim_cache": 0.5},
            metric_min={"speedup": 2.0},
            metric_max={"overhead": 0.02},
        )
        record = _record(
            metrics={
                "speedup": 1.0,
                "overhead": 0.5,
                "cache": {"sim_cache": {"hit_rate": 0.1, "hits": 1, "misses": 9}},
                "epsilon": {"requested": 0.05, "achieved": 0.2},
            },
            timing={
                "wall_s": 2.0,
                "resource": {"max_rss_kb": 100.0},
                "workers": [{"worker": "grid-0", "max_rss_kb": 2000.0}],
                "phases": {"simulate": {"spans": 3, "total_s": 1.0, "self_s": 0.9}},
            },
        )
        violations = obs.check_record(record, budgets)
        keys = {v.key for v in violations}
        assert keys == {
            "timing.wall_s",
            "timing.max_rss_kb",  # worker peak, not the parent's 100 kB
            "timing.phases.simulate.self_s",
            "metrics.cache.sim_cache.hit_rate",
            "metrics.speedup",
            "metrics.overhead",
            "metrics.epsilon.achieved",
        }
        text = render_violations(violations, checked=1)
        assert "✗" in text and "budget" in text and "7 SLO breach(es)" in text

    def test_within_budget_is_clean(self):
        budgets = obs.SloBudgets(max_wall_s=10.0, metric_min={"speedup": 1.5})
        record = _record(metrics={"speedup": 3.0}, timing={"wall_s": 1.0})
        assert obs.check_record(record, budgets) == []
        assert "✓" in render_violations([], checked=1)


class TestBenchLedgerWallTime:
    """Bench ledger records carry the bench process's real wall time."""

    def test_bench_record_is_held_to_max_wall_s(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), "..", "benchmarks")
        )
        from _shared import write_bench_report

        from repro.obs.resource import process_age_s

        runs = tmp_path / "runs"
        monkeypatch.setenv(obs.RUNS_DIR_ENV, str(runs))
        write_bench_report(
            str(tmp_path / "BENCH_x.json"), {"rows": []}, command="bench_x"
        )
        (record,) = obs.RunLedger(str(runs)).read()
        if process_age_s() is None:
            pytest.skip("no /proc: process start time is unobservable")
        wall = record.timing["wall_s"]
        assert 0 < wall <= process_age_s() + 0.02
        assert obs.check_record(record, obs.SloBudgets(max_wall_s=wall + 1)) == []
        (breach,) = obs.check_record(record, obs.SloBudgets(max_wall_s=wall / 2))
        assert breach.key == "timing.wall_s" and breach.actual == wall


class TestSloLoading:
    def test_missing_pyproject_yields_empty_budgets(self, tmp_path):
        budgets = obs.load_slo_budgets(str(tmp_path / "nope.toml"))
        assert budgets.is_empty()

    def test_committed_budgets_parse(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        budgets = obs.load_slo_budgets(os.path.join(root, "pyproject.toml"))
        assert not budgets.is_empty()
        assert budgets.max_wall_s is not None
        assert budgets.metric_max.get("disabled_overhead") == 0.02
        assert budgets.tolerances["min_time_s"] > 0

    def test_unknown_compare_key_rejected(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[tool.repro.slo]\nmax_wall_s = 1.0\n"
            "[tool.repro.slo.compare]\ntypo_rel = 0.5\n"
        )
        with pytest.raises(ReproError, match="typo_rel"):
            obs.load_slo_budgets(str(path))

    def test_loaded_budgets_override_defaults(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[tool.repro.slo]\nmax_wall_s = 7.0\n"
            "[tool.repro.slo.compare]\nwall_rel = 0.9\n"
        )
        budgets = obs.load_slo_budgets(str(path))
        assert budgets.max_wall_s == 7.0
        assert budgets.tolerances["wall_rel"] == 0.9
        assert budgets.tolerances["rss_rel"] == DEFAULT_TOLERANCES["rss_rel"]


class TestCompare:
    @staticmethod
    def _pair(base_metrics, base_timing, cand_metrics, cand_timing):
        base = _record(metrics=base_metrics, timing=base_timing)
        cand = _record(metrics=cand_metrics, timing=cand_timing)
        return compare_records(
            cand, comparable_leaves(base), obs.SloBudgets()
        )

    def test_identical_runs_diff_clean(self):
        metrics = {"speedup": 2.0,
                   "cache": {"sim_cache": {"hit_rate": 0.9}}}
        rows = self._pair(metrics, {"wall_s": 1.0}, metrics, {"wall_s": 1.0})
        assert rows and not any(r.breach for r in rows)
        assert "✓" in render_compare(rows, only_breaches=True)

    def test_direction_wall_up_is_regression(self):
        rows = self._pair({}, {"wall_s": 1.0}, {}, {"wall_s": 2.0})
        wall = next(r for r in rows if r.key == "timing.wall_s")
        assert wall.breach and wall.tolerance_key == "wall_rel"
        # Faster is never a breach.
        rows = self._pair({}, {"wall_s": 2.0}, {}, {"wall_s": 1.0})
        assert not any(r.breach for r in rows)

    def test_direction_hit_rate_down_is_regression(self):
        base = {"cache": {"sim_cache": {"hit_rate": 0.9}}}
        cand = {"cache": {"sim_cache": {"hit_rate": 0.5}}}
        rows = self._pair(base, {}, cand, {})
        hit = next(r for r in rows if r.key.endswith("hit_rate"))
        assert hit.breach and hit.tolerance_key == "hit_rate_abs"
        # Within the absolute tolerance: fine.
        rows = self._pair(base, {}, {"cache": {"sim_cache": {"hit_rate": 0.85}}}, {})
        assert not any(r.breach for r in rows)

    def test_speedup_down_is_regression(self):
        rows = self._pair({"speedup": 4.0}, {}, {"speedup": 1.5}, {})
        assert any(r.breach and r.key == "metrics.speedup" for r in rows)

    def test_min_time_noise_floor_suppresses_tiny_walls(self):
        # +300% on a 2ms phase is scheduler jitter, not a regression.
        rows = self._pair({}, {"wall_s": 0.002}, {}, {"wall_s": 0.008})
        assert not any(r.breach for r in rows)

    def test_unclassified_keys_never_breach(self):
        rows = self._pair({"counters": {"root.split": 10}}, {},
                          {"counters": {"root.split": 99}}, {})
        row = next(r for r in rows if r.key.endswith("root.split"))
        assert row.tolerance_key is None and not row.breach

    def test_median_uses_common_leaves_only(self):
        records = [
            _record(metrics={"speedup": s}, timing={"wall_s": w})
            for s, w in ((1.0, 5.0), (3.0, 1.0), (2.0, 3.0))
        ]
        records[0].metrics["extra"] = 99.0
        medians = median_record_leaves(records)
        assert medians["metrics.speedup"] == 2.0
        assert medians["timing.wall_s"] == 3.0
        assert "metrics.extra" not in medians

    def test_iter_numeric_leaves_skips_bools_and_flattens(self):
        leaves = dict(iter_numeric_leaves(
            {"a": {"b": 1}, "ok": True, "xs": [1.5, {"y": 2}]}
        ))
        assert leaves == {"a.b": 1.0, "xs[0]": 1.5, "xs[1].y": 2.0}


class TestObsCli:
    def test_record_show_history(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main([
            "obs", "record", "nightly", "--label", "smoke",
            "--config", '{"scale": 0.5}',
            "--metric", "speedup=2.5", "--metric", "overhead=0.01",
            "--runs-dir", runs,
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out

        assert main(["obs", "show", "--runs-dir", runs]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["command"] == "nightly"
        assert shown["metrics"]["speedup"] == 2.5

        assert main(["obs", "history", "--runs-dir", runs]) == 0
        table = capsys.readouterr().out
        assert "nightly" in table and "smoke" in table

    def test_record_rejects_bad_metric(self, tmp_path, capsys):
        assert main([
            "obs", "record", "x", "--metric", "notanumber",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_show_empty_ledger_fails(self, tmp_path, capsys):
        assert main(["obs", "show", "--runs-dir", str(tmp_path / "r")]) == 1
        assert "no ledger record" in capsys.readouterr().err

    def test_check_breached_budget_exits_nonzero(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.slo.metric_max]\ndisabled_overhead = 0.02\n"
        )
        assert main([
            "obs", "record", "bench_obs", "--metric", "disabled_overhead=0.5",
            "--runs-dir", runs,
        ]) == 0
        capsys.readouterr()
        assert main([
            "obs", "check", "--runs-dir", runs,
            "--pyproject", str(pyproject),
        ]) == 1
        out = capsys.readouterr().out
        # The breach reads as a sentence: metric, actual, budget.
        assert "✗" in out
        assert "metrics.disabled_overhead" in out
        assert "0.5" in out and "0.02" in out
        assert "1 SLO breach(es)" in out

    def test_check_within_budget_exits_zero(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.slo.metric_max]\ndisabled_overhead = 0.02\n"
        )
        assert main([
            "obs", "record", "bench_obs", "--metric", "disabled_overhead=0.005",
            "--runs-dir", runs,
        ]) == 0
        capsys.readouterr()
        assert main([
            "obs", "check", "--runs-dir", runs,
            "--pyproject", str(pyproject),
        ]) == 0
        assert "✓ 1 record(s) within SLO budgets" in capsys.readouterr().out

    def test_check_empty_ledger_exits_two(self, tmp_path, capsys):
        assert main([
            "obs", "check", "--runs-dir", str(tmp_path / "runs"),
        ]) == 2
        assert "no ledger records" in capsys.readouterr().err

    def test_compare_identical_runs_clean(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        for _ in range(2):
            assert main([
                "obs", "record", "bench", "--metric", "speedup=2.0",
                "--runs-dir", runs,
            ]) == 0
        capsys.readouterr()
        assert main(["obs", "compare", "--runs-dir", runs]) == 0
        out = capsys.readouterr().out
        assert "candidate: run" in out

    def test_compare_flags_regression(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main([
            "obs", "record", "bench", "--metric", "speedup=4.0",
            "--runs-dir", runs,
        ]) == 0
        assert main([
            "obs", "record", "bench", "--metric", "speedup=1.0",
            "--runs-dir", runs,
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "compare", "--runs-dir", runs]) == 1
        out = capsys.readouterr().out
        assert "✗" in out and "metrics.speedup" in out
        assert "regression(s) beyond tolerance" in out


class TestCliLedgerIntegration:
    def test_sample_appends_deterministic_records(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        argv = ["sample", "rodinia", "bfs", "--scale", "0.5",
                "--runs-dir", runs]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        records = obs.RunLedger(runs).read()
        assert len(records) == 2
        first, second = records
        # Acceptance criterion: identical runs diff clean apart from
        # the explicitly-timed fields under `timing`.
        assert first.run_id == second.run_id
        assert first.deterministic_view() == second.deterministic_view()
        assert first.timing["seq"] != second.timing["seq"]
        # The record carries the pipeline's vitals.
        assert first.metrics["counters"]
        assert first.timing["wall_s"] > 0
        assert first.timing["resource"]["wall_s"] > 0

    def test_cli_record_carries_import_time(self, tmp_path):
        """A fresh ``python -m repro`` records its start-up as import_s."""
        import repro
        from repro.obs.resource import process_age_s

        if process_age_s() is None:
            pytest.skip("no /proc: process start time is unobservable")
        runs = str(tmp_path / "runs")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        started = time.monotonic()
        subprocess.run(
            [sys.executable, "-m", "repro", "sample", "rodinia", "bfs",
             "--scale", "0.5", "--runs-dir", runs],
            env=env, check=True, capture_output=True, timeout=300,
        )
        elapsed = time.monotonic() - started
        record = obs.RunLedger(runs).latest()
        import_s = record.timing["import_s"]
        assert 0.0 < import_s < elapsed

    def test_import_time_omitted_without_proc(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(obs.resource, "process_age_s", lambda: None)
        runs = str(tmp_path / "runs")
        assert main(["sample", "rodinia", "bfs", "--scale", "0.5",
                     "--runs-dir", runs]) == 0
        capsys.readouterr()
        record = obs.RunLedger(runs).latest()
        assert "import_s" not in record.timing
        assert record.timing["wall_s"] > 0

    def test_faulted_sample_records_epsilon_and_resilience(self, tmp_path,
                                                           capsys):
        runs = str(tmp_path / "runs")
        assert main([
            "sample", "rodinia", "bfs", "--scale", "0.5",
            "--faults", "seed=3,sim_fail=0.15,nan=0.02",
            "--runs-dir", runs,
        ]) == 0
        capsys.readouterr()
        record = obs.RunLedger(runs).latest()
        epsilon = record.metrics["epsilon"]
        assert epsilon["requested"] > 0
        assert epsilon["achieved"] is not None
        assert "resilience" in record.metrics

    def test_no_ledger_flag_disables_recording(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main([
            "sample", "rodinia", "bfs", "--scale", "0.5",
            "--runs-dir", str(runs), "--no-ledger",
        ]) == 0
        capsys.readouterr()
        assert not runs.exists()

    def test_flame_out_writes_collapsed_stacks(self, tmp_path, capsys):
        flame = tmp_path / "flame.txt"
        assert main([
            "sample", "rodinia", "bfs", "--scale", "0.5",
            "--flame-out", str(flame),
        ]) == 0
        capsys.readouterr()
        lines = flame.read_text().splitlines()
        assert lines == sorted(lines) and lines
        assert any("sampler.build_plan" in line for line in lines)

    def test_grid_record_carries_worker_resources(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main([
            "grid", "rodinia", "bfs", "--methods", "random,stem",
            "--repetitions", "2", "--scale", "0.4", "--jobs", "2",
            "--runs-dir", runs,
        ]) == 0
        capsys.readouterr()
        record = obs.RunLedger(runs).latest()
        workers = record.timing.get("workers", [])
        assert workers, "parallel run should report worker resource snaps"
        labels = [w["worker"] for w in workers]
        assert labels == sorted(labels)
        assert all("max_rss_kb" in w and "wall_s" in w for w in workers)
