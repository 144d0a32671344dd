"""Tests for the observability layer (repro.obs)."""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.baselines import ProfileStore
from repro.core import StemRootSampler, evaluate_plan
from repro.hardware import get_preset
from repro.workloads import load_workload


def _small_store(scale=0.5, seed=0):
    workload = load_workload("rodinia", "bfs", scale=scale, seed=seed)
    return ProfileStore(workload, get_preset("rtx2080"), seed=seed)


class TestTracer:
    def test_span_nesting(self):
        tracer = obs.Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.depth == 0
        names = [s.name for s in tracer.finished()]
        assert names == ["inner", "outer"]  # completion order

    def test_span_timing_and_attrs(self):
        tracer = obs.Tracer()
        with tracer.span("work", workload="bfs") as sp:
            sp.attrs["extra"] = 7
        assert sp.dur_us >= 0.0
        assert sp.attrs == {"workload": "bfs", "extra": 7}
        assert sp.status == "ok"

    def test_exception_safety(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fails"):
                raise ValueError("boom")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"
        assert tracer.current() is None  # stack unwound

    def test_thread_safety(self):
        tracer = obs.Tracer()

        def worker():
            for _ in range(50):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.finished()
        assert len(spans) == 4 * 50 * 2
        # Nesting stayed per-thread: every inner's parent is on its thread.
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.name == "inner":
                assert by_id[s.parent_id].thread_id == s.thread_id


class TestNoopMode:
    def test_disabled_produces_zero_events(self):
        assert not obs.is_enabled()
        with obs.span("nothing", attr=1):
            obs.inc("some.counter", 5)
            obs.observe("some.hist", 1.0)
            obs.set_gauge("some.gauge", 2.0)
            obs.log_event("some.event", detail="x")
        # A later session sees none of it.
        with obs.scoped() as session:
            assert len(session.tracer) == 0
            assert session.metrics.snapshot() == {
                "counters": {}, "gauges": {}, "histograms": {}
            }
            assert len(session.events) == 0

    def test_noop_span_attr_writes_discarded(self):
        with obs.span("x") as sp:
            sp.attrs["k"] = "v"
        assert obs.NOOP_SPAN.attrs == {}

    def test_scoped_restores_previous_state(self):
        assert obs.current() is None
        with obs.scoped() as session:
            assert obs.current() is session
            with obs.scoped() as nested:
                assert obs.current() is nested
            assert obs.current() is session
        assert obs.current() is None

    def test_pipeline_bit_identical_with_and_without_obs(self):
        plain = StemRootSampler().build_plan_from_store(_small_store(), seed=0)
        with obs.scoped():
            traced = StemRootSampler().build_plan_from_store(
                _small_store(), seed=0
            )
        assert plain.to_json() == traced.to_json()


class TestMetrics:
    def test_counter_gauge(self):
        reg = obs.MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 2.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5

    def test_histogram_percentiles(self):
        h = obs.Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.min == 1.0 and h.max == 100.0
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_histogram_reservoir_bounded_and_deterministic(self):
        a, b = obs.Histogram("a"), obs.Histogram("b")
        for v in range(20_000):
            a.observe(float(v))
            b.observe(float(v))
        assert len(a._reservoir) == 4096
        assert a.snapshot() == b.snapshot()
        # Percentiles still roughly track the true distribution.
        assert a.percentile(50) == pytest.approx(10_000, rel=0.1)

    def test_histogram_reservoir_stream_pinned(self):
        # Pinned: the reservoir's replacement stream (repro.seeding's
        # SplitMix64) may not change, or obs snapshots change with it.
        import hashlib

        from repro.obs.metrics import _SplitMix64

        h = obs.Histogram("h")
        for v in range(10_000):
            h.observe(float(v * 7 % 10_007))
        reservoir = h._reservoir
        digest = hashlib.sha256(json.dumps(reservoir).encode()).hexdigest()
        assert digest[:16] == "aa0fcfde1a31e702"
        assert reservoir[4090:] == [8616.0, 9750.0, 9721.0, 8637.0, 7670.0, 8135.0]
        assert (h.percentile(50), h.percentile(90), h.percentile(99)) == (
            5030.0, 8984.0, 9901.0
        )
        rng = _SplitMix64(0xC0FFEE)
        assert [rng.randrange(2**64) for _ in range(3)] == [
            14592251008053203194, 17069869281103512697, 9781417775987323851
        ]

    def test_empty_histogram_snapshot(self):
        assert obs.Histogram("e").snapshot()["count"] == 0


class TestExport:
    def test_chrome_trace_round_trips_through_json(self, tmp_path):
        with obs.scoped() as session:
            with obs.span("sampler.build_plan", workload="bfs"):
                with obs.span("root.split", invocations=np.int64(7)):
                    pass
            path = tmp_path / "trace.json"
            count = session.write_trace(str(path))
        assert count == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e["name"] for e in events} == {"sampler.build_plan", "root.split"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
        # numpy attr values were coerced to JSON natives.
        (root,) = [e for e in events if e["name"] == "root.split"]
        assert root["args"]["invocations"] == 7
        # And the loader reads the same events back.
        assert len(obs.load_chrome_trace(str(path))) == 2

    def test_metrics_json_round_trip(self, tmp_path):
        with obs.scoped() as session:
            obs.inc("root.splits_accepted", 3)
            obs.observe("root.split_depth", 2.0)
            path = tmp_path / "metrics.json"
            session.write_metrics(str(path))
        loaded = obs.load_metrics_json(str(path))
        assert loaded["counters"]["root.splits_accepted"] == 3
        assert loaded["histograms"]["root.split_depth"]["count"] == 1


class TestEvents:
    def test_level_filtering(self):
        log = obs.EventLog(level="info")
        assert not log.emit("quiet", level="debug")
        assert log.emit("loud", level="warning")
        assert [r["event"] for r in log.records()] == ["loud"]

    def test_jsonl_lines_are_strict_json(self, tmp_path):
        log = obs.EventLog(level="debug")
        log.emit("x", value=np.float64(1.5), inf=float("inf"), arr=[1, 2])
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(path)) == 1
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record["value"] == 1.5
        assert record["inf"] == "inf"
        assert record["arr"] == [1, 2]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs.EventLog(level="loud")


class TestRunReport:
    def test_phases_and_self_time(self):
        with obs.scoped() as session:
            plan = StemRootSampler().build_plan_from_store(
                _small_store(), seed=0
            )
            evaluate_plan(plan, _small_store().execution_times())
            report = session.run_report()
        for phase in ("profile", "cluster", "plan", "simulate"):
            assert phase in report.phases, phase
            assert report.phases[phase].self_us > 0.0
        # Self-time never exceeds total span time.
        for summary in report.phases.values():
            assert summary.self_us <= summary.total_us + 1e-6
        text = report.to_text()
        assert "Wall-clock by phase" in text
        assert "root.splits_accepted" in text

    def test_report_from_saved_files_matches_live(self, tmp_path):
        with obs.scoped() as session:
            plan = StemRootSampler().build_plan_from_store(
                _small_store(), seed=0
            )
            evaluate_plan(plan, _small_store().execution_times())
            live = session.run_report()
            trace_path = tmp_path / "t.json"
            metrics_path = tmp_path / "m.json"
            session.write_trace(str(trace_path))
            session.write_metrics(str(metrics_path))
        loaded = obs.build_run_report(
            obs.load_chrome_trace(str(trace_path)),
            obs.load_metrics_json(str(metrics_path)),
        )
        assert set(loaded.phases) == set(live.phases)
        for phase, summary in live.phases.items():
            assert loaded.phases[phase].spans == summary.spans
            assert loaded.phases[phase].self_us == pytest.approx(
                summary.self_us, rel=1e-6
            )
        assert loaded.counters == live.counters


class TestInstrumentation:
    def test_sample_pipeline_populates_series(self):
        with obs.scoped() as session:
            store = _small_store()
            plan = StemRootSampler().build_plan_from_store(store, seed=0)
            evaluate_plan(plan, store.execution_times())
            snap = session.metrics.snapshot()
        assert snap["counters"]["root.splits_accepted"] > 0
        assert snap["counters"]["stem.kkt_calls"] > 0
        assert snap["counters"]["sim.kernels_executed"] > 0
        assert snap["counters"]["sampler.samples_allocated"] == plan.num_samples
        assert snap["histograms"]["root.split_depth"]["count"] > 0
        span_names = {s.name for s in session.tracer.finished()}
        assert {"profile.nsys", "root.split", "sampler.build_plan",
                "sampler.allocate", "sim.evaluate_plan"} <= span_names

    def test_debug_events_record_split_decisions(self):
        with obs.scoped(log_level="debug") as session:
            StemRootSampler().build_plan_from_store(_small_store(), seed=0)
            decisions = session.events.records("root.split_decision")
        assert decisions
        for record in decisions:
            assert set(record) >= {"depth", "size", "accepted",
                                   "tau_old", "tau_new"}
        accepted = sum(bool(r["accepted"]) for r in decisions)
        assert accepted == session.metrics.counter("root.splits_accepted").value

    def test_simulator_metrics(self):
        from repro.sim import GpuSimulator

        with obs.scoped() as session:
            workload = load_workload("rodinia", "bfs", scale=0.2, seed=0)
            GpuSimulator(get_preset("rtx2080")).simulate_workload(
                workload, indices=range(3), seed=0
            )
            snap = session.metrics.snapshot()
        assert snap["counters"]["sim.kernels_executed"] == 3
        assert snap["histograms"]["sim.kernel_cycles"]["count"] == 3

    def test_scalability_uses_spans(self):
        from repro.experiments.scalability import run_scalability

        with obs.scoped() as session:
            points = run_scalability(scales=(0.02, 0.05), suite="rodinia",
                                     workload_name="bfs")
            profile_spans = session.tracer.find("profile.scalability")
            plan_spans = session.tracer.find("sampler.scalability")
        assert len(points) == 2
        assert len(profile_spans) == len(plan_spans) == 2
        for point, prof, plan in zip(points, profile_spans, plan_spans):
            assert point.profile_seconds == pytest.approx(prof.dur_us / 1e6)
            assert point.plan_seconds == pytest.approx(plan.dur_us / 1e6)

    def test_scalability_works_disabled(self):
        from repro.experiments.scalability import run_scalability

        assert not obs.is_enabled()
        points = run_scalability(scales=(0.02,), suite="rodinia",
                                 workload_name="bfs")
        assert points[0].plan_seconds > 0.0
