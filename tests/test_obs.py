"""Unit tests for the telemetry layer: tracing, metrics, profiling, CLI view.

Everything here is single-process and fast.  Cross-backend merge parity and
the end-to-end span trees live in ``test_obs_integration.py``.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro import cli, obs
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    merged_snapshot,
    payload_to_prometheus,
    percentile_summary,
    prometheus_name,
)
from repro.obs.trace import TraceContext, build_tree, load_spans, orphan_spans
from repro.runner.resilience import run_tasks


@pytest.fixture
def traced(tmp_path):
    """Telemetry enabled on a throwaway directory, fully undone afterwards."""
    trace_dir = tmp_path / "trace"
    obs.configure(trace_dir, export_env=False)
    try:
        yield trace_dir
    finally:
        obs.trace.flush_spans()  # drain the buffer so it can't leak onward
        obs.disable()
        obs.metrics.reset_registry()
        obs.trace.install_remote_parent(None)


@pytest.fixture(autouse=True)
def _clean_slate():
    yield
    obs.disable()
    obs.metrics.reset_registry()
    obs.trace.install_remote_parent(None)


# ----------------------------------------------------------------------
# Runtime switchboard
# ----------------------------------------------------------------------
class TestRuntime:
    def test_disabled_by_default_in_tests(self):
        assert not obs.enabled()
        assert obs.trace_dir() is None

    def test_configure_enables_and_disable_undoes(self, tmp_path):
        obs.configure(tmp_path / "t", export_env=False)
        assert obs.enabled()
        assert obs.trace_dir() == str(tmp_path / "t")
        assert (tmp_path / "t").is_dir()  # created eagerly
        obs.disable()
        assert not obs.enabled() and obs.trace_dir() is None

    def test_export_env_publishes_the_directory_to_children(self, tmp_path):
        obs.configure(tmp_path / "t", export_env=True)
        assert os.environ[obs.ENV_TRACE_DIR] == str(tmp_path / "t")
        obs.disable()
        assert obs.ENV_TRACE_DIR not in os.environ

    def test_profile_flag_controls_profiling_only(self, tmp_path):
        obs.configure(tmp_path / "t", profile=False, export_env=False)
        assert obs.enabled() and not obs.profiling_enabled()
        assert obs_profile.hot_path("x") is None
        obs.configure(tmp_path / "t", profile=True, export_env=False)
        assert obs.profiling_enabled()

    def test_install_worker_accepts_disabled_submitter(self):
        obs.install_worker(None, None)  # telemetry off on the submitting side
        assert not obs.enabled()

    def test_worker_install_args_ship_dir_and_context(self, traced):
        with obs.trace.span("parent") as parent:
            directory, context = obs.worker_install_args()
            assert directory == str(traced)
            assert context == parent.context().as_dict()


# ----------------------------------------------------------------------
# Trace context propagation
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_dict_roundtrip(self):
        context = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        assert TraceContext.from_dict(context.as_dict()) == context
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({"trace_id": 7}) is None

    def test_traceparent_roundtrip(self):
        context = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        header = context.to_traceparent()
        assert header == f"00-{'a' * 32}-{'b' * 16}-01"
        assert TraceContext.from_traceparent(header) == context

    def test_traceparent_rejects_malformed_headers(self):
        assert TraceContext.from_traceparent(None) is None
        assert TraceContext.from_traceparent("") is None
        assert TraceContext.from_traceparent("not-a-header") is None
        assert TraceContext.from_traceparent("00-short-id-01") is None


class TestSpans:
    def test_nested_spans_export_one_connected_tree(self, traced):
        with obs.trace.span("outer", attrs={"k": 1}):
            with obs.trace.span("inner"):
                pass
        obs.trace.flush_spans()
        spans = load_spans(traced)
        assert [record["name"] for record in spans] == ["outer", "inner"]
        roots, children = build_tree(spans)
        assert len(roots) == 1 and roots[0]["name"] == "outer"
        assert children[roots[0]["span_id"]][0]["name"] == "inner"
        assert orphan_spans(spans) == []
        assert roots[0]["attrs"] == {"k": 1}
        assert all(record["dur_s"] >= 0.0 for record in spans)

    def test_disabled_spans_are_noops_and_write_nothing(self, tmp_path):
        with obs.trace.span("ghost") as ghost:
            assert ghost is obs_trace.NOOP_SPAN
            assert ghost.context() is None
            ghost.set_attr("x", 1)  # must not raise
        assert obs.trace.current_context() is None
        assert load_spans(tmp_path) == []

    def test_exception_marks_the_span_status_error(self, traced):
        with pytest.raises(ValueError):
            with obs.trace.span("doomed"):
                raise ValueError("nope")
        obs.trace.flush_spans()
        (record,) = load_spans(traced)
        assert record["status"] == "error"
        assert record["attrs"]["error"] is True

    def test_remote_parent_links_worker_spans_to_the_submitter(self, traced):
        with obs.trace.span("submit") as submit:
            shipped = submit.context().as_dict()
        # "Worker side": a fresh context arrives via the initializer chain.
        obs.trace.install_remote_parent(TraceContext.from_dict(shipped))
        with obs.trace.span("work"):
            pass
        obs.trace.flush_spans()
        spans = load_spans(traced)
        by_name = {record["name"]: record for record in spans}
        assert by_name["work"]["trace_id"] == by_name["submit"]["trace_id"]
        assert by_name["work"]["parent_id"] == by_name["submit"]["span_id"]
        assert len(build_tree(spans)[0]) == 1

    def test_start_span_is_manual_and_not_ambient(self, traced):
        opened = obs.trace.start_span("manual")
        assert obs.trace.current_context() is None  # not on the stack
        opened.end()
        opened.end()  # idempotent: ends exactly once
        obs.trace.flush_spans()
        assert len(load_spans(traced)) == 1

    def test_orphans_are_detected_and_still_rendered_as_roots(self, traced):
        orphan = obs.trace.start_span(
            "orphan", parent=TraceContext(trace_id="f" * 32, span_id="e" * 16)
        )
        orphan.end()
        obs.trace.flush_spans()
        spans = load_spans(traced)
        assert len(orphan_spans(spans)) == 1
        roots, _ = build_tree(spans)  # unexported parent -> visible root
        assert len(roots) == 1

    def test_corrupt_span_lines_are_skipped(self, traced):
        with obs.trace.span("ok"):
            pass
        obs.trace.flush_spans()
        path = traced / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write("{torn line\n")
        assert [record["name"] for record in load_spans(traced)] == ["ok"]

    def test_chrome_trace_renders_complete_events(self, traced):
        with obs.trace.span("outer"):
            pass
        obs.trace.flush_spans()
        payload = obs_trace.chrome_trace(load_spans(traced))
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X" and event["name"] == "outer"
        assert event["ts"] > 0 and event["dur"] >= 0
        assert json.dumps(payload)  # fully JSON-serialisable

    def test_serial_task_spans_end_when_their_task_does(self, traced):
        # The serial backend runs each task inside submit(): a task span that
        # ended in the collect loop would stretch over every later task.
        run_tasks(time.sleep, [(0.05,)] * 3, backend="serial", label="cell")
        obs.trace.flush_spans()
        spans = load_spans(traced)
        cells = {s["span_id"]: s for s in spans if s["name"].startswith("cell[")}
        workers = {s["parent_id"]: s for s in spans if s["name"] == "worker"}
        assert len(cells) == 3 and set(workers) == set(cells)
        for span_id, cell in cells.items():
            assert cell["dur_s"] <= workers[span_id]["dur_s"] + 0.02, cell["name"]


# ----------------------------------------------------------------------
# Metrics: histograms, registry merge, export
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        histogram = Histogram()
        for value in (0.001, 0.004, 0.1):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(0.105)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(0.1)
        assert sum(histogram.buckets) == 3

    def test_percentile_is_a_bucket_upper_bound(self):
        histogram = Histogram()
        for _ in range(99):
            histogram.observe(1e-5)
        histogram.observe(1.0)
        assert histogram.percentile(50) >= 1e-5
        assert histogram.percentile(50) < 1e-3  # nowhere near the outlier
        assert histogram.percentile(100) == pytest.approx(1.0)
        assert Histogram().percentile(99) == 0.0

    def test_percentile_is_within_an_eighth_of_an_octave_of_the_truth(self):
        # One bound per octave read this p50 as 0.524 s against a true 0.300 s.
        samples = [0.0006 + index * (0.6 - 0.0006) / 999 for index in range(1000)]
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        for q in (10, 50, 90, 99):
            true = samples[math.ceil(len(samples) * q / 100) - 1]
            ratio = histogram.percentile(q) / true
            assert 1.0 <= ratio <= 2 ** (1 / 8) * (1 + 1e-12), (q, ratio)

    def test_merge_matches_observing_everything_in_one(self):
        left, right, reference = Histogram(), Histogram(), Histogram()
        for index, value in enumerate((1e-6, 5e-4, 0.02, 3.0)):
            (left if index % 2 else right).observe(value)
            reference.observe(value)
        left.merge_dict(right.as_dict())
        merged, expected = left.as_dict(), reference.as_dict()
        assert merged["total"] == pytest.approx(expected["total"])
        merged.pop("total"), expected.pop("total")  # float addition order
        assert merged == expected

    def test_dict_roundtrip(self):
        histogram = Histogram()
        histogram.observe(0.5)
        assert Histogram.from_dict(histogram.as_dict()).as_dict() == histogram.as_dict()


class TestRegistry:
    def test_registry_holds_histograms_only(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.01)
        assert set(registry.snapshot()) == {"histograms"}
        assert not hasattr(registry, "counter_add")
        assert not hasattr(obs_metrics, "counter_add")

    def test_merge_is_commutative(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.observe("h", 0.1)
        second.observe("h", 0.002)
        second.observe("g", 3.0)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        forward.merge(first.snapshot())
        forward.merge(second.snapshot())
        backward.merge(second.snapshot())
        backward.merge(first.snapshot())
        assert forward.snapshot() == backward.snapshot()

    def test_module_helpers_are_noops_while_disabled(self):
        obs_metrics.observe("ghost", 1.0)
        assert obs_metrics.registry().snapshot() == {"histograms": {}}

    def test_module_helpers_record_while_enabled(self, traced):
        obs_metrics.observe("lat", 0.25)
        snapshot = obs_metrics.registry().snapshot()
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_flush_and_merged_snapshot_fold_per_pid_files(self, traced):
        obs_metrics.observe("lat", 0.25)
        obs_metrics.flush()
        # A "second worker" flushed its own cumulative totals under its pid.
        peer = MetricsRegistry()
        peer.observe("lat", 0.5)
        peer.observe("depth", 9.0)
        (traced / "metrics-99999.json").write_text(json.dumps(peer.snapshot()))
        (traced / "metrics-corrupt.json").write_text("{not json")  # skipped
        merged = merged_snapshot(traced)["histograms"]
        assert merged["lat"]["count"] == 2
        assert merged["lat"]["max"] == 0.5
        assert merged["depth"]["count"] == 1

    def test_flush_is_cumulative_and_idempotent_under_merge(self, traced):
        obs_metrics.observe("lat", 0.25)
        obs_metrics.flush()
        obs_metrics.flush()  # same totals rewritten, not doubled
        assert merged_snapshot(traced)["histograms"]["lat"]["count"] == 1

    def test_merged_snapshot_skips_files_with_another_bucket_layout(self, traced):
        obs_metrics.observe("lat", 0.25)
        obs_metrics.flush()
        # A file another version wrote with a different bucket layout.
        buckets = [0] * len(BUCKET_BOUNDS)
        buckets[-1] = 5
        stale = {"count": 5, "total": 1.25, "min": 0.25, "max": 0.25, "buckets": buckets}
        (traced / "metrics-99999.json").write_text(
            json.dumps({"histograms": {"lat": stale}})
        )
        merged = merged_snapshot(traced)["histograms"]
        assert merged["lat"]["count"] == 1

    def test_prometheus_exposition_renders_histograms(self):
        registry = MetricsRegistry()
        registry.observe("cache.build", 0.5)
        text = registry.to_prometheus()
        assert "# TYPE deterrent_cache_build histogram" in text  # dots sanitised
        assert 'deterrent_cache_build_bucket{le="+Inf"} 1' in text
        assert "deterrent_cache_build_sum 0.5" in text
        assert "deterrent_cache_build_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.observe("lat", BUCKET_BOUNDS[0] / 2)
        registry.observe("lat", BUCKET_BOUNDS[0] / 2)
        lines = registry.to_prometheus().splitlines()
        first_bucket = next(line for line in lines if "_bucket" in line)
        assert first_bucket.endswith(" 2")

    def test_payload_to_prometheus_flattens_numeric_leaves(self):
        text = payload_to_prometheus(
            {"queue": {"done": 3, "stopped": True}, "service": {"jobs": 1.5}}
        )
        assert "deterrent_queue_done 3" in text
        assert "deterrent_service_jobs 1.5" in text
        assert "stopped" not in text  # booleans are not metrics

    def test_prometheus_name_sanitises_forbidden_characters(self):
        assert prometheus_name("a.b-c/d") == "a_b_c_d"

    def test_percentile_summary_shape(self):
        registry = MetricsRegistry()
        for _ in range(10):
            registry.observe("lat", 0.001)
        summary = percentile_summary(registry.snapshot())
        assert set(summary["lat"]) == {"count", "total", "p50", "p90", "p99"}
        assert summary["lat"]["count"] == 10


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------
class TestProfileHooks:
    def test_hot_path_is_none_while_disabled(self):
        assert obs_profile.hot_path("sat.propagate") is None

    def test_hot_path_samples_every_nth_call(self, traced):
        probe = obs_profile.hot_path("loop", every=4)
        fired = [probe.sample() for _ in range(8)]
        assert fired == [False, False, False, True] * 2
        probe.observe(0.001)
        snapshot = obs_metrics.registry().snapshot()
        assert snapshot["histograms"]["profile_loop_seconds"]["count"] == 1

    def test_timed_records_one_observation_per_call(self, traced):
        for _ in range(3):
            with obs_profile.timed("cache.fetch"):
                pass
        snapshot = obs_metrics.registry().snapshot()
        assert snapshot["histograms"]["profile_cache_fetch_seconds"]["count"] == 3

    def test_timed_is_a_noop_while_disabled(self):
        with obs_profile.timed("cache.fetch"):
            pass
        assert obs_metrics.registry().snapshot()["histograms"] == {}


# ----------------------------------------------------------------------
# The summary block and the `deterrent trace` CLI view
# ----------------------------------------------------------------------
class TestSummary:
    def test_summary_is_none_while_disabled(self):
        assert obs.summary() is None

    def test_summary_flushes_and_reports_spans_and_instruments(self, traced):
        with obs.trace.span("root"):
            with obs_profile.timed("step"):
                pass
        summary = obs.summary()
        assert set(summary) == {"trace_dir", "spans", "profiles"}
        assert summary["trace_dir"] == str(traced)
        assert summary["spans"] == 1
        assert summary["profiles"]["profile_step_seconds"]["count"] == 1


class TestTraceCommand:
    def _export_tree(self):
        with obs.trace.span("cli.run", attrs={"experiment": "seq"}):
            with obs.trace.span("cell[0]", attrs={"cell": "c0"}):
                pass
        with obs_profile.timed("solve"):
            pass
        obs.flush()

    def test_renders_tree_instruments_and_profiles(self, traced, capsys):
        self._export_tree()
        assert cli.main(["trace", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "2 spans, 1 trace(s), 1 root(s)" in out
        assert "cli.run" in out and "cell[0]" in out
        assert "profile_solve_seconds" in out

    def test_check_passes_on_a_connected_tree(self, traced, capsys):
        self._export_tree()
        assert cli.main(["trace", str(traced), "--check"]) == 0

    def test_check_fails_on_an_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["trace", str(empty)]) == 0  # informational by default
        assert cli.main(["trace", str(empty), "--check"]) == 1

    def test_check_fails_on_orphaned_spans(self, traced, capsys):
        orphan = obs.trace.start_span(
            "lost", parent=TraceContext(trace_id="f" * 32, span_id="e" * 16)
        )
        orphan.end()
        obs.flush()
        assert cli.main(["trace", str(traced), "--check"]) == 1
        assert "never exported" in capsys.readouterr().out

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        assert cli.main(["trace", str(tmp_path / "nope")]) == 2

    def test_chrome_export_writes_loadable_json(self, traced, tmp_path, capsys):
        self._export_tree()
        chrome_path = tmp_path / "out" / "trace.json"
        assert cli.main(["trace", str(traced), "--chrome", str(chrome_path)]) == 0
        payload = json.loads(chrome_path.read_text())
        assert len(payload["traceEvents"]) == 2
