"""Unit tests for the telemetry layer: tracing, span timings, CLI view.

Everything here is single-process and fast.  Cross-backend merge parity and
the end-to-end span trees live in ``test_obs_integration.py``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import cli, obs
from repro.obs import trace as obs_trace
from repro.obs.trace import (
    TraceContext,
    build_tree,
    late_children,
    load_spans,
    orphan_spans,
    span_profiles,
)
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
        obs.trace.install_remote_parent(None)


@pytest.fixture(autouse=True)
def _clean_slate():
    yield
    obs.disable()
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

    def test_install_worker_accepts_disabled_submitter(self):
        obs.install_worker(None, None)  # telemetry off on the submitting side
        assert not obs.enabled()

    def test_install_worker_enables_without_exporting_the_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(obs.ENV_TRACE_DIR, raising=False)
        obs.install_worker(str(tmp_path / "t"))
        assert obs.enabled() and obs.trace_dir() == str(tmp_path / "t")
        assert obs.ENV_TRACE_DIR not in os.environ

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
# Timings read back from spans
# ----------------------------------------------------------------------
def span_record(name, span_id, parent_id=None, start=100.0, dur_s=1.0, pid=1):
    """One exported span line, written by hand."""
    return {
        "name": name, "trace_id": "a" * 32, "span_id": span_id,
        "parent_id": parent_id, "start": start, "dur_s": dur_s,
        "status": "ok", "pid": pid, "attrs": {},
    }


class TestSpanProfiles:
    def test_percentiles_are_exact_nearest_rank(self):
        # 1..100 ms: nearest rank k = ceil(n * q / 100) picks the k-th value.
        spans = [
            span_record("solve", f"{index:016x}", dur_s=index / 1000)
            for index in range(100, 0, -1)
        ]
        profile = span_profiles(spans)["solve"]
        assert profile["count"] == 100
        assert profile["total"] == pytest.approx(5.05)
        assert (profile["p50"], profile["p90"], profile["p99"]) == (0.05, 0.09, 0.099)
        (single,) = span_profiles([span_record("one", "1" * 16, dur_s=0.25)]).values()
        assert single == {"count": 1, "total": 0.25, "p50": 0.25, "p90": 0.25, "p99": 0.25}

    def test_task_indices_fold_into_one_row_per_label(self):
        spans = [span_record(f"cell[{index}]", f"{index:016x}") for index in range(8)]
        spans.append(span_record("tasks[x]", "f" * 16))
        profiles = span_profiles(spans)
        assert set(profiles) == {"cell[*]", "tasks[x]"}
        assert profiles["cell[*]"]["count"] == 8

    def test_no_spans_no_rows(self):
        assert span_profiles([]) == {}


class TestLateChildren:
    def test_child_ending_after_its_same_process_parent_is_late(self):
        parent = span_record("cell[0]", "1" * 16, start=100.0, dur_s=0.5)
        child = span_record("worker", "2" * 16, "1" * 16, start=100.1, dur_s=0.5)
        assert late_children([parent, child]) == [child]

    def test_a_child_of_an_unexported_parent_is_an_orphan_not_late(self):
        child = span_record("worker", "2" * 16, "1" * 16, start=100.0, dur_s=9.0)
        assert late_children([child]) == []
        assert orphan_spans([child]) == [child]

    def test_cross_process_children_and_the_tolerance_pass(self):
        parent = span_record("service.submit", "1" * 16, start=100.0, dur_s=0.01)
        job = span_record("queue.job", "2" * 16, "1" * 16, start=100.005, dur_s=5.0, pid=2)
        tail = span_record("flush", "3" * 16, "1" * 16, start=100.0, dur_s=0.0105)
        assert late_children([parent, job, tail]) == []


# ----------------------------------------------------------------------
# The summary block and the `deterrent trace` CLI view
# ----------------------------------------------------------------------
class TestSummary:
    def test_summary_is_none_while_disabled(self):
        assert obs.summary() is None

    def test_summary_flushes_and_reports_spans_and_their_timings(self, traced):
        with obs.trace.span("root"):
            with obs.trace.span("step"):
                pass
        summary = obs.summary()
        assert set(summary) == {"trace_dir", "spans", "profiles"}
        assert summary["trace_dir"] == str(traced)
        assert summary["spans"] == 2
        assert set(summary["profiles"]) == {"root", "step"}
        assert summary["profiles"]["step"]["count"] == 1
        assert summary["profiles"]["step"]["total"] <= summary["profiles"]["root"]["total"]

    def test_flush_writes_span_files_only(self, traced):
        with obs.trace.span("root"):
            pass
        obs.flush()
        assert [path.name for path in traced.iterdir()] == [f"spans-{os.getpid()}.jsonl"]


class TestTraceCommand:
    def _export_tree(self):
        with obs.trace.span("cli.run", attrs={"experiment": "seq"}):
            for index in range(2):
                with obs.trace.span(f"cell[{index}]", attrs={"cell": f"c{index}"}):
                    pass
        obs.flush()

    def test_renders_tree_and_per_name_profiles(self, traced, capsys):
        self._export_tree()
        assert cli.main(["trace", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "3 spans, 1 trace(s), 1 root(s)" in out
        assert "cli.run" in out and "cell[0]" in out and "cell[1]" in out
        rows = out.split("profiles:")[1].splitlines()
        assert any(row.split()[:2] == ["cell[*]", "2"] for row in rows), out
        assert any(row.split()[:2] == ["cli.run", "1"] for row in rows), out

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

    def test_check_fails_on_a_child_that_outlives_its_parent(self, tmp_path, capsys):
        # A serial task span that ended in the collect loop, after the run.
        spans = [
            span_record("run.toy", "1" * 16, start=100.0, dur_s=1.0),
            span_record("cell[0]", "2" * 16, "1" * 16, start=100.1, dur_s=1.2),
        ]
        (tmp_path / "spans-1.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in spans)
        )
        assert cli.main(["trace", str(tmp_path)]) == 0  # informational by default
        assert cli.main(["trace", str(tmp_path), "--check"]) == 1
        assert "end after their parent in the same process: cell[0]" in (
            capsys.readouterr().out
        )

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        assert cli.main(["trace", str(tmp_path / "nope")]) == 2

    def test_chrome_export_writes_loadable_json(self, traced, tmp_path, capsys):
        self._export_tree()
        chrome_path = tmp_path / "out" / "trace.json"
        assert cli.main(["trace", str(traced), "--chrome", str(chrome_path)]) == 0
        payload = json.loads(chrome_path.read_text())
        assert len(payload["traceEvents"]) == 3
