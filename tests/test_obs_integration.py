"""Merge parity of the telemetry layer across all four execution backends.

The same tiny grid traced on the serial, thread, process, and queue backends
must produce (a) one connected span tree per run — every worker span linked
back to the submitting run span — and (b) identical run records: the same
per-cell results, ``solver_stats`` included.  Counts are read from the
record, their one owner; the telemetry block carries spans and timings only.
The grid is warmed once into a shared artifact cache so all four runs
execute the same cached work and the comparison is bit-exact, not merely
statistical.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.trace import build_tree, load_spans, orphan_spans
from repro.runner.cache import set_default_cache
from repro.runner.execution import run_experiment

pytestmark = pytest.mark.obs

BACKENDS = ("serial", "thread", "process", "queue")

#: One 2-cell sequential_detect grid — the smallest grid where parallel
#: backends actually schedule more than one task.
OPTIONS = {
    "designs": ["s13207_like"],
    "cycles": [2, 3],
    "modes": ["consecutive"],
    "counts": [2],
}


def _run_traced(backend: str, trace_dir, cache_dir):
    """One traced run on ``backend`` with a clean process-local registry."""
    obs.disable()
    obs.metrics.reset_registry()
    obs.trace.install_remote_parent(None)
    run = run_experiment(
        "sequential_detect",
        profile="tiny",
        jobs=1 if backend == "serial" else 2,
        options=dict(OPTIONS),
        backend=backend,
        cache_dir=cache_dir,
        trace_dir=trace_dir,
    )
    obs.flush()
    return run


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """The same grid run on every backend: {backend: (run, trace_dir)}."""
    cache_dir = tmp_path_factory.mktemp("shared-cache")
    runs = {}
    try:
        for backend in BACKENDS:
            trace_dir = tmp_path_factory.mktemp(f"trace-{backend}")
            runs[backend] = (_run_traced(backend, trace_dir, cache_dir), trace_dir)
    finally:
        obs.disable()
        obs.metrics.reset_registry()
        obs.trace.install_remote_parent(None)
        set_default_cache(None)
    return runs


def cell_results(run) -> dict:
    """Cell name -> result (``solver_stats`` included) from the run record."""
    return {cell["cell"]: cell["result"] for cell in run.record()["cells"]}


class TestSpanLinkage:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_exports_one_connected_tree(self, traced_runs, backend):
        _, trace_dir = traced_runs[backend]
        spans = load_spans(trace_dir)
        assert spans, f"{backend}: no spans exported"
        assert orphan_spans(spans) == []
        assert len({record["trace_id"] for record in spans}) == 1
        roots, _ = build_tree(spans)
        assert len(roots) == 1
        assert roots[0]["name"] == "run.sequential_detect"
        assert roots[0]["attrs"]["backend"] == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_both_cells_have_submit_and_worker_spans(self, traced_runs, backend):
        _, trace_dir = traced_runs[backend]
        names = [record["name"] for record in load_spans(trace_dir)]
        # Submitting side: one manual span per scheduled cell ...
        assert names.count("cell[0]") == 1 and names.count("cell[1]") == 1
        # ... and the worker side executed each cell inside the same tree.
        assert names.count("cell") == 2

    def test_cold_run_traces_down_to_sequence_generation(self, traced_runs):
        # Only the first (serial, cache-cold) run actually generates
        # sequences — the warm backends load the cells from the shared
        # artifact cache, so the solver spans belong to the cold run.
        _, trace_dir = traced_runs["serial"]
        names = [record["name"] for record in load_spans(trace_dir)]
        assert names.count("solver.sequence_gen") == 2

    def test_queue_backend_adds_job_spans(self, traced_runs):
        _, trace_dir = traced_runs["queue"]
        spans = load_spans(trace_dir)
        job_spans = [record for record in spans if record["name"] == "queue.job"]
        assert len(job_spans) == 2
        by_id = {record["span_id"]: record for record in spans}
        for record in job_spans:
            assert by_id[record["parent_id"]]["name"] == "tasks.cell"


class TestRecordParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cell_results_match_the_serial_run(self, traced_runs, backend):
        results = cell_results(traced_runs[backend][0])
        assert len(results) == 2, backend
        assert results == cell_results(traced_runs["serial"][0]), backend
        for result in results.values():
            assert result["solver_stats"]["decisions"] > 0, backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_record_carries_a_timings_only_telemetry_block(
        self, traced_runs, backend
    ):
        run, trace_dir = traced_runs[backend]
        telemetry = run.telemetry
        assert telemetry is not None
        assert set(telemetry) == {"trace_dir", "spans", "profiles"}
        assert telemetry["trace_dir"] == str(trace_dir)
        assert telemetry["spans"] > 0
        assert telemetry["profiles"]["cell_seconds"]["count"] == 2

    def test_results_are_identical_across_backends(self, traced_runs):
        reports = {run.report_text for run, _ in traced_runs.values()}
        assert len(reports) == 1  # telemetry never perturbs the science


class TestQueueBackendCounters:
    def test_resilience_counters_report_deliveries(self, traced_runs):
        run, _ = traced_runs["queue"]
        backend_counters = run.resilience["backend_counters"]
        assert backend_counters["deliveries"] >= 2
        assert backend_counters["reclaims"] == 0
        assert backend_counters["respawns"] == 0
