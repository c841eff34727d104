"""The detection service: job validation, content addressing, HTTP round trip.

The heavyweight end-to-end checks run one *tiny* 1-cell
``sequential_detect`` grid, so the whole file stays a few seconds.  The
crucial acceptance property is exercised directly: a job submitted over
HTTP and executed by a queue worker produces a record whose report and
cell results are bit-identical to a local serial
:class:`~repro.runner.execution.ExperimentRunner` run of the same design
— and resubmitting it is answered from the artifact cache without
touching the queue.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro import obs

from repro.circuits.bench_io import dumps_bench, loads_bench
from repro.circuits.library import load_benchmark
from repro.runner.cache import set_default_cache
from repro.runner.execution import ExperimentRunner
from repro.service.jobs import (
    JobValidationError,
    resolve_design,
    validate_job,
)
from repro.service.queue import WorkerOptions, worker_loop
from repro.service.server import DeterrentService, http_json, make_server

pytestmark = pytest.mark.service


@pytest.fixture(autouse=True)
def _reset_default_cache():
    yield
    set_default_cache(None)


def bench_for(name: str) -> str:
    return dumps_bench(load_benchmark(name, combinational_view=False))


#: A 1-cell sequential_detect grid: the smallest real service job.
SEQ_OPTIONS = {"cycles": [2], "modes": ["consecutive"], "counts": [2]}


def seq_payload(**overrides) -> dict:
    payload = {
        "experiment": "sequential_detect",
        "profile": "tiny",
        "options": dict(SEQ_OPTIONS),
        "bench": bench_for("s13207_like"),
    }
    payload.update(overrides)
    return payload


def strip_elapsed(cells: list[dict]) -> list[dict]:
    """Cells without wall-clock timing — the bit-identical part."""
    return [
        {key: value for key, value in cell.items() if key != "elapsed_seconds"}
        for cell in cells
    ]


# ----------------------------------------------------------------------
# Validation (the 400 space)
# ----------------------------------------------------------------------
class TestValidateJob:
    def test_accepts_a_well_formed_submission(self):
        request = validate_job(seq_payload())
        assert request.experiment == "sequential_detect"
        assert request.profile == "tiny"
        assert request.netlist.is_sequential

    def test_rejects_non_object_payloads(self):
        with pytest.raises(JobValidationError, match="JSON object"):
            validate_job(["not", "a", "dict"])

    def test_rejects_missing_or_empty_bench(self):
        with pytest.raises(JobValidationError, match="'bench'"):
            validate_job(seq_payload(bench=""))
        with pytest.raises(JobValidationError, match="'bench'"):
            validate_job({"experiment": "sequential_detect"})

    def test_rejects_unknown_experiment(self):
        with pytest.raises(JobValidationError, match="unknown experiment"):
            validate_job(seq_payload(experiment="not_an_experiment"))

    def test_rejects_unknown_profile(self):
        with pytest.raises(JobValidationError, match="profile"):
            validate_job(seq_payload(profile="galactic"))

    def test_rejects_reserved_design_options(self):
        payload = seq_payload()
        payload["options"]["designs"] = ["s13207_like"]
        with pytest.raises(JobValidationError, match="derived from the submitted"):
            validate_job(payload)

    def test_rejects_unknown_options_naming_the_supported_set(self):
        payload = seq_payload()
        payload["options"]["granularity"] = 7
        with pytest.raises(JobValidationError, match="granularity") as excinfo:
            validate_job(payload)
        assert "cycles" in str(excinfo.value)  # supported options are listed

    def test_rejects_unparsable_bench_text(self):
        with pytest.raises(JobValidationError, match="invalid .bench netlist"):
            validate_job(seq_payload(bench="INPUT(\nnot bench at all"))

    def test_rejects_a_netlist_the_harness_grid_rejects(self):
        # c17 is combinational; the sequential harness's own cells()
        # validation must surface as a 400, not a worker-side crash.
        with pytest.raises(JobValidationError, match="(?i)sequential|combinational"):
            validate_job(seq_payload(bench=bench_for("c17")))

    def test_job_ids_are_deterministic_content_addresses(self):
        first = validate_job(seq_payload()).job_id()
        again = validate_job(seq_payload()).job_id()
        assert first == again
        assert len(first) == 64
        other = seq_payload()
        other["options"]["cycles"] = [3]
        assert validate_job(other).job_id() != first

    def test_job_id_ignores_option_order(self):
        shuffled = seq_payload()
        shuffled["options"] = dict(reversed(list(shuffled["options"].items())))
        assert validate_job(shuffled).job_id() == validate_job(seq_payload()).job_id()


# ----------------------------------------------------------------------
# Design resolution (bit-identity with the local path starts here)
# ----------------------------------------------------------------------
class TestResolveDesign:
    def test_submitted_library_netlist_resolves_to_its_benchmark_name(self):
        # The exported .bench names the circuit in a comment; a submitted
        # copy parses as "submitted", so matching must be structural.
        netlist = loads_bench(bench_for("s13207_like"), name="submitted")
        assert resolve_design(netlist) == "s13207_like"

    def test_combinational_library_netlist_resolves_too(self):
        netlist = loads_bench(bench_for("c17"), name="submitted")
        assert resolve_design(netlist) == "c17"

    def test_unknown_netlist_registers_a_stable_submitted_name(self):
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
        netlist = loads_bench(text, name="submitted")
        name = resolve_design(netlist)
        assert name.startswith("submitted_")
        # Registration makes it loadable, and re-resolving is stable.
        assert resolve_design(loads_bench(text, name="submitted")) == name
        assert dumps_bench(load_benchmark(name)).count("NAND") == 1


# ----------------------------------------------------------------------
# The HTTP service end to end
# ----------------------------------------------------------------------
@pytest.fixture
def service_url(tmp_path):
    service = DeterrentService(
        tmp_path / "queue", cache_dir=tmp_path / "svc-cache"
    )
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def drain_one_job(service: DeterrentService) -> None:
    """Run one in-process queue worker until it has finished one job."""
    done = worker_loop(
        service.queue,
        WorkerOptions(
            worker_id="test-worker",
            max_jobs=1,
            cache_dir=str(service.cache.root),
        ),
    )
    assert done == 1


class TestHTTPEndpoints:
    def test_root_lists_endpoints_and_health_is_ok(self, service_url):
        url, _ = service_url
        status, body = http_json(url + "/")
        assert status == 200
        assert "POST /jobs" in body["endpoints"]
        status, health = http_json(url + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queued"] == 0 and health["leased"] == 0

    def test_unknown_paths_and_jobs_are_404(self, service_url):
        url, _ = service_url
        assert http_json(url + "/nope")[0] == 404
        status, body = http_json(url + "/jobs/" + "f" * 64)
        assert status == 404
        assert body["status"] == "unknown"

    def test_malformed_json_and_invalid_jobs_are_400(self, service_url):
        url, service = service_url
        request = urllib.request.Request(
            url + "/jobs",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raised = None
        except urllib.error.HTTPError as error:
            raised = error.code
            error.read()
        assert raised == 400

        status, body = http_json(
            url + "/jobs", payload=seq_payload(experiment="bogus")
        )
        assert status == 400
        assert "unknown experiment" in body["error"]
        assert service.counters["jobs_invalid"] == 1

    def test_full_job_round_trip_matches_local_serial_run(
        self, service_url, tmp_path
    ):
        url, service = service_url

        # Local serial reference on its OWN fresh cache (a shared cache
        # would serve the second run's cells from disk and change the
        # "fresh cells only" solver-stats footer in the report).
        local = ExperimentRunner(jobs=1, cache_dir=tmp_path / "local-cache").run(
            "sequential_detect",
            profile="tiny",
            options={"designs": ["s13207_like"], **SEQ_OPTIONS},
        )

        # Submit the same circuit as an anonymous .bench over HTTP.
        status, body = http_json(url + "/jobs", payload=seq_payload())
        assert status == 202
        assert body["status"] == "queued" and body["cached"] is False
        job_id = body["job_id"]

        # A duplicate submission while queued does not enqueue twice.
        status, dup = http_json(url + "/jobs", payload=seq_payload())
        assert status == 202
        assert dup["duplicate"] is True and dup["job_id"] == job_id
        assert service.counters["jobs_enqueued"] == 1

        status, pending = http_json(url + "/jobs/" + job_id)
        assert (status, pending["status"]) == (200, "queued")

        drain_one_job(service)

        status, done = http_json(url + "/jobs/" + job_id)
        assert status == 200
        assert done["status"] == "done"
        assert done["deliveries"] == 1
        record = done["result"]

        # Bit-identical to the local serial run: same resolved design,
        # same per-cell params and results, same rendered report.
        assert record["design"] == "s13207_like"
        assert record["report"] == local.report_text
        assert strip_elapsed(record["cells"]) == strip_elapsed(
            local.record()["cells"]
        )

        # The generated SAT-guided sequence set rides along in the record.
        (test_set,) = record["test_sets"]
        assert test_set["kind"] == "sequences"
        assert len(test_set["sequences"]) > 0
        assert len(test_set["inputs"]) > 0

        # Resubmitting is a pure cache hit: 200, no new queue work.
        status, cached = http_json(url + "/jobs", payload=seq_payload())
        assert status == 200
        assert cached["cached"] is True
        assert cached["result"]["report"] == local.report_text
        assert service.counters["jobs_cache_hits"] == 1
        assert service.counters["jobs_enqueued"] == 1

        # Metrics reflect all of it: service counters, queue telemetry,
        # cache lifetime stats (written through by the worker), solver aggregates.
        status, metrics = http_json(url + "/metrics")
        assert status == 200
        assert metrics["service"]["jobs_submitted"] == 3
        assert metrics["queue"]["done"] == 1
        assert metrics["workers"]["test-worker"]["jobs_done"] == 1
        assert metrics["cache"]["lifetime"]["stores"] >= 1
        assert metrics["solver"].get("conflicts", 0) > 0


class TestSolverTotals:
    """``/metrics.solver`` folds per-cell ``solver_stats`` like ``SolverStats.merge``."""

    @staticmethod
    def record(**stats) -> dict:
        return {"cells": [{"result": {"solver_stats": stats}}, {"result": None}]}

    def test_max_trail_is_a_high_water_mark_across_jobs(self, tmp_path):
        service = DeterrentService(tmp_path / "queue", cache_dir=tmp_path / "cache")
        service._fold_solver_stats("a", self.record(conflicts=2, max_trail=5))
        service._fold_solver_stats("b", self.record(conflicts=3, max_trail=7))
        _, metrics = service.metrics()
        assert metrics["solver"]["conflicts"] == 5  # totals sum
        assert metrics["solver"]["max_trail"] == 7  # not 12

    def test_a_job_is_folded_once(self, tmp_path):
        service = DeterrentService(tmp_path / "queue", cache_dir=tmp_path / "cache")
        for _ in range(2):
            service._fold_solver_stats("a", self.record(decisions=4))
        assert service.metrics()[1]["solver"]["decisions"] == 4


# ----------------------------------------------------------------------
# Telemetry over HTTP: Prometheus exposition + traceparent propagation
# ----------------------------------------------------------------------
def fetch_text(url: str, headers: dict | None = None) -> tuple[int, str]:
    """GET a plain-text resource (http_json would try to parse JSON)."""
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read().decode()


@pytest.fixture
def traced_service(tmp_path):
    """A service with telemetry enabled on a throwaway trace directory."""
    trace_dir = tmp_path / "trace"
    obs.configure(trace_dir, export_env=False)
    try:
        yield trace_dir
    finally:
        obs.trace.flush_spans()
        obs.disable()
        obs.metrics.reset_registry()
        obs.trace.install_remote_parent(None)


class TestPrometheusExposition:
    def test_query_parameter_selects_the_text_format(self, service_url):
        url, _ = service_url
        status, text = fetch_text(url + "/metrics?format=prometheus")
        assert status == 200
        assert "# TYPE deterrent_queue_done gauge" in text
        assert "deterrent_queue_done 0" in text
        assert "deterrent_service_jobs_submitted 0" in text

    def test_accept_header_selects_the_text_format(self, service_url):
        url, _ = service_url
        status, text = fetch_text(
            url + "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert text.startswith("# TYPE")

    def test_default_format_stays_json(self, service_url):
        url, _ = service_url
        status, body = http_json(url + "/metrics")
        assert status == 200
        assert isinstance(body, dict) and "queue" in body

    def test_registry_instruments_ride_along_when_traced(
        self, service_url, traced_service
    ):
        url, _ = service_url
        obs.metrics.observe("cell_seconds", 0.25)
        status, text = fetch_text(url + "/metrics?format=prometheus")
        assert status == 200
        assert "# TYPE deterrent_queue_done gauge" in text  # JSON-derived
        assert "# TYPE deterrent_cell_seconds histogram" in text
        assert "deterrent_cell_seconds_count 1" in text
        assert "\n\n" not in text.strip()  # one well-formed exposition


class TestTraceparentPropagation:
    def test_submit_joins_the_callers_trace(self, service_url, traced_service):
        url, service = service_url
        with obs.trace.span("client.submit") as client_span:
            # http_json injects the ambient context as a traceparent header.
            status, body = http_json(url + "/jobs", payload=seq_payload())
        assert status == 202 and body["status"] == "queued"

        drain_one_job(service)
        obs.flush()

        from repro.obs.trace import build_tree, load_spans, orphan_spans

        spans = load_spans(traced_service)
        assert orphan_spans(spans) == []
        assert {record["trace_id"] for record in spans} == {
            client_span.trace_id
        }  # one connected trace: client -> service -> queue worker
        by_name = {record["name"]: record for record in spans}
        assert by_name["service.submit"]["parent_id"] == client_span.span_id
        # The span records the abbreviated job id (first 16 hex chars).
        assert body["job_id"].startswith(by_name["queue.job"]["attrs"]["job_id"])
        # The worker's execution hangs off the job span, not a fresh root.
        roots, _ = build_tree(spans)
        assert len(roots) == 1 and roots[0]["name"] == "client.submit"

    def test_submission_without_a_traceparent_still_works(
        self, service_url, traced_service
    ):
        url, service = service_url
        obs.trace.install_remote_parent(None)
        status, body = http_json(url + "/jobs", payload=seq_payload())
        assert status == 202
        drain_one_job(service)
        status, done = http_json(url + "/jobs/" + body["job_id"])
        assert done["status"] == "done"
