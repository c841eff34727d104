"""Detection-as-a-service HTTP front end (stdlib ``http.server`` only).

One small threaded HTTP server in front of the shared queue + cache:

- ``POST /jobs`` — submit a ``.bench`` netlist with an experiment name,
  profile, and harness options.  The payload is validated against the
  experiment registry (unknown experiments/options/profiles are a 400
  before anything is queued).  Because job ids are content addresses, the
  submit path *is* a cache probe: a job whose record already exists in the
  shared :class:`~repro.runner.cache.ArtifactCache` answers immediately
  (``"cached": true``) without touching the queue.  Otherwise the job is
  enqueued and independent ``deterrent queue-worker`` processes — started
  by ``--workers`` or externally, on any machine sharing the queue
  directory — lease and run it.
- ``GET /jobs/<id>`` — status (``queued`` / ``leased`` / ``done`` /
  ``failed``) and, once finished, the full job record.
- ``GET /healthz`` — liveness plus a one-line queue summary.
- ``GET /metrics`` — queue depth and in-flight leases, reclaim and
  corrupt-task counters, per-worker liveness, cache hit/miss/store
  counters (session and lifetime), and aggregate CDCL
  :class:`~repro.sat.solver.SolverStats` folded out of every completed job
  record this server has seen.

The server itself never runs a job: it validates, addresses, enqueues, and
reads results.  Every durable state transition belongs to the queue and
the cache, so killing and restarting the server (or pointing a second one
at the same directories) loses nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro import obs
from repro.obs.trace import TraceContext
from repro.runner.cache import ArtifactCache, get_default_cache
from repro.sat.solver import SolverStats
from repro.service.jobs import (
    JOB_RESULT_KIND,
    JobValidationError,
    import_harnesses,
    run_service_job,
    validate_job,
)
from repro.service.queue import DEFAULT_LEASE_SECONDS, DurableQueue, TaskSpec

#: Maximum accepted request body (a .bench netlist plus options; 16 MiB is
#: orders of magnitude above every benchmark in the suite).
MAX_BODY_BYTES = 16 * 1024 * 1024


class DeterrentService:
    """The service state shared by every request handler thread."""

    def __init__(
        self,
        queue_dir: str | Path,
        cache_dir: str | Path | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        self.queue = DurableQueue(queue_dir, lease_seconds=lease_seconds)
        self.queue.clear_stop()
        if cache_dir is not None:
            self.cache = ArtifactCache(Path(cache_dir))
        else:
            self.cache = get_default_cache() or ArtifactCache(
                Path(queue_dir) / "cache"
            )
        self.started_at = time.time()
        self._lock = threading.Lock()
        self.counters = {
            "jobs_submitted": 0,
            "jobs_invalid": 0,
            "jobs_cache_hits": 0,
            "jobs_enqueued": 0,
            "jobs_duplicate": 0,
            "jobs_retried": 0,
        }
        self._solver_totals = SolverStats()
        self._solver_folded: set[str] = set()

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(
        self, payload: Any, parent: TraceContext | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Handle one ``POST /jobs``; return ``(http_status, response body)``.

        ``parent`` is the caller's trace context (decoded from an incoming
        ``traceparent`` header): when this process traces, the submit gets
        its own server span under it, and either way the context is shipped
        in the queue header so the worker's ``queue.job`` span joins the
        same tree.
        """
        try:
            with obs.trace.span(
                "service.submit", parent=parent
            ) as span:
                status, body = self._submit(payload, parent)
                span.set_attr("status", status)
                return status, body
        finally:
            # Flush *after* the span context closed so the submit's own
            # record is exported with the request — the serving process
            # may be terminated (not interrupted) and would otherwise
            # strand it in the buffer, orphaning the worker-side spans.
            obs.flush()

    def _submit(
        self, payload: Any, parent: TraceContext | None
    ) -> tuple[int, dict[str, Any]]:
        with self._lock:
            self.counters["jobs_submitted"] += 1
        try:
            request = validate_job(payload)
        except JobValidationError as error:
            with self._lock:
                self.counters["jobs_invalid"] += 1
            return 400, {"error": str(error)}
        job_id = request.job_id()
        base = {
            "job_id": job_id,
            "experiment": request.experiment,
            "profile": request.profile,
        }
        record = self.cache.load_digest(JOB_RESULT_KIND, job_id)
        if record is not None:
            with self._lock:
                self.counters["jobs_cache_hits"] += 1
            self._fold_solver_stats(job_id, record)
            return 200, {**base, "status": "done", "cached": True, "result": record}
        status = self.queue.status(job_id)
        if status in ("queued", "leased"):
            with self._lock:
                self.counters["jobs_duplicate"] += 1
            return 202, {**base, "status": status, "duplicate": True}
        if status == "failed":
            # Content-addressed ids mean a failed job would otherwise pin its
            # failure forever; an explicit resubmit clears it and retries.
            try:
                self.queue.result_path(job_id).unlink()
            except OSError:
                pass
            with self._lock:
                self.counters["jobs_retried"] += 1
        spec = TaskSpec(
            fn=run_service_job,
            args=(dict(payload),),
            label=f"service:{request.experiment}",
        )
        trace: dict[str, Any] | None = None
        if obs.enabled():
            context = obs.trace.current_context()
            trace = {"dir": obs.trace_dir()}
            if context is not None:
                trace.update(context.as_dict())
        elif parent is not None:
            # Not tracing here, but the caller is: forward its ids so a
            # worker with its own trace dir still links into the caller's
            # tree.
            trace = parent.as_dict()
        self.queue.put(
            spec,
            job_id=job_id,
            cache_dir=str(self.cache.root),
            meta={"experiment": request.experiment, "profile": request.profile},
            trace=trace,
        )
        with self._lock:
            self.counters["jobs_enqueued"] += 1
        return 202, {**base, "status": "queued", "cached": False}

    def job_status(self, job_id: str) -> tuple[int, dict[str, Any]]:
        """Handle one ``GET /jobs/<id>``."""
        queue_result = self.queue.result(job_id)
        if queue_result is not None:
            if queue_result.ok:
                self._fold_solver_stats(job_id, queue_result.value)
                return 200, {
                    "job_id": job_id,
                    "status": "done",
                    "deliveries": queue_result.deliveries,
                    "worker": queue_result.worker,
                    "result": queue_result.value,
                }
            return 200, {
                "job_id": job_id,
                "status": "failed",
                "deliveries": queue_result.deliveries,
                "worker": queue_result.worker,
                "error": queue_result.error,
            }
        status = self.queue.status(job_id)
        if status in ("queued", "leased"):
            body: dict[str, Any] = {"job_id": job_id, "status": status}
            lease = self.queue.lease_info(job_id)
            if lease is not None:
                body["worker"] = lease.get("worker")
                body["deliveries"] = lease.get("deliveries")
            return 200, body
        # Not in the queue: it may be a finished job whose record lives only
        # in the cache (e.g. the queue directory was cleaned, or the job was
        # answered from cache at submit time).
        record = self.cache.load_digest(JOB_RESULT_KIND, job_id)
        if record is not None:
            self._fold_solver_stats(job_id, record)
            return 200, {
                "job_id": job_id,
                "status": "done",
                "cached": True,
                "result": record,
            }
        return 404, {"job_id": job_id, "status": "unknown", "error": "no such job"}

    # ------------------------------------------------------------------
    # Health + metrics
    # ------------------------------------------------------------------
    def healthz(self) -> tuple[int, dict[str, Any]]:
        stats = self.queue.stats()
        return 200, {
            "status": "stopping" if stats["stop_requested"] else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queued": stats["queued"],
            "leased": stats["leased"],
            "workers_alive": stats["workers_alive"],
        }

    def metrics(self) -> tuple[int, dict[str, Any]]:
        with self._lock:
            counters = dict(self.counters)
            solver = self._solver_totals.as_dict()
        return 200, {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "service": counters,
            "queue": self.queue.stats(),
            "workers": self.queue.worker_liveness(),
            "cache": self.cache.stats_snapshot(),
            "solver": solver,
        }

    def metrics_prometheus(self) -> tuple[int, str]:
        """``GET /metrics?format=prometheus``: text exposition of the same data.

        Every numeric leaf of the JSON payload becomes a gauge (nested keys
        join with ``_``); when this process traces, the local telemetry
        registry's duration histograms are appended.
        """
        _, payload = self.metrics()
        lines = [obs.metrics.payload_to_prometheus(payload, prefix="deterrent_")]
        if obs.enabled():
            registry_text = obs.metrics.registry().to_prometheus()
            if registry_text:
                lines.append(registry_text)
        return 200, "\n".join(part.rstrip("\n") for part in lines if part.strip()) + "\n"

    def _fold_solver_stats(self, job_id: str, record: Any) -> None:
        """Accumulate a completed record's SolverStats into the aggregate.

        Job records carry per-cell ``solver_stats`` dicts under
        ``cells[*].result`` (see ``sequential_detect``); folding them through
        :meth:`SolverStats.merge` gives the fleet-wide totals ``/metrics``
        reports — sums, except ``max_trail``, which is a high-water mark.
        Idempotent per job id, so polling never double-counts.
        """
        with self._lock:
            if job_id in self._solver_folded:
                return
            self._solver_folded.add(job_id)
            for cell in record.get("cells") or ():
                result = cell.get("result")
                stats = result.get("solver_stats") if isinstance(result, dict) else None
                if stats:
                    self._solver_totals = self._solver_totals.merge(SolverStats(**stats))


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the shared :class:`DeterrentService`."""

    server: "DeterrentHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        service = self.server.service
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        if path == "/healthz":
            self._reply(*service.healthz())
        elif path == "/metrics":
            accept = self.headers.get("Accept", "")
            if "format=prometheus" in query or "text/plain" in accept:
                self._reply_text(*service.metrics_prometheus())
            else:
                self._reply(*service.metrics())
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if not job_id or "/" in job_id:
                self._reply(404, {"error": "expected /jobs/<job_id>"})
            else:
                self._reply(*service.job_status(job_id))
        elif path == "/":
            self._reply(
                200,
                {
                    "service": "deterrent",
                    "endpoints": ["POST /jobs", "GET /jobs/<id>", "GET /healthz", "GET /metrics"],
                },
            )
        else:
            self._reply(404, {"error": f"no such endpoint: {path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._reply(404, {"error": f"no such endpoint: {path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"body must be 0..{MAX_BODY_BYTES} bytes"})
            return
        body = self.rfile.read(length)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._reply(400, {"error": f"request body is not valid JSON: {error}"})
            return
        parent = TraceContext.from_traceparent(self.headers.get("traceparent"))
        self._reply(*self.server.service.submit(payload, parent=parent))

    # ------------------------------------------------------------------
    def _reply(self, status: int, body: dict[str, Any]) -> None:
        try:
            data = json.dumps(body).encode("utf-8")
        except (TypeError, ValueError):
            status = 500
            data = json.dumps({"error": "result is not JSON-serialisable"}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply_text(self, status: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class DeterrentHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying the shared service state."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: DeterrentService,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__(address, _ServiceHandler)


def make_server(
    service: DeterrentService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> DeterrentHTTPServer:
    """Bind (but do not run) the service's HTTP server; port 0 picks a free one."""
    return DeterrentHTTPServer((host, port), service, verbose=verbose)


def serve(
    queue_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 8787,
    cache_dir: str | Path | None = None,
    workers: int = 0,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    verbose: bool = False,
    trace_dir: str | Path | None = None,
) -> int:
    """Run the service until interrupted (the body of ``deterrent serve``).

    With ``workers > 0`` the server also spawns that many local
    ``deterrent queue-worker`` processes on the queue directory; with the
    default 0 it serves pure front-end duty and expects externally started
    workers (possibly on other machines sharing the directory).

    With ``trace_dir`` the server traces every submit and exports telemetry
    there; spawned workers inherit the directory through the environment,
    so their ``queue.job`` spans land in the same export.
    """
    from repro.service.queue_backend import spawn_worker

    if trace_dir is not None:
        obs.configure(trace_dir)
    service = DeterrentService(queue_dir, cache_dir=cache_dir, lease_seconds=lease_seconds)
    server = make_server(service, host=host, port=port, verbose=verbose)
    spawned = []
    for index in range(max(0, workers)):
        spawned.append(
            spawn_worker(
                service.queue.root,
                worker_id=f"serve-w{index}",
                lease_seconds=lease_seconds,
                cache_dir=str(service.cache.root),
                parent_pid=os.getpid(),
            )
        )
    # While the workers start: the first submit must not pay for importing
    # the harness it is validated against.
    import_harnesses()
    bound_host, bound_port = server.server_address[:2]
    print(f"deterrent service listening on http://{bound_host}:{bound_port}")
    print(f"  queue: {service.queue.root}")
    print(f"  cache: {service.cache.root}")
    if obs.enabled():
        print(f"  trace: {obs.trace_dir()}")
    if spawned:
        print(f"  workers: {len(spawned)} spawned (pids {[p.pid for p in spawned]})")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.queue.request_stop()
        deadline = time.time() + 3.0
        for process in spawned:
            try:
                process.wait(timeout=max(0.1, deadline - time.time()))
            except Exception:  # noqa: BLE001 - best-effort shutdown
                process.terminate()
    return 0


def http_json(
    url: str, payload: dict[str, Any] | None = None, timeout: float = 30.0
) -> tuple[int, dict[str, Any]]:
    """Tiny JSON-over-HTTP client (urllib): GET, or POST when ``payload``.

    Used by ``deterrent submit`` and the CI smoke script so neither needs a
    third-party HTTP library.  Returns ``(status, decoded body)``; HTTP
    errors with JSON bodies (e.g. a 400 validation message) are returned,
    not raised.  When the caller is inside an active span, a W3C
    ``traceparent`` header rides along so the server (and the worker it
    enqueues to) can join the caller's trace.
    """
    data = None
    headers = {"Accept": "application/json"}
    context = obs.trace.current_context()
    if context is not None:
        headers["traceparent"] = context.to_traceparent()
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            return error.code, json.loads(error.read().decode("utf-8"))
        except (ValueError, OSError):
            return error.code, {"error": str(error)}


__all__ = [
    "MAX_BODY_BYTES",
    "DeterrentHTTPServer",
    "DeterrentService",
    "http_json",
    "make_server",
    "serve",
]
