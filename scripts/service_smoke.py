#!/usr/bin/env python3
"""End-to-end smoke test of the detection service (the CI `service-smoke` job).

Starts `deterrent serve` with two local queue workers and telemetry
enabled, submits a tiny `sequential_detect` job as a raw `.bench` payload
over HTTP from inside a client span (so the `traceparent` header links the
whole pipeline into one trace), polls it to completion, scrapes
`/healthz` and `/metrics` in both JSON and Prometheus text exposition,
validates the exported span tree with `deterrent trace --check`, and
asserts the second submission of the identical job is answered from the
artifact cache without re-running anything.  It then stops the server the
way Ctrl-C does (SIGINT) and checks that the server exits cleanly and that
both of its spawned workers are gone.

Stdlib only, like the service itself.  Exit code 0 on success; any
failed expectation raises and exits non-zero with the server log dumped
for diagnosis.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.circuits.bench_io import dumps_bench  # noqa: E402
from repro.circuits.library import load_benchmark  # noqa: E402
from repro.service.server import http_json  # noqa: E402

PORT = 8787
BASE = f"http://127.0.0.1:{PORT}"

PAYLOAD = {
    "experiment": "sequential_detect",
    "profile": "tiny",
    "options": {"cycles": [2], "modes": ["consecutive"], "counts": [2]},
}


def wait_for(predicate, timeout: float, what: str, interval: float = 0.25):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"timed out after {timeout}s waiting for {what}")


def healthz_up() -> bool:
    try:
        status, body = http_json(f"{BASE}/healthz", timeout=2)
    except OSError:
        return False
    return status == 200 and body.get("status") == "ok"


def worker_pids(log_path: Path) -> list[int]:
    """The pids of the workers ``serve`` spawned, from its start-up banner."""
    for line in log_path.read_text().splitlines():
        if line.strip().startswith("workers:") and "(pids " in line:
            return ast.literal_eval(line.split("(pids ", 1)[1].rstrip(")"))
    return []


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def main() -> int:
    PAYLOAD["bench"] = dumps_bench(
        load_benchmark("s13207_like", combinational_view=False)
    )
    with tempfile.TemporaryDirectory(prefix="det-service-smoke-") as tmp:
        trace_dir = f"{tmp}/trace"
        log_path = Path(tmp) / "serve.log"
        with log_path.open("w") as log:
            server = subprocess.Popen(
                [
                    # -u: the start-up banner (worker pids) reaches the log now.
                    sys.executable, "-u", "-m", "repro", "serve",
                    "--queue-dir", f"{tmp}/queue",
                    "--cache-dir", f"{tmp}/cache",
                    "--port", str(PORT),
                    "--workers", "2",
                    "--trace", trace_dir,
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            wait_for(healthz_up, 30, "the server to come up")
            print("healthz: ok")

            # Submit from inside a client span: http_json injects the W3C
            # traceparent header, so the server's service.submit span — and
            # the queue worker's whole subtree — join this script's trace.
            obs.configure(trace_dir, export_env=False)
            with obs.trace.span("smoke.submit"):
                status, body = http_json(f"{BASE}/jobs", payload=PAYLOAD)
            obs.flush()
            assert status == 202, f"submit: expected 202, got {status}: {body}"
            assert body["status"] == "queued" and body["cached"] is False, body
            job_id = body["job_id"]
            print(f"submitted job {job_id[:12]}… (202 queued)")

            def finished():
                status, body = http_json(f"{BASE}/jobs/{job_id}")
                assert status == 200, f"poll: {status}: {body}"
                return body if body["status"] in ("done", "failed") else None

            done = wait_for(finished, 180, "the job to finish", interval=0.5)
            assert done["status"] == "done", f"job failed: {done.get('error')}"
            record = done["result"]
            assert record["design"] == "s13207_like", record["design"]
            assert record["cells"], "job record has no cells"
            assert record["test_sets"], "job record has no test sets"
            print(
                f"job done: {len(record['cells'])} cell(s), "
                f"{len(record['test_sets'])} test set(s), "
                f"report {len(record['report'])} chars"
            )

            status, health = http_json(f"{BASE}/healthz")
            assert status == 200 and health["status"] == "ok", health
            assert health["workers_alive"] >= 1, health
            print(f"healthz: ok ({health['workers_alive']} workers alive)")

            status, metrics = http_json(f"{BASE}/metrics")
            assert status == 200, metrics
            assert metrics["service"]["jobs_enqueued"] == 1, metrics["service"]
            assert metrics["queue"]["done"] >= 1, metrics["queue"]
            assert metrics["cache"]["lifetime"].get("stores", 0) >= 1, metrics["cache"]
            assert metrics["solver"].get("conflicts", 0) > 0, metrics["solver"]
            print(
                "metrics: "
                f"service={metrics['service']} "
                f"solver_conflicts={metrics['solver'].get('conflicts')}"
            )

            request = urllib.request.Request(
                f"{BASE}/metrics?format=prometheus", headers={"Accept": "text/plain"}
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                prom = response.read().decode("utf-8")
            assert prom.startswith("# TYPE"), prom[:200]
            assert "deterrent_queue_done" in prom, prom[:400]
            assert "deterrent_solver_conflicts" in prom, prom[:400]
            print(f"metrics: prometheus exposition ok ({len(prom.splitlines())} lines)")

            status, again = http_json(f"{BASE}/jobs", payload=PAYLOAD)
            assert status == 200, f"resubmit: expected 200 cache hit, got {status}: {again}"
            assert again["cached"] is True, again
            assert again["result"]["report"] == record["report"], "cached report differs"
            print("resubmit: answered from cache, report identical")

            check = subprocess.run(
                [sys.executable, "-m", "repro", "trace", trace_dir, "--check"],
                capture_output=True,
                text=True,
            )
            assert check.returncode == 0, (
                f"trace --check failed ({check.returncode}):\n"
                f"{check.stdout}\n{check.stderr}"
            )
            first_line = check.stdout.splitlines()[0] if check.stdout else ""
            print(f"trace --check: ok ({first_line})")

            # Stop the server the way Ctrl-C does: it must write the stop
            # marker, let both workers exit, and return 0.
            pids = worker_pids(log_path)
            assert len(pids) == 2, f"expected 2 worker pids in the log, got {pids}"
            server.send_signal(signal.SIGINT)
            returncode = server.wait(timeout=10)
            assert returncode == 0, f"serve exited with {returncode} on SIGINT"
            wait_for(
                lambda: not any(pid_alive(pid) for pid in pids),
                10,
                "the spawned workers to exit",
            )
            print(f"shutdown: serve exited 0 on SIGINT; workers {pids} gone")

            print("service smoke: PASS")
            return 0
        except BaseException:
            print("---- server log ----", file=sys.stderr)
            sys.stderr.write(log_path.read_text())
            raise
        finally:
            obs.disable()
            if server.poll() is None:  # a run that already failed
                server.terminate()
                try:
                    server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    server.kill()


if __name__ == "__main__":
    sys.exit(main())
