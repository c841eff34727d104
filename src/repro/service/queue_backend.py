"""The durable-queue execution backend: ``--backend queue``.

This is the remote half of the :class:`~repro.runner.backends
.ExecutionBackend` seam.  ``make_executor`` returns an executor whose
``submit`` *enqueues* a :class:`~repro.service.queue.TaskSpec` into a
:class:`~repro.service.queue.DurableQueue` and whose futures resolve as
independent **work-stealing worker processes** (``deterrent queue-worker
--queue-dir ...``) lease, run, and ack the tasks.  Nothing in the caller
changes: :func:`repro.runner.resilience.run_tasks` drives this backend
exactly like the process pool — per-attempt timeouts abandon the executor
(hung spawned workers are terminated through the ``_processes`` table),
worker crashes surface as failures to retry, and repeated failure degrades
the run to the serial backend.

Two recovery layers compose here:

- **Queue-level** (invisible to the caller): a crashed worker's lease
  expires — or is force-expired immediately when the executor sees its own
  spawned child die — and a surviving worker *reclaims* the job.  The
  redelivery carries an incremented delivery count, which the worker loop
  feeds to the fault-injection layer as an attempt offset, so chaos plans
  replay exactly (crash-once rules recover on redelivery).
- **Resilience-level**: a task that *fails* (raises, returns a corrupt
  result) completes with a failure result; the submitting side's retry
  policy resubmits it under a fresh job id.

By default each executor owns a private queue directory (a temp dir) and
spawns its own workers, so ``deterrent run ... --backend queue`` works out
of the box; pointing ``queue_dir`` at a shared directory with externally
started workers turns the same executor into a remote-fleet client — that
is exactly how the HTTP service (:mod:`repro.service.server`) runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from concurrent.futures import BrokenExecutor, Executor, Future
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.service.queue import DEFAULT_LEASE_SECONDS, DurableQueue, TaskSpec


class RemoteTaskError(RuntimeError):
    """A queue worker completed the task with a failure result."""

    def __init__(self, job_id: str, error: dict[str, str] | None):
        error = error or {}
        message = (
            f"queue task {job_id} failed in worker: "
            f"{error.get('type', 'Error')}: {error.get('message', 'unknown error')}"
        )
        super().__init__(message)
        self.job_id = job_id
        self.remote_type = error.get("type", "Error")
        self.remote_traceback = error.get("traceback", "")


def spawn_worker(
    queue_dir: str | Path,
    *,
    worker_id: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_interval: float = 0.05,
    heartbeat: bool = True,
    max_task_seconds: float | None = None,
    parent_pid: int | None = None,
    cache_dir: str | None = None,
) -> subprocess.Popen:
    """Start one ``deterrent queue-worker`` process on ``queue_dir``.

    The child inherits this interpreter and the current ``sys.path`` (via
    ``PYTHONPATH``), so it resolves the same package — installed or
    src-layout checkout — as the caller.
    """
    command = [
        sys.executable, "-m", "repro", "queue-worker",
        "--queue-dir", str(queue_dir),
        "--poll-interval", str(poll_interval),
        "--lease-seconds", str(lease_seconds),
    ]
    if worker_id is not None:
        command += ["--worker-id", worker_id]
    if not heartbeat:
        command += ["--no-heartbeat"]
    if max_task_seconds is not None:
        command += ["--max-task-seconds", str(max_task_seconds)]
    if parent_pid is not None:
        command += ["--parent-pid", str(parent_pid)]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    env = dict(os.environ)
    search_paths = [entry for entry in sys.path if entry]
    if env.get("PYTHONPATH"):
        search_paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(search_paths))
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)


class QueueBackend:
    """Run tasks through a durable on-disk queue + worker processes.

    Args:
        queue_dir: the shared queue directory.  None (the default) gives
            every executor a private temporary directory that is removed on
            shutdown — the self-contained ``--backend queue`` mode.
        workers: worker processes to spawn per executor.  None spawns
            ``max_workers`` (the caller's job count); 0 spawns none and
            relies on externally started ``deterrent queue-worker``
            processes sharing ``queue_dir``.
        lease_seconds: lease duration for spawned workers and reclaim
            decisions.  Crashes of *spawned* workers are detected by the
            supervisor immediately (their leases are force-expired), so
            this mostly bounds recovery from externally started workers.
        poll_interval: how often the executor polls for results and dead
            workers.
        respawns: how many replacement workers the executor may spawn after
            crashes before it declares itself broken (per executor).
        max_task_seconds: per-job budget passed to spawned workers — past
            it a worker stops renewing the job's lease, so a wedged task is
            reclaimed by a peer even though its worker is still alive.
    """

    name = "queue"
    workers_are_processes = True
    supports_timeout = True

    def __init__(
        self,
        queue_dir: str | Path | None = None,
        workers: int | None = None,
        lease_seconds: float = 15.0,
        poll_interval: float = 0.05,
        respawns: int = 4,
        max_task_seconds: float | None = None,
    ) -> None:
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.workers = workers
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        self.respawns = int(respawns)
        self.max_task_seconds = max_task_seconds

    def make_executor(
        self,
        max_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> Executor:
        return _QueueExecutor(self, max_workers, initializer, initargs)


class _QueueExecutor(Executor):
    """Executor facade over one durable queue + a supervised worker fleet."""

    def __init__(
        self,
        backend: QueueBackend,
        max_workers: int,
        initializer: Callable[..., None] | None,
        initargs: tuple,
    ) -> None:
        self._backend = backend
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._owns_dir = backend.queue_dir is None
        root = (
            Path(tempfile.mkdtemp(prefix="deterrent-queue-"))
            if self._owns_dir
            else backend.queue_dir
        )
        self.queue = DurableQueue(root, lease_seconds=backend.lease_seconds)
        self.queue.clear_stop()
        self._prefix = f"x{uuid.uuid4().hex[:12]}"
        self._counter = 0
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}
        self._broken: str | None = None
        self._closing = False
        self._respawns_left = backend.respawns
        self._processes: dict[int, subprocess.Popen] = {}
        self._reaped: set[int] = set()
        self._deliveries = 0
        # Reclaims are counted as a delta over this executor's lifetime so a
        # shared queue directory's history is not attributed to this run.
        self._initial_reclaims = self.queue.stats()["reclaims"]
        to_spawn = backend.workers if backend.workers is not None else max_workers
        for index in range(max(0, to_spawn)):
            self._spawn(index)
        self._poller = threading.Thread(target=self._poll_loop, daemon=True)
        self._poller.start()

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        with self._lock:
            if self._broken is not None:
                raise BrokenExecutor(self._broken)
            if self._closing:
                raise RuntimeError("cannot submit to a shut-down queue executor")
            self._counter += 1
            job_id = f"{self._prefix}-{self._counter:06d}"
            future: Future = Future()
            self._futures[job_id] = future
        cache = _default_cache_dir()
        spec = TaskSpec(
            fn=fn,
            args=tuple(args),
            kwargs=dict(kwargs),
            initializer=self._initializer,
            initargs=self._initargs,
        )
        trace = None
        if obs.enabled():
            trace = {"dir": obs.trace_dir()}
            context = obs.current_context()
            if context is not None:
                trace.update(context.as_dict())
        self.queue.put(spec, job_id=job_id, cache_dir=cache, trace=trace)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
        if cancel_futures:
            self.cancel_pending()
        self.queue.request_stop()
        if self._poller.is_alive():
            self._poller.join(timeout=2.0)
        deadline = time.time() + (2.0 if wait else 0.0)
        for process in list(self._processes.values()):
            remaining = deadline - time.time()
            try:
                process.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                try:
                    process.terminate()
                    process.wait(timeout=1.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        if self._owns_dir:
            shutil.rmtree(self.queue.root, ignore_errors=True)

    # ------------------------------------------------------------------
    # Resilience-layer hooks
    # ------------------------------------------------------------------
    def cancel_pending(self) -> None:
        """Withdraw unfinished submissions from the queue (abandon path)."""
        with self._lock:
            unresolved = [
                job_id
                for job_id, future in self._futures.items()
                if not future.done()
            ]
        for job_id in unresolved:
            self.queue.cancel(job_id)

    def backend_counters(self) -> dict[str, int]:
        """Robustness counters for the resilience layer / run records.

        Collected by ``run_tasks`` *before* shutdown (an owned queue
        directory — and its event counts — is deleted then): worker respawns
        spent by this executor, lease reclaims that happened on its watch,
        and total job deliveries observed on resolved futures (deliveries >
        resolved futures means redelivered work).
        """
        reclaims = self.queue.stats()["reclaims"] - self._initial_reclaims
        return {
            "respawns": self._backend.respawns - self._respawns_left,
            "reclaims": max(0, reclaims),
            "deliveries": self._deliveries,
        }

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        try:
            process = spawn_worker(
                self.queue.root,
                worker_id=f"{self._prefix}-w{index}",
                lease_seconds=self._backend.lease_seconds,
                poll_interval=self._backend.poll_interval,
                max_task_seconds=self._backend.max_task_seconds,
                parent_pid=os.getpid(),
            )
        except OSError as error:
            self._broken = f"could not spawn queue worker: {error}"
            return
        self._processes[process.pid] = process

    def _poll_loop(self) -> None:
        spawn_index = 1000
        while True:
            with self._lock:
                if self._closing:
                    return
                outstanding = {
                    job_id: future
                    for job_id, future in self._futures.items()
                    if not future.done()
                }
            for job_id, future in outstanding.items():
                result = self.queue.result(job_id)
                if result is None:
                    continue
                self._deliveries += max(1, result.deliveries)
                try:
                    if result.ok:
                        future.set_result(result.value)
                    else:
                        future.set_exception(RemoteTaskError(job_id, result.error))
                except Exception:  # noqa: BLE001 - future cancelled by the caller
                    pass

            # Supervise spawned workers: a dead child's leases are
            # force-expired right away (no need to wait out the clock), and
            # a replacement is spawned while the respawn budget lasts.
            dead = [
                pid
                for pid, process in self._processes.items()
                if process.poll() is not None and pid not in self._reaped
            ]
            if dead:
                self._reaped.update(dead)
                self.queue.expire_leases_of(dead)
            alive = [
                pid for pid, process in self._processes.items() if process.poll() is None
            ]
            if dead and outstanding and not self._closing:
                for _ in dead:
                    if self._respawns_left <= 0:
                        break
                    self._respawns_left -= 1
                    self._spawn(spawn_index)
                    spawn_index += 1
                alive = [
                    pid
                    for pid, process in self._processes.items()
                    if process.poll() is None
                ]
            if (
                outstanding
                and not alive
                and self._spawned_any
                and self._respawns_left <= 0
                and self._broken is None
            ):
                self._broken = (
                    "every spawned queue worker died and the respawn budget "
                    "is exhausted"
                )
                for job_id, future in outstanding.items():
                    if self.queue.result(job_id) is not None:
                        continue  # completed in the meantime; next pass resolves
                    try:
                        future.set_exception(BrokenExecutor(self._broken))
                    except Exception:  # noqa: BLE001
                        pass
            time.sleep(self._backend.poll_interval)

    @property
    def _spawned_any(self) -> bool:
        return bool(self._processes) or bool(self._reaped)


def _default_cache_dir() -> str | None:
    from repro.runner.cache import get_default_cache

    cache = get_default_cache()
    return str(cache.root) if cache is not None else None


__all__ = ["QueueBackend", "RemoteTaskError", "spawn_worker"]
