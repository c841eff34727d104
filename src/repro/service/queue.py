"""Durable on-disk job queue: atomic leases, heartbeats, crash-safe acks.

The queue is a directory, so it survives every process that touches it and
needs no broker.  One job is one *task file*; workers claim jobs by
atomically creating a *lease file*, renew the lease with heartbeats while
they run, and *ack* by writing a result file and removing the task.  Every
transition is a single atomic filesystem operation (``O_CREAT|O_EXCL``
create, :func:`repro.utils.fsio.atomic_write`, ``os.unlink``), so a crash at
any point leaves the queue in a state the next reader understands:

- task file, no lease → queued (claimable);
- task file + live lease → running (left alone);
- task file + expired lease → the worker died or hung: any worker may
  *reclaim* the job (replace the stale lease with its own, with an
  incremented delivery count);
- result file → done (the task and lease files are gone or ignorable).

Layout under the queue root::

    tasks/<job_id>.task      pickled header + TaskSpec (atomic write)
    leases/<job_id>.lease    JSON lease (atomic claim via O_CREAT|O_EXCL)
    leases/<job_id>.<N>.reclaimed  who reclaimed delivery N (O_CREAT|O_EXCL)
    results/<job_id>.result  pickled QueueResult (atomic write)
    results/<job_id>.corrupt an unreadable result, moved aside
    workers/<worker>.json    per-worker liveness heartbeat
    events_totals.json       lifetime event counts (reclaim, corrupt_task,
                             corrupt_result)
    events_totals.lock       flock guarding the counts' read-modify-write
    stop                     cooperative shutdown marker
    wake                     FIFO: a put or stop writes one byte, which wakes
                             one idle worker (a hint: without it, workers poll)

Queue events are counted, not logged: each reclaim, corrupt task or corrupt
result adds one to its count in ``events_totals.json``, a
:class:`repro.utils.fsio.CounterFile` every process sharing the directory
adds to without losing increments.  ``stats()`` reports those lifetime
counts.  Event counts are telemetry, never control flow: a failed add is
dropped, and a missing or corrupt file reads as zero.

Job ids are **deterministic content addresses**: the default id of a task
spec is :func:`repro.runner.cache.config_fingerprint` over the spec's
canonical description — the same SHA-256 addressing scheme the
:class:`~repro.runner.cache.ArtifactCache` uses for artifacts — so
re-enqueueing the same work is idempotent.  The HTTP service passes its own
content address (:meth:`repro.service.jobs.JobRequest.job_id`) as an
explicit ``job_id`` and uses that one digest as its cache address too.

A reclaim is exclusive per delivery generation: before replacing an
expired lease of delivery ``N``, a worker must create the ``<N>.reclaimed``
marker, so of two workers that both saw the same stale lease exactly one
takes the job.  An unreadable result file is moved aside and counted
(``corrupt_results``), so the job runs again instead of reading as "still
in flight" forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import select
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import obs
from repro.runner.cache import config_fingerprint
from repro.utils.fsio import CounterFile, atomic_write, move_aside

#: Default lease duration: a worker that neither heartbeats nor acks within
#: this window is presumed dead and its job becomes reclaimable.
DEFAULT_LEASE_SECONDS = 30.0

#: A worker whose liveness heartbeat is older than this is reported dead.
WORKER_LIVENESS_SECONDS = 10.0


class LeaseLost(RuntimeError):
    """This worker's lease was reclaimed by a peer (it was presumed dead)."""


@dataclass(frozen=True)
class TaskSpec:
    """One picklable unit of queued work: a module-level function + arguments.

    ``fn`` must be importable by name in the worker process (the same
    contract the process backend imposes).
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = "task"

    def content_key(self) -> dict[str, Any]:
        """Canonical description of this spec for content-addressed job ids."""
        fn = self.fn
        payload = pickle.dumps(
            (self.args, tuple(sorted(self.kwargs.items()))),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return {
            "fn": f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', repr(fn))}",
            "payload": hashlib.sha256(payload).hexdigest(),
            "label": self.label,
        }

    def job_id(self) -> str:
        """Deterministic content-addressed id (ArtifactCache addressing)."""
        return config_fingerprint(**self.content_key())


@dataclass
class Lease:
    """A claimed job: the spec plus everything needed to ack or renew it."""

    job_id: str
    spec: TaskSpec
    header: dict[str, Any]
    worker: str
    pid: int
    deliveries: int
    leased_at: float
    expires_at: float
    lease_seconds: float


@dataclass
class QueueResult:
    """The terminal state of one job (stored at ``results/<job_id>.result``)."""

    job_id: str
    ok: bool
    value: Any = None
    error: dict[str, str] | None = None
    worker: str = ""
    deliveries: int = 0
    elapsed: float = 0.0


class DurableQueue:
    """Crash-safe work queue over one directory (see the module docstring)."""

    def __init__(
        self, root: str | Path, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        self.root = Path(root)
        self.lease_seconds = float(lease_seconds)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        self.workers_dir = self.root / "workers"
        self.stop_path = self.root / "stop"
        self.wake_path = self.root / "wake"
        self._events = CounterFile(self.root / "events_totals.json")
        for directory in (
            self.tasks_dir, self.leases_dir, self.results_dir, self.workers_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)
        with suppress(AttributeError, OSError):  # exists, or no FIFOs here: workers poll
            os.mkfifo(self.wake_path)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(
        self,
        spec: TaskSpec,
        job_id: str | None = None,
        sys_path: list[str] | None = None,
        cache_dir: str | None = None,
        meta: dict[str, Any] | None = None,
        trace: dict[str, Any] | None = None,
    ) -> str:
        """Enqueue ``spec``; return its job id.  Idempotent per id.

        ``sys_path`` (default: the caller's ``sys.path``) is stored in a
        plain header *before* the pickled spec, so a worker can extend its
        import path before unpickling — tasks defined in the caller's local
        modules (e.g. a test file) stay loadable.  ``cache_dir`` names the
        artifact cache the worker should install while running this job.
        ``trace`` carries the submitter's span context plus trace directory
        (``{"trace_id", "span_id", "dir"}``) so the worker's ``queue.job``
        span joins the submitter's trace (see :mod:`repro.obs.trace`).
        """
        if job_id is None:
            job_id = spec.job_id()
        task_path = self.tasks_dir / f"{job_id}.task"
        if task_path.exists() or self.result(job_id) is not None:
            return job_id  # already queued, running, or done: idempotent
        header = {
            "job_id": job_id,
            "sys_path": list(sys_path if sys_path is not None else sys.path),
            "cache_dir": cache_dir,
            "label": spec.label,
            "enqueued_at": time.time(),
            "meta": dict(meta or {}),
            "trace": dict(trace) if trace else None,
        }
        buffer = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        buffer += pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(task_path, buffer)
        self._wake()
        return job_id

    # ------------------------------------------------------------------
    # Worker side: claim / heartbeat / ack / fail
    # ------------------------------------------------------------------
    def claim(self, worker: str, now: float | None = None) -> Lease | None:
        """Lease the oldest claimable job, or None when nothing is available.

        Work-stealing: every worker scans the shared task directory; an
        exclusive lease-file create decides races.  A job whose lease has
        expired is *reclaimed*: the one racer that creates the stale
        delivery's ``.reclaimed`` marker replaces the lease with its own,
        with the delivery count incremented, so metrics can tell a first
        delivery from a redelivery.
        """
        if now is None:
            now = time.time()
        candidates = []
        for task_path in self.tasks_dir.glob("*.task"):
            try:
                candidates.append((task_path.stat().st_mtime, task_path))
            except OSError:
                continue  # acked concurrently
        for _, task_path in sorted(candidates, key=lambda pair: (pair[0], pair[1].name)):
            job_id = task_path.stem
            if self.result(job_id) is not None:
                # Finished but not fully cleaned up (a crash between writing
                # the result and removing the task): finish the cleanup.
                self._cleanup_done(job_id)
                continue
            lease_path = self.leases_dir / f"{job_id}.lease"
            stale = self._read_lease(lease_path)
            if stale is not None and stale.get("expires_at", 0.0) > now:
                continue  # live lease: someone else is on it
            deliveries = 1 if stale is None else int(stale.get("deliveries", 1)) + 1
            record = {
                "job_id": job_id,
                "worker": worker,
                "pid": os.getpid(),
                "deliveries": deliveries,
                "leased_at": now,
                "expires_at": now + self.lease_seconds,
                "lease_seconds": self.lease_seconds,
            }
            if stale is None:
                if not self._create_exclusive(lease_path, record):
                    continue  # lost the claim race
            else:
                marker = self.leases_dir / f"{job_id}.{deliveries - 1}.reclaimed"
                if not self._create_exclusive(marker, record):
                    continue  # a peer won the reclaim of this delivery
                # Replace, never unlink-then-create: the lease file never
                # goes missing, so no fresh claim can slip in between.
                atomic_write(lease_path, json.dumps(record).encode())
                self._count_event("reclaim")
            loaded = self._read_task(task_path)
            if loaded is None:
                # Unreadable/corrupt task file: fail it permanently so it
                # cannot wedge the queue, and move on.
                self._store_result(
                    QueueResult(
                        job_id=job_id,
                        ok=False,
                        error={
                            "type": "CorruptTask",
                            "message": f"task file for {job_id} was unreadable",
                            "traceback": "",
                        },
                        worker=worker,
                        deliveries=deliveries,
                    )
                )
                self._cleanup_done(job_id)
                self._count_event("corrupt_task")
                continue
            header, spec = loaded
            return Lease(spec=spec, header=header, **record)
        return None

    def heartbeat(self, lease: Lease, now: float | None = None) -> None:
        """Extend ``lease`` by its duration; raise :class:`LeaseLost` if stolen."""
        if now is None:
            now = time.time()
        lease_path = self.leases_dir / f"{lease.job_id}.lease"
        current = self._read_lease(lease_path)
        if current is None or current.get("worker") != lease.worker or (
            int(current.get("pid", -1)) != lease.pid
        ):
            raise LeaseLost(
                f"lease on {lease.job_id} now belongs to "
                f"{current.get('worker') if current else 'nobody'}"
            )
        lease.expires_at = now + lease.lease_seconds
        current["expires_at"] = lease.expires_at
        atomic_write(lease_path, json.dumps(current).encode())

    def ack(self, lease: Lease, value: Any, elapsed: float = 0.0) -> None:
        """Complete ``lease`` with ``value``: store the result, retire the task.

        The result is written first (atomically), so a crash mid-ack leaves
        a finished job with a stale task file — which the next ``claim``
        sweep retires instead of re-running.
        """
        self._store_result(
            QueueResult(
                job_id=lease.job_id,
                ok=True,
                value=value,
                worker=lease.worker,
                deliveries=lease.deliveries,
                elapsed=elapsed,
            )
        )
        self._cleanup_done(lease.job_id, owner=lease)

    def fail(self, lease: Lease, error: BaseException, elapsed: float = 0.0) -> None:
        """Complete ``lease`` with a failure result (the task is *not* retried
        by the queue; a retry is the submitter's call — the HTTP service
        clears a failed result when the job is submitted again)."""
        self._store_result(
            QueueResult(
                job_id=lease.job_id,
                ok=False,
                error={
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": "".join(
                        traceback.format_exception(type(error), error, error.__traceback__)
                    ),
                },
                worker=lease.worker,
                deliveries=lease.deliveries,
                elapsed=elapsed,
            )
        )
        self._cleanup_done(lease.job_id, owner=lease)

    # ------------------------------------------------------------------
    # Status and results
    # ------------------------------------------------------------------
    def result_path(self, job_id: str) -> Path:
        """Where ``job_id``'s terminal result lives (whether or not done)."""
        return self.results_dir / f"{job_id}.result"

    def result(self, job_id: str) -> QueueResult | None:
        """The job's terminal result, or None while it is still in flight.

        Results are written atomically, so an unreadable one is corrupt, not
        torn.  It is moved aside and counted, which lets ``put`` enqueue the
        job again and ``claim`` run it; at worst a racing reader moves a
        fresh result aside too, and the job runs once more.
        """
        path = self.result_path(job_id)
        try:
            with path.open("rb") as handle:
                loaded = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            loaded = None
        if isinstance(loaded, QueueResult):
            return loaded
        if move_aside(path, self.results_dir / f"{job_id}.corrupt"):
            self._count_event("corrupt_result")  # else a peer moved and counted it
        return None

    def status(self, job_id: str, now: float | None = None) -> str:
        """``queued`` | ``leased`` | ``done`` | ``failed`` | ``unknown``."""
        if now is None:
            now = time.time()
        result = self.result(job_id)
        if result is not None:
            return "done" if result.ok else "failed"
        if self._live_lease(job_id, now) is not None:
            return "leased"
        if (self.tasks_dir / f"{job_id}.task").exists():
            return "queued"
        return "unknown"

    def lease_info(self, job_id: str) -> dict[str, Any] | None:
        """The raw lease record of ``job_id``, if one exists."""
        return self._read_lease(self.leases_dir / f"{job_id}.lease")

    def stats(self, now: float | None = None) -> dict[str, Any]:
        """Cheap queue telemetry (directory scans + lifetime event counts)."""
        if now is None:
            now = time.time()
        task_ids = {path.stem for path in self.tasks_dir.glob("*.task")}
        done_ids = {path.stem for path in self.results_dir.glob("*.result")}
        live_leases = 0
        expired_leases = 0
        for lease_path in self.leases_dir.glob("*.lease"):
            if lease_path.stem not in task_ids:
                continue
            info = self._read_lease(lease_path)
            if info is None:
                continue
            if info.get("expires_at", 0.0) > now:
                live_leases += 1
            else:
                expired_leases += 1
        pending = task_ids - done_ids
        events = self._events.read()
        workers = self.worker_liveness(now)
        return {
            "queued": len(pending) - live_leases - expired_leases,
            "leased": live_leases,
            "expired_leases": expired_leases,
            "done": len(done_ids),
            "reclaims": events.get("reclaim", 0),
            "corrupt_tasks": events.get("corrupt_task", 0),
            "corrupt_results": events.get("corrupt_result", 0),
            "workers_alive": sum(1 for info in workers.values() if info["alive"]),
            "workers_seen": len(workers),
            "stop_requested": self.stop_requested(),
        }

    def worker_liveness(self, now: float | None = None) -> dict[str, dict[str, Any]]:
        """Per-worker heartbeat records with an ``alive`` verdict attached."""
        if now is None:
            now = time.time()
        liveness: dict[str, dict[str, Any]] = {}
        for path in self.workers_dir.glob("*.json"):
            try:
                info = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            beat = float(info.get("last_beat", 0.0))
            info["alive"] = (now - beat) < WORKER_LIVENESS_SECONDS
            liveness[info.get("worker", path.stem)] = info
        return liveness

    # ------------------------------------------------------------------
    # Cooperative shutdown and idle wake-ups
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask every worker polling this queue to exit after its current job."""
        atomic_write(self.stop_path, b"stop\n")
        self._wake()

    def clear_stop(self) -> None:
        """Remove the stop marker (e.g. before reusing a queue directory)."""
        try:
            self.stop_path.unlink()
        except OSError:
            pass

    def stop_requested(self) -> bool:
        """Has :meth:`request_stop` been called on this queue directory?"""
        return self.stop_path.exists()

    @contextmanager
    def waiter(self) -> Iterator[Callable[[float], bool]]:
        """Yield ``wait(timeout)``: True once it consumed one wake-up byte (a
        put or stop), False on timeout; without the FIFO it sleeps.  Open it
        before the first empty ``claim``: bytes wait in the pipe while open."""
        descriptor = self._open_wake(os.O_RDWR)

        def wait(timeout: float) -> bool:
            if descriptor is None:
                time.sleep(timeout)
                return False
            deadline = time.monotonic() + timeout
            while select.select([descriptor], [], [], max(0.0, deadline - time.monotonic()))[0]:
                with suppress(BlockingIOError):  # else a peer took the byte first
                    return bool(os.read(descriptor, 1))
            return False

        try:
            yield wait
        finally:
            if descriptor is not None:
                os.close(descriptor)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _create_exclusive(self, path: Path, record: dict[str, Any]) -> bool:
        """Atomically create ``path`` (a lease or a reclaim marker) holding
        ``record``; False when a peer created it first."""
        try:
            descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        with os.fdopen(descriptor, "w") as handle:
            json.dump(record, handle)
        return True

    def _owns(self, lease: Lease) -> bool:
        current = self._read_lease(self.leases_dir / f"{lease.job_id}.lease")
        return (
            current is not None
            and current.get("worker") == lease.worker
            and int(current.get("pid", -1)) == lease.pid
        )

    def _live_lease(self, job_id: str, now: float | None = None) -> dict[str, Any] | None:
        if now is None:
            now = time.time()
        info = self._read_lease(self.leases_dir / f"{job_id}.lease")
        if info is None or info.get("expires_at", 0.0) <= now:
            return None
        return info

    def _read_lease(self, lease_path: Path) -> dict[str, Any] | None:
        try:
            return json.loads(lease_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _read_task(self, task_path: Path) -> tuple[dict[str, Any], TaskSpec] | None:
        """Load (header, spec); extend ``sys.path`` from the header first.

        The header is a plain dict of primitives, safe to unpickle without
        imports; the spec references functions by module name, so the
        header's ``sys_path`` must be applied before the second load.
        """
        try:
            with task_path.open("rb") as handle:
                header = pickle.load(handle)
                for entry in header.get("sys_path", []):
                    if entry and entry not in sys.path:
                        sys.path.append(entry)
                spec = pickle.load(handle)
        except Exception:
            return None
        if not isinstance(spec, TaskSpec) or not isinstance(header, dict):
            return None
        return header, spec

    def _store_result(self, result: QueueResult) -> None:
        try:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            # An unpicklable result value must not lose the job: degrade to
            # a failure result that explains what happened.
            payload = pickle.dumps(
                QueueResult(
                    job_id=result.job_id,
                    ok=False,
                    error={
                        "type": "UnpicklableResult",
                        "message": f"worker result could not be pickled: {error!r}",
                        "traceback": "",
                    },
                    worker=result.worker,
                    deliveries=result.deliveries,
                    elapsed=result.elapsed,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        atomic_write(self.result_path(result.job_id), payload)

    def _cleanup_done(self, job_id: str, owner: Lease | None = None) -> None:
        """Retire a finished job's task file (and its lease when owned/stale)."""
        try:
            (self.tasks_dir / f"{job_id}.task").unlink()
        except OSError:
            pass
        if owner is None or self._owns(owner):
            self._remove_lease_files(job_id)

    def _remove_lease_files(self, job_id: str) -> None:
        """Unlink ``job_id``'s lease and every reclaim marker it left."""
        paths = [self.leases_dir / f"{job_id}.lease"]
        paths += self.leases_dir.glob(f"{job_id}.*.reclaimed")
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass

    def _open_wake(self, flags: int) -> int | None:
        """Open the wake-up FIFO non-blocking; None if missing (or no reader)."""
        if not self.wake_path.is_fifo():
            return None  # never write to, or spin on, a regular file
        with suppress(OSError):  # opening to write fails while no worker waits
            return os.open(self.wake_path, flags | os.O_NONBLOCK)
        return None

    def _wake(self) -> None:
        """Wake one idle worker: a hint, so no reader or a full pipe is ignored."""
        descriptor = self._open_wake(os.O_WRONLY)
        if descriptor is not None:
            with suppress(OSError):  # a full pipe: wake-ups are pending anyway
                os.write(descriptor, b"w")
            os.close(descriptor)

    def _count_event(self, event: str) -> None:
        """Add one ``event`` to the lifetime counts (``events_totals.json``)."""
        self._events.add({event: 1})


# ----------------------------------------------------------------------
# The worker loop (the body of `deterrent queue-worker`)
# ----------------------------------------------------------------------
@dataclass
class WorkerOptions:
    """Configuration of one work-stealing queue worker.

    Past ``max_task_seconds`` the heartbeat thread stops renewing the job's
    lease, so a wedged task is eventually stolen even though its worker is
    alive.
    """

    worker_id: str | None = None
    poll_interval: float = 0.1
    max_task_seconds: float | None = None
    max_idle_seconds: float | None = None
    max_jobs: int | None = None
    cache_dir: str | None = None
    parent_pid: int | None = None


def worker_loop(queue: DurableQueue, options: WorkerOptions | None = None) -> int:
    """Lease, run, and ack jobs from ``queue`` until stopped; return jobs done.

    The loop exits when :meth:`DurableQueue.request_stop` has been called,
    after ``max_jobs`` completed jobs, or after ``max_idle_seconds`` without
    claimable work.  After an empty claim it waits at most ``poll_interval``
    for the queue's wake-up FIFO to signal a put or a stop.
    """
    options = options or WorkerOptions()
    worker_id = options.worker_id or f"worker-{os.getpid()}"
    started = time.time()
    last_work = time.time()
    jobs_done = 0
    if options.cache_dir is not None:
        _install_cache(options.cache_dir)
    with queue.waiter() as wait:
        while not queue.stop_requested():
            if options.parent_pid is not None and os.getppid() != options.parent_pid:
                break  # supervising process died; don't outlive it
            _write_worker_heartbeat(queue, worker_id, started, jobs_done, None)
            lease = queue.claim(worker_id)
            if lease is None:
                if (
                    options.max_idle_seconds is not None
                    and time.time() - last_work > options.max_idle_seconds
                ):
                    break
                wait(options.poll_interval)
                continue
            last_work = time.time()
            _write_worker_heartbeat(queue, worker_id, started, jobs_done, lease.job_id)
            _run_one(queue, lease, options)
            jobs_done += 1
            last_work = time.time()
            if options.max_jobs is not None and jobs_done >= options.max_jobs:
                break
    if queue.stop_requested():
        queue._wake()  # pass the stop request on to the next idle peer
    _write_worker_heartbeat(queue, worker_id, started, jobs_done, None)
    return jobs_done


def _run_one(queue: DurableQueue, lease: Lease, options: WorkerOptions) -> None:
    """Execute one leased job inside its telemetry span (when traced).

    The job header's ``trace`` block both enables telemetry in a worker
    that was spawned before tracing was configured (it names the trace
    directory) and parents the worker's ``queue.job`` span on the
    submitter's span, so queue-executed work joins the same span tree as
    pool-executed work.  Spans and metrics are flushed after every job —
    a worker killed later loses at most the job in flight.
    """
    trace_info = lease.header.get("trace") if isinstance(lease.header, dict) else None
    trace_dir = (trace_info or {}).get("dir")
    if trace_dir and not obs.enabled():
        obs.install_worker(trace_dir)
    if not obs.enabled():
        _run_leased_job(queue, lease, options)
        return
    parent = obs.TraceContext.from_dict(trace_info) if trace_info else None
    try:
        with obs.trace.span(
            "queue.job",
            attrs={
                "job_id": lease.job_id[:16],
                "label": lease.spec.label,
                "deliveries": lease.deliveries,
                "worker": lease.worker,
            },
            parent=parent,
        ):
            _run_leased_job(queue, lease, options)
    finally:
        # Flush *after* the span context closed, so the job's own span
        # record is part of this job's export (not the next one's).
        obs.flush()


def _run_leased_job(queue: DurableQueue, lease: Lease, options: WorkerOptions) -> None:
    """Execute one leased job: heartbeat, run, ack/fail."""
    spec = lease.spec
    cache_dir = options.cache_dir or lease.header.get("cache_dir")
    if cache_dir:
        _install_cache(cache_dir)
    started = time.perf_counter()
    stop_beat = threading.Event()
    interval = max(0.05, lease.lease_seconds / 3.0)
    deadline = (
        None if options.max_task_seconds is None else time.time() + options.max_task_seconds
    )

    def _beat() -> None:
        while not stop_beat.wait(interval):
            if deadline is not None and time.time() > deadline:
                return  # stop renewing: let the lease expire and be stolen
            try:
                queue.heartbeat(lease)
            except LeaseLost:
                return
            except OSError:
                pass

    beat_thread = threading.Thread(target=_beat, daemon=True)
    beat_thread.start()
    try:
        value = spec.fn(*spec.args, **spec.kwargs)
        failure: BaseException | None = None
    except Exception as error:  # noqa: BLE001 - mirrored into the result file
        value = None
        failure = error
    finally:
        stop_beat.set()
        beat_thread.join(timeout=2.0)
    elapsed = time.perf_counter() - started
    if queue.result(lease.job_id) is not None and not queue._owns(lease):
        # A peer reclaimed the job mid-run and has finished it: its result
        # stands.  (If the peer is still running, ours is written and the
        # peer's deterministic result later replaces it.)
        return
    if failure is not None:
        queue.fail(lease, failure, elapsed=elapsed)
    else:
        queue.ack(lease, value, elapsed=elapsed)


def _install_cache(cache_dir: str) -> None:
    from repro.runner.cache import get_default_cache, set_default_cache

    current = get_default_cache()
    if current is None or str(current.root) != str(cache_dir):
        set_default_cache(cache_dir)


def _write_worker_heartbeat(
    queue: DurableQueue,
    worker_id: str,
    started: float,
    jobs_done: int,
    current_job: str | None,
) -> None:
    payload = {
        "worker": worker_id,
        "pid": os.getpid(),
        "started_at": started,
        "last_beat": time.time(),
        "jobs_done": jobs_done,
        "current_job": current_job,
    }
    try:
        atomic_write(
            queue.workers_dir / f"{worker_id}.json", json.dumps(payload).encode()
        )
    except OSError:
        pass


def spawn_worker(
    queue_dir: str | Path,
    *,
    worker_id: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_interval: float = 0.05,
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


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "WORKER_LIVENESS_SECONDS",
    "DurableQueue",
    "Lease",
    "LeaseLost",
    "QueueResult",
    "TaskSpec",
    "WorkerOptions",
    "spawn_worker",
    "worker_loop",
]
