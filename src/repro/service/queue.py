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
  *reclaim* the job (delete the stale lease, claim again with an
  incremented delivery count);
- result file → done (the task and lease files are gone or ignorable).

Layout under the queue root::

    tasks/<job_id>.task      pickled header + TaskSpec (atomic write)
    leases/<job_id>.lease    JSON lease (atomic claim via O_CREAT|O_EXCL)
    results/<job_id>.result  pickled QueueResult (atomic write)
    workers/<worker>.json    per-worker liveness heartbeat
    events_totals.json       lifetime event counts (reclaim, corrupt_task)
    events_totals.lock       flock guarding the counts' read-modify-write
    stop                     cooperative shutdown marker

Queue events are counted, not logged: each reclaim or corrupt task adds one
to its count in ``events_totals.json``, a
:class:`repro.utils.fsio.CounterFile` every process sharing the directory
adds to without losing increments.  ``stats()`` reports those lifetime
counts.  Event counts are telemetry, never control flow: a failed add is
dropped, and a missing or corrupt file reads as zero.

Job ids are **deterministic content addresses**: the default id of a task
spec is :func:`repro.runner.cache.config_fingerprint` over the spec's
canonical description — the same SHA-256 addressing scheme the
:class:`~repro.runner.cache.ArtifactCache` uses for artifacts — so
re-enqueueing the same work is idempotent and the HTTP service can use one
digest as both its job id and its cache address.  Callers that need
distinct ids for repeated attempts (the queue execution backend) pass an
explicit ``job_id``.

Delivery counting feeds fault injection: a job's lease records how many
times it has been claimed, and :func:`worker_loop` installs that count as
the attempt offset in :mod:`repro.runner.faults` — so a scripted
"crash on attempt 1" rule fires once, kills one worker for real, and the
reclaimed delivery (attempt 2) recovers, exactly like a retry round on the
in-process backends.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import obs
from repro.runner.cache import config_fingerprint
from repro.utils.fsio import CounterFile, atomic_write

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
    contract the process backend imposes).  ``initializer``/``initargs``
    replay the submitting side's worker initialisation (per-worker solver
    stacks, fault plans) once per worker process before the first task that
    carries them runs.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    initializer: Callable[..., None] | None = None
    initargs: tuple = ()
    label: str = "task"

    def content_key(self) -> dict[str, Any]:
        """Canonical description of this spec for content-addressed job ids."""

        def _name(obj: Any) -> str | None:
            if obj is None:
                return None
            return f"{getattr(obj, '__module__', '?')}:{getattr(obj, '__qualname__', repr(obj))}"

        payload = pickle.dumps(
            (self.args, tuple(sorted(self.kwargs.items())), self.initargs),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return {
            "fn": _name(self.fn),
            "initializer": _name(self.initializer),
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
        self._events = CounterFile(self.root / "events_totals.json")
        for directory in (
            self.tasks_dir, self.leases_dir, self.results_dir, self.workers_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)

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
        if task_path.exists() or self.result_path(job_id).exists():
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
        return job_id

    def cancel(self, job_id: str) -> bool:
        """Remove a queued (unleased, unfinished) job; True when removed."""
        if self._live_lease(job_id) is not None:
            return False
        try:
            (self.tasks_dir / f"{job_id}.task").unlink()
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Worker side: claim / heartbeat / ack / fail / release
    # ------------------------------------------------------------------
    def claim(self, worker: str, now: float | None = None) -> Lease | None:
        """Lease the oldest claimable job, or None when nothing is available.

        Work-stealing: every worker scans the shared task directory; an
        exclusive lease-file create decides races.  A job whose lease has
        expired is *reclaimed* — the stale lease is deleted (exactly one
        racer wins the unlink) and the job is claimed again with its
        delivery count incremented, so fault rules and metrics can tell a
        first delivery from a redelivery.
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
            if self.result_path(job_id).exists():
                # Finished but not fully cleaned up (a crash between writing
                # the result and removing the task): finish the cleanup.
                self._cleanup_done(job_id)
                continue
            deliveries = 1
            lease_path = self.leases_dir / f"{job_id}.lease"
            stale = self._read_lease(lease_path)
            if stale is not None:
                if stale.get("expires_at", 0.0) > now:
                    continue  # live lease: someone else is on it
                try:
                    lease_path.unlink()
                except OSError:
                    continue  # a peer won the reclaim race
                deliveries = int(stale.get("deliveries", 1)) + 1
                self._count_event("reclaim")
            record = {
                "job_id": job_id,
                "worker": worker,
                "pid": os.getpid(),
                "deliveries": deliveries,
                "leased_at": now,
                "expires_at": now + self.lease_seconds,
                "lease_seconds": self.lease_seconds,
            }
            if not self._try_lease(lease_path, record):
                continue  # lost the claim race
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
        by the queue; retries belong to the submitting side's resilience
        policy, which sees the failure through the result file)."""
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

    def release(self, lease: Lease) -> None:
        """Give up ``lease`` without finishing the job (it stays queued)."""
        if self._owns(lease):
            try:
                (self.leases_dir / f"{lease.job_id}.lease").unlink()
            except OSError:
                pass

    def expire_leases_of(self, pids: Iterable[int]) -> int:
        """Force-expire leases held by known-dead local processes.

        The supervisor that spawned a worker knows its death immediately —
        no need to wait out the lease clock.  The lease is rewritten with an
        already-passed expiry rather than deleted, so the delivery count
        survives into the reclaim path.
        """
        dead = set(int(pid) for pid in pids)
        expired = 0
        for lease_path in self.leases_dir.glob("*.lease"):
            info = self._read_lease(lease_path)
            if info is None or int(info.get("pid", -1)) not in dead:
                continue
            if info.get("expires_at", 0.0) <= 0.0:
                continue  # already force-expired
            info["expires_at"] = 0.0
            atomic_write(lease_path, json.dumps(info).encode())
            expired += 1
        return expired

    # ------------------------------------------------------------------
    # Status and results
    # ------------------------------------------------------------------
    def result_path(self, job_id: str) -> Path:
        """Where ``job_id``'s terminal result lives (whether or not done)."""
        return self.results_dir / f"{job_id}.result"

    def result(self, job_id: str) -> QueueResult | None:
        """The job's terminal result, or None while it is still in flight."""
        try:
            with self.result_path(job_id).open("rb") as handle:
                loaded = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            return None  # partially visible only on non-atomic filesystems
        return loaded if isinstance(loaded, QueueResult) else None

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
    # Cooperative shutdown
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask every worker polling this queue to exit after its current job."""
        atomic_write(self.stop_path, b"stop\n")

    def clear_stop(self) -> None:
        """Remove the stop marker (e.g. before reusing a queue directory)."""
        try:
            self.stop_path.unlink()
        except OSError:
            pass

    def stop_requested(self) -> bool:
        """Has :meth:`request_stop` been called on this queue directory?"""
        return self.stop_path.exists()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _try_lease(self, lease_path: Path, record: dict[str, Any]) -> bool:
        """Atomically create the lease file; False when a peer won the race."""
        try:
            descriptor = os.open(
                lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
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
            try:
                (self.leases_dir / f"{job_id}.lease").unlink()
            except OSError:
                pass

    def _count_event(self, event: str) -> None:
        """Add one ``event`` to the lifetime counts (``events_totals.json``)."""
        self._events.add({event: 1})


# ----------------------------------------------------------------------
# The worker loop (the body of `deterrent queue-worker`)
# ----------------------------------------------------------------------
@dataclass
class WorkerOptions:
    """Configuration of one work-stealing queue worker.

    ``heartbeat`` may be disabled for chaos tests that need a hung task to
    actually lose its lease; ``max_task_seconds`` is the production-shaped
    equivalent — the heartbeat thread stops renewing past that budget, so a
    wedged task is eventually stolen even though its worker is alive.
    """

    worker_id: str | None = None
    poll_interval: float = 0.1
    heartbeat: bool = True
    heartbeat_interval: float | None = None
    max_task_seconds: float | None = None
    max_idle_seconds: float | None = None
    max_jobs: int | None = None
    cache_dir: str | None = None
    parent_pid: int | None = None


def worker_loop(queue: DurableQueue, options: WorkerOptions | None = None) -> int:
    """Lease, run, and ack jobs from ``queue`` until stopped; return jobs done.

    The loop exits when :meth:`DurableQueue.request_stop` has been called,
    after ``max_jobs`` completed jobs, or after ``max_idle_seconds`` without
    claimable work.  Each job runs under the fault-injection attempt offset
    ``deliveries - 1`` so scripted fault plans replay exactly across queue
    redeliveries (see :mod:`repro.runner.faults`).
    """
    options = options or WorkerOptions()
    worker_id = options.worker_id or f"worker-{os.getpid()}"
    started = time.time()
    last_work = time.time()
    jobs_done = 0
    ran_initializers: set[str] = set()
    if options.cache_dir is not None:
        _install_cache(options.cache_dir)
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
            time.sleep(options.poll_interval)
            continue
        last_work = time.time()
        _write_worker_heartbeat(queue, worker_id, started, jobs_done, lease.job_id)
        _run_one(queue, lease, options, ran_initializers)
        jobs_done += 1
        last_work = time.time()
        if options.max_jobs is not None and jobs_done >= options.max_jobs:
            break
    _write_worker_heartbeat(queue, worker_id, started, jobs_done, None)
    return jobs_done


def _run_one(
    queue: DurableQueue,
    lease: Lease,
    options: WorkerOptions,
    ran_initializers: set[str],
) -> None:
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
        _run_leased_job(queue, lease, options, ran_initializers)
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
            _run_leased_job(queue, lease, options, ran_initializers)
    finally:
        # Flush *after* the span context closed, so the job's own span
        # record is part of this job's export (not the next one's).
        obs.flush()


def _run_leased_job(
    queue: DurableQueue,
    lease: Lease,
    options: WorkerOptions,
    ran_initializers: set[str],
) -> None:
    """Execute one leased job: init, heartbeat, run, ack/fail."""
    from repro.runner import faults

    spec = lease.spec
    cache_dir = options.cache_dir or lease.header.get("cache_dir")
    if cache_dir:
        _install_cache(cache_dir)
    started = time.perf_counter()
    try:
        if spec.initializer is not None:
            key = hashlib.sha256(
                pickle.dumps((spec.initializer, spec.initargs))
            ).hexdigest()
            if key not in ran_initializers:
                spec.initializer(*spec.initargs)
                ran_initializers.add(key)
    except Exception as error:
        queue.fail(lease, error, elapsed=time.perf_counter() - started)
        return

    stop_beat = threading.Event()
    lost = threading.Event()
    beat_thread: threading.Thread | None = None
    if options.heartbeat:
        interval = options.heartbeat_interval or max(0.05, lease.lease_seconds / 3.0)
        deadline = (
            None
            if options.max_task_seconds is None
            else time.time() + options.max_task_seconds
        )

        def _beat() -> None:
            while not stop_beat.wait(interval):
                if deadline is not None and time.time() > deadline:
                    return  # stop renewing: let the lease expire and be stolen
                try:
                    queue.heartbeat(lease)
                except LeaseLost:
                    lost.set()
                    return
                except OSError:
                    pass

        beat_thread = threading.Thread(target=_beat, daemon=True)
        beat_thread.start()

    faults.set_attempt_offset(lease.deliveries - 1)
    try:
        value = spec.fn(*spec.args, **spec.kwargs)
        failure: BaseException | None = None
    except Exception as error:  # noqa: BLE001 - mirrored into the result file
        value = None
        failure = error
    finally:
        faults.set_attempt_offset(0)
        stop_beat.set()
        if beat_thread is not None:
            beat_thread.join(timeout=2.0)
    elapsed = time.perf_counter() - started
    if lost.is_set():
        # A peer reclaimed the job mid-run; it owns the outcome now.  Only
        # record our result if nobody else has yet (results are
        # deterministic, so a duplicate write is bit-identical anyway).
        if queue.result(lease.job_id) is not None:
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


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "WORKER_LIVENESS_SECONDS",
    "DurableQueue",
    "Lease",
    "LeaseLost",
    "QueueResult",
    "TaskSpec",
    "WorkerOptions",
    "worker_loop",
]
