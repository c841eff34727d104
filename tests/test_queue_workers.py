"""Chaos suite for the queue path ``deterrent serve`` runs.

``serve --workers N`` starts its workers with
:func:`repro.service.queue.spawn_worker`; every scenario here does the same,
on a short lease, and drives real ``deterrent queue-worker`` processes
through one shared queue directory:

- *crash-mid-lease*: a worker dies mid-job and a peer reclaims the job;
- *hang-past-lease*: a job outlives ``max_task_seconds``, a peer steals it,
  and the late finisher leaves the peer's result alone;
- *corrupt-result*: an unreadable result file is set aside and the
  resubmitted job runs again.

Next to them, the fault-free baseline: spawned workers agree with the
serial backend, record a failing task as a failed result, and exit on a
stop request; and an idle worker on a 30 s poll is woken at once by a new
job or a stop request.

The in-process versions of these transitions, staged step by step, live in
``test_service_queue.py``.  Carries the ``faults`` marker so CI runs it with
the other chaos suites (``pytest -m faults``).
"""

from __future__ import annotations

import os
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.runner.faults import CRASH_EXIT_CODE
from repro.runner.resilience import run_tasks
from repro.service.queue import DurableQueue, TaskSpec, spawn_worker

pytestmark = pytest.mark.faults

#: Short enough that a dead or wedged worker's job moves within a second.
LEASE_SECONDS = 1.0


def square(x: int) -> int:
    """Module-level task fn: importable by name in the worker process."""
    return x * x


def boom(x: int) -> int:
    raise ValueError(f"boom {x}")


def crash_once(marker: str, x: int) -> int:
    """Kill the worker process on the first delivery; square ``x`` after."""
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(CRASH_EXIT_CODE)
    return x * x


def hang_once(marker: str, seconds: float, x: int) -> int:
    """Outlive the lease on the first delivery; square ``x`` either way."""
    if not os.path.exists(marker):
        Path(marker).touch()
        time.sleep(seconds)
    return x * x


@contextmanager
def spawned_workers(
    queue: DurableQueue, count: int, cache_dir: Path, poll_interval: float = 0.02, **options
):
    """``count`` queue-worker processes, started the way ``serve`` does."""
    processes = [
        spawn_worker(
            queue.root,
            worker_id=f"w{index}",
            lease_seconds=LEASE_SECONDS,
            poll_interval=poll_interval,
            cache_dir=str(cache_dir),
            parent_pid=os.getpid(),
            **options,
        )
        for index in range(count)
    ]
    try:
        yield processes
    finally:
        queue.request_stop()
        for process in processes:
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


def wait_for(predicate, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for the workers"
        time.sleep(0.05)


def jobs_done(queue: DurableQueue) -> int:
    return sum(info["jobs_done"] for info in queue.worker_liveness().values())


@contextmanager
def idle_worker(queue: DurableQueue, cache_dir: Path):
    """One spawned worker on a 30 s poll, once it sits idle in its wait:
    only a wake-up can make it act within the tests' 10 s bounds."""
    with spawned_workers(queue, 1, cache_dir, poll_interval=30.0) as (process,):
        wait_for(lambda: queue.worker_liveness().get("w0", {}).get("alive"))
        assert queue.worker_liveness()["w0"]["jobs_done"] == 0
        time.sleep(0.5)  # past its first, empty claim
        yield process


class TestSpawnedWorkers:
    def test_crash_mid_lease_is_reclaimed_by_a_peer(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        marker = tmp_path / "crashed"
        ids = [queue.put(TaskSpec(fn=crash_once, args=(str(marker), 3)))]
        ids += [queue.put(TaskSpec(fn=square, args=(x,))) for x in range(4)]
        with spawned_workers(queue, 2, tmp_path / "cache") as processes:
            wait_for(lambda: all(queue.result(job_id) for job_id in ids))
        assert sorted(process.returncode for process in processes) == [0, CRASH_EXIT_CODE]

        crashed = queue.result(ids[0])
        assert crashed.ok and crashed.value == 9
        assert crashed.deliveries == 2
        assert [queue.result(job_id).value for job_id in ids[1:]] == [0, 1, 4, 9]
        assert all(queue.result(job_id).deliveries == 1 for job_id in ids[1:])
        stats = queue.stats()
        assert stats["reclaims"] == 1
        assert stats["done"] == len(ids)
        # Exactly one result per job, and nothing left to claim.
        assert sorted(path.stem for path in queue.results_dir.iterdir()) == sorted(ids)
        assert list(queue.tasks_dir.iterdir()) == []

    def test_hang_past_lease_is_stolen_and_the_late_finisher_defers(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        marker = tmp_path / "hung"
        job_id = queue.put(TaskSpec(fn=hang_once, args=(str(marker), 4.0, 5)))
        with spawned_workers(queue, 2, tmp_path / "cache", max_task_seconds=0.3):
            wait_for(lambda: queue.result(job_id) is not None)
            stolen = queue.result(job_id)
            # Both workers have finished the job once: the peer first, then
            # the hung first delivery.
            wait_for(lambda: jobs_done(queue) == 2)
        assert stolen.ok and stolen.value == 25
        assert stolen.deliveries == 2
        final = queue.result(job_id)
        assert (final.worker, final.deliveries) == (stolen.worker, 2)
        stats = queue.stats()
        assert stats["reclaims"] == 1
        assert stats["done"] == 1

    def test_corrupt_result_is_set_aside_and_the_resubmit_reruns(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        spec = TaskSpec(fn=square, args=(6,))
        job_id = queue.put(spec)
        with spawned_workers(queue, 1, tmp_path / "cache"):
            wait_for(lambda: queue.result(job_id) is not None)
            queue.result_path(job_id).write_bytes(b"\x80 not a pickle")
            assert queue.put(spec) == job_id
            wait_for(lambda: queue.result(job_id) is not None)
            wait_for(lambda: jobs_done(queue) == 2)
        result = queue.result(job_id)
        assert result.ok and result.value == 36
        stats = queue.stats()
        assert stats["corrupt_results"] == 1
        assert stats["done"] == 1

    def test_results_match_serial_reference(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        tasks = [(x,) for x in range(6)]
        ids = [queue.put(TaskSpec(fn=square, args=task)) for task in tasks]
        with spawned_workers(queue, 2, tmp_path / "cache") as processes:
            wait_for(lambda: all(queue.result(job_id) for job_id in ids))
        assert [process.returncode for process in processes] == [0, 0]
        reference = run_tasks(square, tasks, backend="serial").results
        results = [queue.result(job_id) for job_id in ids]
        assert [result.value for result in results] == reference
        assert all(result.ok and result.deliveries == 1 for result in results)
        assert {result.worker for result in results} <= {"w0", "w1"}
        assert jobs_done(queue) == len(tasks)
        assert queue.stats()["reclaims"] == 0

    def test_task_failure_is_recorded_with_its_traceback(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        job_id = queue.put(TaskSpec(fn=boom, args=(3,)))
        with spawned_workers(queue, 1, tmp_path / "cache") as processes:
            wait_for(lambda: queue.result(job_id) is not None)
        assert processes[0].returncode == 0  # a failing task is not a crash
        result = queue.result(job_id)
        assert not result.ok and result.worker == "w0"
        assert (result.error["type"], result.error["message"]) == ("ValueError", "boom 3")
        assert "in boom" in result.error["traceback"]
        assert queue.status(job_id) == "failed"

    def test_stop_request_ends_every_idle_worker(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        with spawned_workers(queue, 2, tmp_path / "cache") as processes:
            wait_for(lambda: set(queue.worker_liveness()) == {"w0", "w1"})
            queue.request_stop()
            for process in processes:
                assert process.wait(timeout=15.0) == 0
        assert jobs_done(queue) == 0


class TestWakeUps:
    def test_an_idle_worker_runs_a_job_enqueued_after_it(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        with idle_worker(queue, tmp_path / "cache"):
            job_id = queue.put(TaskSpec(fn=square, args=(7,)))
            wait_for(lambda: queue.result(job_id) is not None, timeout=10.0)
        assert queue.result(job_id).value == 49

    def test_a_stop_request_ends_an_idle_worker(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=LEASE_SECONDS)
        with idle_worker(queue, tmp_path / "cache") as process:
            queue.request_stop()
            assert process.wait(timeout=10.0) == 0
