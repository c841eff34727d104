"""The durable on-disk job queue: leases, heartbeats, reclaim, recovery.

Everything here runs the queue *in process* (no spawned workers), so each
atomic transition — claim race, lease expiry, crash between lease and ack,
restart of the queue directory — can be staged deterministically.  The
subprocess-worker and ``--backend queue`` paths live in
``test_queue_backend.py``; the HTTP service in ``test_service_http.py``.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.runner.resilience import run_tasks
from repro.service.queue import (
    DurableQueue,
    LeaseLost,
    QueueResult,
    TaskSpec,
    WorkerOptions,
    worker_loop,
)


def square(x):
    """Module-level task fn: picklable into task files by name."""
    return x * x


def boom(x):
    raise ValueError(f"boom {x}")


def build_row(design: str, seed: int) -> dict:
    """A deterministic, structured 'detection result' payload."""
    return {
        "design": design,
        "seed": seed,
        "coverage": round((seed * 37 % 100) / 3.0, 6),
        "detected": [f"t{i}" for i in range(seed % 4)],
    }


INIT_CALLS: list[tuple] = []


def record_init(*args):
    INIT_CALLS.append(args)


@pytest.fixture
def queue(tmp_path) -> DurableQueue:
    return DurableQueue(tmp_path / "q", lease_seconds=5.0)


class TestTaskSpec:
    def test_job_ids_are_content_addressed(self):
        a = TaskSpec(fn=square, args=(3,))
        b = TaskSpec(fn=square, args=(3,))
        assert a.job_id() == b.job_id()
        assert len(a.job_id()) == 64  # sha256 hex, ArtifactCache addressing

    def test_job_ids_differ_by_args_fn_and_label(self):
        base = TaskSpec(fn=square, args=(3,))
        assert TaskSpec(fn=square, args=(4,)).job_id() != base.job_id()
        assert TaskSpec(fn=boom, args=(3,)).job_id() != base.job_id()
        assert TaskSpec(fn=square, args=(3,), label="x").job_id() != base.job_id()

    def test_kwarg_order_is_canonical(self):
        a = TaskSpec(fn=build_row, kwargs={"design": "c17", "seed": 1})
        b = TaskSpec(fn=build_row, kwargs={"seed": 1, "design": "c17"})
        assert a.job_id() == b.job_id()


class TestQueueLifecycle:
    def test_put_claim_ack_roundtrip(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(7,)))
        assert queue.status(job_id) == "queued"
        lease = queue.claim("w1")
        assert lease.job_id == job_id
        assert lease.deliveries == 1
        assert lease.spec.args == (7,)
        assert queue.status(job_id) == "leased"
        queue.ack(lease, 49, elapsed=0.01)
        assert queue.status(job_id) == "done"
        result = queue.result(job_id)
        assert result.ok and result.value == 49 and result.worker == "w1"
        # the task file is retired: nothing left to claim
        assert queue.claim("w2") is None

    def test_put_is_idempotent_per_id(self, queue):
        spec = TaskSpec(fn=square, args=(2,))
        job_id = queue.put(spec)
        assert queue.put(spec) == job_id
        assert len(list(queue.tasks_dir.glob("*.task"))) == 1
        lease = queue.claim("w1")
        queue.ack(lease, 4)
        # re-enqueueing finished work is also a no-op
        assert queue.put(spec) == job_id
        assert queue.status(job_id) == "done"

    def test_fail_records_error_and_does_not_retry(self, queue):
        job_id = queue.put(TaskSpec(fn=boom, args=(1,)))
        lease = queue.claim("w1")
        queue.fail(lease, ValueError("boom 1"))
        assert queue.status(job_id) == "failed"
        result = queue.result(job_id)
        assert not result.ok
        assert result.error["type"] == "ValueError"
        assert "boom 1" in result.error["message"]
        assert queue.claim("w2") is None  # the queue never re-runs failures

    def test_cancel_removes_queued_but_not_leased_jobs(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(1,)))
        other = queue.put(TaskSpec(fn=square, args=(2,)))
        lease = queue.claim("w1")
        leased_id, free_id = lease.job_id, other if lease.job_id == job_id else job_id
        assert queue.cancel(free_id) is True
        assert queue.status(free_id) == "unknown"
        assert queue.cancel(leased_id) is False
        assert queue.status(leased_id) == "leased"

    def test_claim_is_oldest_first(self, queue):
        first = queue.put(TaskSpec(fn=square, args=(1,)))
        time.sleep(0.02)
        queue.put(TaskSpec(fn=square, args=(2,)))
        assert queue.claim("w").job_id == first

    def test_claim_race_has_one_winner(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(5,)))
        assert queue.claim("w1").job_id == job_id
        assert queue.claim("w2") is None  # exclusive lease-create decides

    def test_release_requeues_unfinished_work(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(5,)))
        lease = queue.claim("w1")
        queue.release(lease)
        assert queue.status(job_id) == "queued"
        again = queue.claim("w2")
        assert again.job_id == job_id
        # a release is not a reclaim: delivery count restarts from the lease
        assert again.deliveries == 1


class TestLeasesAndHeartbeats:
    def test_heartbeat_extends_the_lease(self, queue):
        queue.put(TaskSpec(fn=square, args=(1,)))
        lease = queue.claim("w1")
        before = lease.expires_at
        time.sleep(0.05)
        queue.heartbeat(lease)
        assert lease.expires_at > before

    def test_heartbeat_after_steal_raises_lease_lost(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=0.1)
        queue.put(TaskSpec(fn=square, args=(1,)))
        lease = queue.claim("w1")
        time.sleep(0.15)  # let it expire
        stolen = queue.claim("w2")
        assert stolen is not None and stolen.deliveries == 2
        with pytest.raises(LeaseLost):
            queue.heartbeat(lease)

    def test_expired_lease_is_reclaimed_with_delivery_count(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=0.1)
        job_id = queue.put(TaskSpec(fn=square, args=(3,)))
        assert queue.claim("dead").job_id == job_id
        time.sleep(0.15)
        lease = queue.claim("alive")
        assert lease.job_id == job_id
        assert lease.deliveries == 2
        assert queue.stats()["reclaims"] == 1

    def test_force_expire_preserves_delivery_count(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(3,)))
        lease = queue.claim("w1")
        assert queue.expire_leases_of([lease.pid]) == 1
        # the lease file survives with expires_at=0, so the reclaim sees
        # deliveries=1 and increments instead of restarting
        reclaimed = queue.claim("w2")
        assert reclaimed.job_id == job_id
        assert reclaimed.deliveries == 2

    def test_corrupt_task_file_fails_permanently(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(1,)))
        (queue.tasks_dir / f"{job_id}.task").write_bytes(b"not a pickle")
        assert queue.claim("w1") is None
        result = queue.result(job_id)
        assert result is not None and not result.ok
        assert result.error["type"] == "CorruptTask"
        assert queue.stats()["corrupt_tasks"] == 1

    def test_crash_between_result_and_cleanup_is_retired_not_rerun(self, queue):
        # Simulate a worker dying after writing the result but before
        # removing the task file: the next claim sweep must retire it.
        job_id = queue.put(TaskSpec(fn=square, args=(6,)))
        lease = queue.claim("w1")
        queue._store_result(  # result written, cleanup "crashed"
            QueueResult(
                job_id=job_id, ok=True, value=36, worker=lease.worker, deliveries=1
            )
        )
        del lease  # the worker is gone; its lease file lingers
        assert (queue.tasks_dir / f"{job_id}.task").exists()
        assert queue.claim("w2") is None  # sweep retires instead of re-running
        assert not (queue.tasks_dir / f"{job_id}.task").exists()
        assert queue.result(job_id).value == 36


class TestStatsAndStop:
    def test_stats_counts_each_state(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=0.1)
        queue.put(TaskSpec(fn=square, args=(1,)))
        queue.put(TaskSpec(fn=square, args=(2,)))
        done_lease = queue.claim("w0")
        queue.ack(done_lease, 1)
        queue.claim("w1")
        queue.put(TaskSpec(fn=square, args=(3,)))
        time.sleep(0.15)  # w1's lease expires
        stats = queue.stats()
        assert stats["queued"] == 1
        assert stats["leased"] == 0
        assert stats["expired_leases"] == 1
        assert stats["done"] == 1

    def test_stop_marker_round_trips(self, queue):
        assert not queue.stop_requested()
        queue.request_stop()
        assert queue.stop_requested()
        queue.clear_stop()
        assert not queue.stop_requested()


class TestWorkerLoop:
    def test_in_process_worker_drains_the_queue(self, queue):
        ids = [queue.put(TaskSpec(fn=square, args=(i,), label=f"t{i}")) for i in range(4)]
        done = worker_loop(queue, WorkerOptions(worker_id="w", max_idle_seconds=0.0))
        assert done == 4
        assert [queue.result(job_id).value for job_id in ids] == [0, 1, 4, 9]
        liveness = queue.worker_liveness()
        assert liveness["w"]["jobs_done"] == 4

    def test_max_jobs_bounds_one_loop(self, queue):
        for i in range(3):
            queue.put(TaskSpec(fn=square, args=(i,), label=f"t{i}"))
        assert worker_loop(queue, WorkerOptions(max_jobs=2)) == 2
        assert queue.stats()["done"] == 2

    def test_stop_request_ends_the_loop_immediately(self, queue):
        queue.put(TaskSpec(fn=square, args=(1,)))
        queue.request_stop()
        assert worker_loop(queue, WorkerOptions()) == 0
        assert queue.status(queue.put(TaskSpec(fn=square, args=(1,)))) == "queued"

    def test_task_failure_is_recorded_not_raised(self, queue):
        job_id = queue.put(TaskSpec(fn=boom, args=(2,)))
        done = worker_loop(queue, WorkerOptions(max_jobs=1))
        assert done == 1
        result = queue.result(job_id)
        assert not result.ok and result.error["type"] == "ValueError"

    def test_initializer_runs_once_per_worker(self, queue):
        INIT_CALLS.clear()
        for i in range(3):
            queue.put(
                TaskSpec(fn=square, args=(i,), label=f"t{i}",
                         initializer=record_init, initargs=("cfg",))
            )
        worker_loop(queue, WorkerOptions(max_idle_seconds=0.0))
        assert INIT_CALLS == [("cfg",)]


class TestEventCounts:
    def test_reclaims_and_corrupt_tasks_show_up_in_stats(self, tmp_path):
        root = tmp_path / "q"
        queue = DurableQueue(root, lease_seconds=1.0)
        job_id = queue.put(TaskSpec(fn=square, args=(0,)))
        # Stage 60 lease expiries on one job through the claim clock.
        lease = queue.claim("w0", now=0.0)
        for index in range(1, 61):
            lease = queue.claim(f"w{index}", now=2.0 * index)
            assert lease.job_id == job_id and lease.deliveries == index + 1
        queue.ack(lease, 0)
        for index in range(1, 21):
            corrupt_id = queue.put(TaskSpec(fn=square, args=(index,)))
            (queue.tasks_dir / f"{corrupt_id}.task").write_bytes(b"not a pickle")
        assert queue.claim("w") is None  # every corrupt task fails permanently
        for view in (queue, DurableQueue(root)):  # durable across reopen
            stats = view.stats()
            assert stats["reclaims"] == 60
            assert stats["corrupt_tasks"] == 20
            assert stats["done"] == 21


class TestDurableRecovery:
    """The ISSUE's satellite scenario: crash between lease and ack,
    restart the queue directory, and the job is reclaimed exactly once
    with a result bit-identical to the serial backend's."""

    TASKS = [("s13207_like", 3), ("c6288_like", 11), ("mips16_like", 7)]

    def test_recovery_after_worker_crash_matches_serial(self, tmp_path):
        serial = run_tasks(
            build_row, self.TASKS, backend="serial"
        ).results

        root = tmp_path / "q"
        queue = DurableQueue(root, lease_seconds=0.2)
        ids = [
            queue.put(TaskSpec(fn=build_row, args=task, label=f"row{i}"))
            for i, task in enumerate(self.TASKS)
        ]

        # A worker leases the first job and "crashes": no ack, no release,
        # no heartbeat — its process is simply gone.
        crashed = queue.claim("doomed-worker")
        assert crashed.job_id == ids[0]

        # The machine restarts: a fresh DurableQueue over the same
        # directory sees everything the crashed process left behind.
        time.sleep(0.25)  # the dead worker's lease expires
        restarted = DurableQueue(root, lease_seconds=5.0)
        done = worker_loop(
            restarted, WorkerOptions(worker_id="survivor", max_idle_seconds=0.0)
        )
        assert done == 3

        # Reclaimed exactly once, and only the crashed job.
        assert restarted.stats()["reclaims"] == 1
        crashed_result = restarted.result(ids[0])
        assert crashed_result.deliveries == 2
        assert all(restarted.result(job_id).deliveries == 1 for job_id in ids[1:])

        # Bit-identical to the serial reference, row by row.  (The whole
        # lists can't be compared as one pickle: the serial rows share
        # interned key strings, which pickle memoises, while queue rows
        # were unpickled from separate per-job files.)
        queued_results = [restarted.result(job_id).value for job_id in ids]
        assert queued_results == serial
        for queued_row, serial_row in zip(queued_results, serial):
            assert pickle.dumps(queued_row) == pickle.dumps(serial_row)

    def test_restart_preserves_done_results(self, tmp_path):
        root = tmp_path / "q"
        queue = DurableQueue(root)
        job_id = queue.put(TaskSpec(fn=square, args=(9,)))
        queue.ack(queue.claim("w"), 81)
        reopened = DurableQueue(root)
        assert reopened.status(job_id) == "done"
        assert reopened.result(job_id).value == 81
