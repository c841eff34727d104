"""The durable on-disk job queue: leases, heartbeats, reclaim, recovery.

Everything here runs the queue *in process* (no spawned workers), so each
atomic transition — claim race, lease expiry, crash between lease and ack,
restart of the queue directory — can be staged deterministically.  The
same scenarios against spawned ``deterrent queue-worker`` processes live in
``test_queue_workers.py``; the HTTP service in ``test_service_http.py``.
"""

from __future__ import annotations

import os
import pickle
import threading
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


def nap(seconds):
    time.sleep(seconds)
    return seconds


def build_row(design: str, seed: int) -> dict:
    """A deterministic, structured 'detection result' payload."""
    return {
        "design": design,
        "seed": seed,
        "coverage": round((seed * 37 % 100) / 3.0, 6),
        "detected": [f"t{i}" for i in range(seed % 4)],
    }


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

    def test_claim_is_oldest_first(self, queue):
        first = queue.put(TaskSpec(fn=square, args=(1,)))
        time.sleep(0.02)
        queue.put(TaskSpec(fn=square, args=(2,)))
        assert queue.claim("w").job_id == first

    def test_claim_race_has_one_winner(self, queue):
        job_id = queue.put(TaskSpec(fn=square, args=(5,)))
        assert queue.claim("w1").job_id == job_id
        assert queue.claim("w2") is None  # exclusive lease-create decides


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

    def test_each_expired_delivery_is_reclaimed_once(self, tmp_path):
        queue = DurableQueue(tmp_path / "q", lease_seconds=1.0)
        job_id = queue.put(TaskSpec(fn=square, args=(3,)))
        queue.claim("A", now=0.0)
        assert queue.claim("B", now=10.0).deliveries == 2
        third = queue.claim("C", now=20.0)
        assert (third.job_id, third.deliveries) == (job_id, 3)
        assert queue.claim("D", now=20.5) is None  # C's lease is live
        markers = sorted(path.name for path in queue.leases_dir.glob("*.reclaimed"))
        assert markers == [f"{job_id}.1.reclaimed", f"{job_id}.2.reclaimed"]
        assert queue.stats(now=20.5)["reclaims"] == 2
        queue.ack(third, 9)
        assert list(queue.leases_dir.iterdir()) == []

    def test_late_finisher_leaves_the_reclaimers_lease_alone(self, tmp_path):
        """The presumed-dead worker finishing after a reclaim writes its
        (identical) result, but only the lease holder retires the lease."""
        queue = DurableQueue(tmp_path / "q", lease_seconds=1.0)
        job_id = queue.put(TaskSpec(fn=square, args=(4,)))
        late = queue.claim("late", now=0.0)
        holder = queue.claim("holder", now=10.0)
        queue.ack(late, 16)
        assert queue.result(job_id).worker == "late"
        assert queue.lease_info(job_id)["worker"] == "holder"
        assert (queue.leases_dir / f"{job_id}.1.reclaimed").exists()
        queue.ack(holder, 16)
        result = queue.result(job_id)
        assert (result.worker, result.deliveries, result.value) == ("holder", 2, 16)
        assert list(queue.leases_dir.iterdir()) == []

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

    def test_failure_result_carries_the_message_and_traceback(self, queue):
        job_id = queue.put(TaskSpec(fn=boom, args=(3,)))
        worker_loop(queue, WorkerOptions(max_jobs=1))
        error = queue.result(job_id).error
        assert error["message"] == "boom 3"
        assert "in boom" in error["traceback"]
        assert error["traceback"].rstrip().endswith("ValueError: boom 3")

    def test_heartbeats_keep_a_job_that_outlives_its_lease(self, tmp_path):
        """The worker renews every ``lease_seconds / 3``, so a peer finds
        the lease live long after its first expiry and never reclaims it."""
        queue = DurableQueue(tmp_path / "q", lease_seconds=1.0)
        job_id = queue.put(TaskSpec(fn=nap, args=(2.0,)))
        worker = threading.Thread(
            target=worker_loop, args=(queue, WorkerOptions(worker_id="w", max_jobs=1))
        )
        worker.start()
        try:
            deadline = time.monotonic() + 10.0
            while queue.status(job_id) == "queued" and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(1.5)
            assert queue.claim("peer") is None
        finally:
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert queue.result(job_id).value == 2.0
        assert queue.stats()["reclaims"] == 0

    def test_max_idle_ends_a_loop_on_an_empty_queue(self, queue):
        assert worker_loop(queue, WorkerOptions(worker_id="idle", max_idle_seconds=0.0)) == 0
        assert queue.worker_liveness()["idle"]["jobs_done"] == 0

    def test_loop_exits_once_its_supervisor_is_gone(self, queue):
        """``parent_pid`` names the process that must still be the parent;
        this process is not its own parent, so the loop leaves at once."""
        job_id = queue.put(TaskSpec(fn=square, args=(2,)))
        assert worker_loop(queue, WorkerOptions(parent_pid=os.getpid())) == 0
        assert queue.status(job_id) == "queued"

    def test_external_workers_drain_a_shared_queue(self, tmp_path):
        """A worker started before any work, on its own view of the
        directory, drains what a producer enqueues later."""
        root = tmp_path / "shared"
        producer = DurableQueue(root)
        done = []
        worker = threading.Thread(
            target=lambda: done.append(
                worker_loop(
                    DurableQueue(root), WorkerOptions(worker_id="ext", poll_interval=0.02)
                )
            ),
            daemon=True,
        )
        worker.start()
        try:
            ids = [producer.put(TaskSpec(fn=square, args=(i,))) for i in range(6)]
            deadline = time.monotonic() + 30.0
            while not all(producer.result(job_id) for job_id in ids):
                assert time.monotonic() < deadline, "the worker never drained the queue"
                time.sleep(0.02)
        finally:
            producer.request_stop()
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        reference = run_tasks(square, [(i,) for i in range(6)], backend="serial").results
        assert [producer.result(job_id).value for job_id in ids] == reference
        assert done == [6]
        assert producer.worker_liveness()["ext"]["jobs_done"] == 6


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

    def test_two_workers_racing_one_expired_lease_reclaim_it_once(self, tmp_path):
        """Worker B reads the stale lease, then worker A reclaims the job
        before B acts on what it read.  B must back off: replacing A's live
        lease would hand one delivery to two workers."""
        root = tmp_path / "q"
        queue = DurableQueue(root, lease_seconds=1.0)
        job_id = queue.put(TaskSpec(fn=square, args=(4,)))
        queue.claim("dead", now=0.0)  # expires at t=1.0 and is never renewed

        worker_a = DurableQueue(root, lease_seconds=1.0)
        worker_b = DurableQueue(root, lease_seconds=1.0)
        read_lease = worker_b._read_lease
        a_leases = []

        def read_then_let_a_reclaim(path):
            stale = read_lease(path)
            if not a_leases:
                a_leases.append(worker_a.claim("A", now=10.0))
            return stale

        worker_b._read_lease = read_then_let_a_reclaim
        b_lease = worker_b.claim("B", now=10.0)

        assert b_lease is None
        assert a_leases[0].job_id == job_id and a_leases[0].deliveries == 2
        holder = queue.lease_info(job_id)
        assert holder["worker"] == "A" and holder["deliveries"] == 2
        assert queue.stats(now=10.0)["reclaims"] == 1
        # Acking retires the lease and the reclaim marker with it.
        worker_a.ack(a_leases[0], 16)
        assert list(queue.leases_dir.iterdir()) == []

    def test_unreadable_result_is_moved_aside_and_the_job_reruns(self, tmp_path):
        """A corrupt result file must not read as "in flight" forever while
        ``put`` and ``claim`` treat it as done: it is set aside, counted,
        and a resubmit runs the job again."""
        root = tmp_path / "q"
        queue = DurableQueue(root)
        spec = TaskSpec(fn=square, args=(8,))
        job_id = queue.put(spec)
        assert worker_loop(queue, WorkerOptions(max_idle_seconds=0.0)) == 1
        queue.result_path(job_id).write_bytes(b"\x80 not a pickle")

        assert queue.put(spec) == job_id  # the resubmit
        assert queue.status(job_id) == "queued"
        fresh = DurableQueue(root)
        assert worker_loop(fresh, WorkerOptions(max_idle_seconds=0.0)) == 1
        result = fresh.result(job_id)
        assert result.ok and result.value == 64
        assert fresh.stats()["corrupt_results"] == 1
        aside = fresh.results_dir / f"{job_id}.corrupt"
        assert aside.read_bytes() == b"\x80 not a pickle"

    def test_corrupt_result_is_counted_once_across_readers(self, tmp_path):
        root = tmp_path / "q"
        queue = DurableQueue(root)
        job_id = queue.put(TaskSpec(fn=square, args=(2,)))
        queue.ack(queue.claim("w"), 4)
        queue.result_path(job_id).write_bytes(b"torn")
        readers = [queue, DurableQueue(root), DurableQueue(root)]
        assert [reader.result(job_id) for reader in readers] == [None, None, None]
        assert [reader.status(job_id) for reader in readers] == ["unknown"] * 3
        assert queue.stats()["corrupt_results"] == 1
        assert queue.stats()["done"] == 0
