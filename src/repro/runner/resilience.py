"""Fault tolerance for backend-executed work: retries, timeouts, degradation.

A single crashed or hung worker used to kill a whole grid run.  This module
is the robustness layer between a caller's task list and an
:class:`~repro.runner.backends.ExecutionBackend`:

- **Per-task retry with exponential backoff and jitter.**  A failed attempt
  (worker crash, timeout, raised exception, rejected result) is resubmitted
  up to ``max_attempts`` times.  The backoff delay is a pure function of
  ``(task seed, attempt)``, so a rerun of the same shards sleeps the same
  schedule — deterministic given the shard seed, like everything else in
  the runner.
- **Per-attempt timeouts.**  On pooled backends, an attempt that exceeds
  ``timeout`` seconds (measured from when the caller starts waiting on it;
  an attempt is never given *less*) is abandoned and retried.  The
  abandoned executor's worker processes are terminated — a hung worker must
  not hold a pool slot or outlive the run.  The serial backend runs work
  inline and cannot preempt it, so it ignores ``timeout``.
- **Crash detection with resubmission.**  A dead worker process breaks the
  whole stdlib pool (``BrokenProcessPool`` on every unfinished future), so
  the layer collects what completed, rebuilds a fresh executor, and
  resubmits only the unfinished tasks to the surviving round.
- **Graceful degradation.**  After ``max_backend_failures`` consecutive
  failing rounds — or when any task exhausts its attempts on a pooled
  backend — the layer falls back to
  :class:`~repro.runner.backends.SerialBackend`, gives the survivors a
  fresh attempt budget, and finishes the run inline.  The downgrade is
  recorded on the :class:`ResilientOutcome` so run records can report it.

Results are returned in task-submission order, so a recovered run is
indistinguishable from a clean one wherever task results are deterministic
(every exact-verdict SAT path, every grid cell with a fixed seed).

Fault injection (:mod:`repro.runner.faults`) threads through here: a
:class:`~repro.runner.faults.FaultPlan` is installed in every worker via a
chained initializer, and each attempt is routed through
:func:`call_with_faults` so the plan can key on ``(task index, attempt)``.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, Executor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any

from repro import obs
from repro.runner import faults
from repro.runner.backends import ExecutionBackend, SerialBackend, resolve_backend

#: Multiplier decorrelating per-task jitter streams (Knuth's 32-bit prime).
_JITTER_STRIDE = 2654435761


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard to try before giving up, and when to stop trusting a backend.

    Args:
        max_attempts: attempts per task on the active backend (1 = never
            retry).  After a downgrade the survivors get a fresh budget of
            the same size on the serial backend.
        timeout: per-attempt wall-clock limit in seconds (None = wait
            forever).  Ignored by the serial backend, which cannot preempt
            inline work.
        backoff_base: delay before the second attempt; doubles per further
            attempt up to ``backoff_cap``.
        backoff_cap: upper bound on any single backoff delay.
        max_backend_failures: consecutive failing rounds (a round that saw
            at least one crash or timeout) tolerated before the run
            downgrades to the serial backend.
        seed: base seed for the deterministic backoff jitter when the
            caller provides no per-task seeds.
        validate: optional ``(task_index, result) -> bool`` hook; a False
            verdict rejects the result and retries the task.  Results that
            are :class:`~repro.runner.faults.CorruptResult` markers are
            always rejected.
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_backend_failures: int = 3
    seed: int = 0
    validate: Callable[[int, Any], bool] | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.max_backend_failures < 1:
            raise ValueError(
                f"max_backend_failures must be >= 1, got {self.max_backend_failures}"
            )


class ResilienceError(RuntimeError):
    """A task failed permanently: every attempt on every backend was spent."""

    def __init__(self, message: str, failures: dict[int, list[str]]):
        super().__init__(message)
        self.failures = failures


@dataclass
class ResilientOutcome:
    """Everything one :func:`run_tasks` call did, beyond the results."""

    results: list[Any]
    backend: str
    final_backend: str
    rounds: int = 1
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    corrupt: int = 0
    degraded: bool = False
    degraded_reason: str | None = None
    attempts: list[int] = field(default_factory=list)
    failures: dict[int, list[str]] = field(default_factory=dict)

    def counters(self) -> dict[str, Any]:
        """JSON-ready robustness counters for run records and reports."""
        return {
            "backend": self.backend,
            "final_backend": self.final_backend,
            "rounds": self.rounds,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "corrupt": self.corrupt,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }

    @property
    def had_failures(self) -> bool:
        """Did any attempt fail (even if the run ultimately recovered)?"""
        return bool(self.retries or self.timeouts or self.crashes
                    or self.errors or self.corrupt)


def backoff_delay(policy: ResiliencePolicy, seed: int, attempt: int) -> float:
    """Deterministic jittered delay before running ``attempt`` (2-based).

    ``base * 2**(attempt-2)`` capped at ``backoff_cap``, scaled into
    ``[0.5, 1.5)`` by a jitter stream seeded purely from ``(seed,
    attempt)`` — reruns of the same shard sleep the same schedule, and
    distinct shards never thundering-herd the same instant.
    """
    if attempt < 2:
        return 0.0
    base = min(policy.backoff_cap, policy.backoff_base * (2 ** (attempt - 2)))
    jitter = random.Random(seed * _JITTER_STRIDE + attempt).random()
    return base * (0.5 + jitter)


# ----------------------------------------------------------------------
# Worker-side call wrappers (module level: picklable by name)
# ----------------------------------------------------------------------
def call_with_faults(
    fn: Callable[..., Any], task: tuple, task_index: int, attempt: int,
    trace_ctx: dict | None = None,
) -> Any:
    """Run one attempt of ``fn(*task)`` under the armed fault plan (if any).

    ``trace_ctx`` is the submitting side's per-task span context
    (:meth:`repro.obs.TraceContext.as_dict`); when telemetry is enabled the
    attempt runs inside a ``worker`` span parented on it, and the worker's
    spans/metrics are flushed after each attempt so even a later crash
    loses at most the attempt in flight.
    """
    injected = faults.maybe_inject(task_index, attempt)
    if injected is not None:
        return injected
    if trace_ctx is None or not obs.enabled():
        return fn(*task)
    parent = obs.TraceContext.from_dict(trace_ctx)
    try:
        with obs.trace.span(
            "worker", attrs={"task": task_index, "attempt": attempt}, parent=parent
        ):
            return fn(*task)
    finally:
        # Flush *after* the span context closed, so the attempt's own
        # ``worker`` record is part of this attempt's export — a pool
        # worker that never runs another task would otherwise strand it
        # in the buffer and orphan the attempt's child spans.
        obs.flush()


def _init_with_faults(
    inner: Callable[..., None] | None,
    inner_args: tuple,
    plan: faults.FaultPlan,
    backend_name: str,
    workers_are_processes: bool,
) -> None:
    """Chained worker initializer: the caller's own init, then the plan."""
    if inner is not None:
        inner(*inner_args)
    faults.install_fault_plan(plan, backend_name, workers_are_processes)


def _init_with_obs(
    inner: Callable[..., None] | None,
    inner_args: tuple,
    trace_dir: str | None,
    parent_ctx: dict | None,
    label: str | None,
) -> None:
    """Chained worker initializer: telemetry first, then the caller's own."""
    obs.install_worker(trace_dir, parent_ctx, label=label)
    if inner is not None:
        inner(*inner_args)


def _round_initializer(
    initializer: Callable[..., None] | None,
    initargs: tuple,
    fault_plan: faults.FaultPlan | None,
    backend: ExecutionBackend,
    label: str,
) -> tuple[Callable[..., None] | None, tuple]:
    """The (initializer, initargs) for one round: telemetry, then faults."""
    chained, chained_args = initializer, tuple(initargs)
    if obs.enabled():
        trace_dir, parent_ctx = obs.worker_install_args()
        chained, chained_args = _init_with_obs, (
            chained, chained_args, trace_dir, parent_ctx, label,
        )
    if fault_plan is not None:
        chained, chained_args = _init_with_faults, (
            chained, chained_args, fault_plan,
            backend.name, backend.workers_are_processes,
        )
    return chained, chained_args


def _release_executor(
    executor: Executor, backend: ExecutionBackend, abandoned: bool
) -> None:
    """Close an executor; terminate its workers when abandoning mid-round.

    After a timeout the pool may still hold a hung worker — waiting for it
    would stall the run, and leaving it alive would leak a process past the
    interpreter's exit handlers.  ``Executor`` has no public kill switch,
    so this reaches for the pool's process table; the attribute access is
    defensive because a custom backend may not have one.
    """
    if abandoned and backend.workers_are_processes:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers are fine
                pass
    executor.shutdown(wait=not abandoned, cancel_futures=abandoned)


def run_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[tuple],
    *,
    backend: ExecutionBackend | str | None = None,
    policy: ResiliencePolicy | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    max_workers: int | None = None,
    seeds: Sequence[int] | None = None,
    fault_plan: faults.FaultPlan | None = None,
    label: str = "task",
) -> ResilientOutcome:
    """Run every task through ``backend`` under ``policy``; never lose work.

    ``tasks`` is a sequence of argument tuples for ``fn`` (which must be a
    module-level, picklable function for the process backend).  Results come
    back in task order.  ``seeds`` (default: derived from ``policy.seed``)
    drive the deterministic backoff jitter — the sharded SAT paths pass
    their shard seeds here.  Raises :class:`ResilienceError` only when a
    task keeps failing even on the serial backend.
    """
    policy = policy or ResiliencePolicy()
    active = resolve_backend(backend, jobs=max_workers)
    n = len(tasks)
    outcome = ResilientOutcome(
        results=[None] * n,
        backend=active.name,
        final_backend=active.name,
        rounds=0,
        attempts=[0] * n,
    )
    if n == 0:
        return outcome
    if seeds is None:
        seeds = [policy.seed + 7919 * index for index in range(n)]
    elif len(seeds) != n:
        raise ValueError(f"got {len(seeds)} seeds for {n} tasks")

    budget = [policy.max_attempts] * n
    pending = list(range(n))
    consecutive_bad_rounds = 0
    try:
        with obs.trace.span(
            f"tasks.{label}", attrs={"backend": active.name, "tasks": n}
        ) as run_span:
            while pending:
                outcome.rounds += 1
                if outcome.rounds > 1:
                    outcome.retries += len(pending)
                    delay = max(
                        backoff_delay(policy, seeds[index], outcome.attempts[index] + 1)
                        for index in pending
                    )
                    if delay > 0:
                        time.sleep(delay)

                round_init, round_initargs = _round_initializer(
                    initializer, initargs, fault_plan, active, label
                )
                workers = max(1, min(max_workers or len(pending), len(pending)))
                executor = active.make_executor(workers, round_init, round_initargs)
                still_pending: list[int] = []
                round_bad = False
                abandoned = False
                # perf_counter() at which each future resolved: a task span
                # ends there, not when the collect loop reaches it (on the
                # serial backend every task resolves inside submit).
                resolved_at: dict[int, float] = {}
                try:
                    futures: list[tuple[int, Future | None, Any]] = []
                    for index in pending:
                        outcome.attempts[index] += 1
                        # Submit-to-resolve span: its duration includes queue
                        # wait, and its context is what the worker's span
                        # parents on.
                        task_span = obs.trace.start_span(
                            f"{label}[{index}]",
                            attrs={
                                "attempt": outcome.attempts[index],
                                "backend": active.name,
                            },
                        )
                        task_ctx = task_span.context()
                        try:
                            future = executor.submit(
                                call_with_faults, fn, tuple(tasks[index]),
                                index, outcome.attempts[index],
                                task_ctx.as_dict() if task_ctx is not None else None,
                            )
                        except BrokenExecutor:
                            # The pool died while we were still feeding it.
                            future = None
                        else:
                            future.add_done_callback(
                                lambda _, index=index: resolved_at.setdefault(
                                    index, time.perf_counter()
                                )
                            )
                        futures.append((index, future, task_span))

                    wait_timeout = policy.timeout if active.supports_timeout else None
                    for index, future, task_span in futures:
                        failure: str | None = None
                        value: Any = None
                        if future is None:
                            failure = "crash"
                        else:
                            try:
                                value = future.result(timeout=wait_timeout)
                            except FuturesTimeoutError:
                                failure = "timeout"
                                future.cancel()
                                abandoned = True
                            except faults.SimulatedCrash:
                                failure = "crash"
                            except BrokenExecutor:
                                failure = "crash"
                            except Exception as error:  # noqa: BLE001 - task attempt failed
                                failure = f"error: {error!r}"
                        if failure is None and isinstance(value, faults.CorruptResult):
                            failure = "corrupt"
                        if failure is None and policy.validate is not None:
                            try:
                                valid = policy.validate(index, value)
                            except Exception as error:  # noqa: BLE001
                                valid = False
                                failure = f"validator error: {error!r}"
                            if not valid and failure is None:
                                failure = "corrupt"
                        ended = resolved_at.get(index)
                        if failure is None:
                            outcome.results[index] = value
                            task_span.end(at=ended)
                            continue
                        kind = failure.split(":", 1)[0]
                        if kind == "timeout":
                            outcome.timeouts += 1
                            round_bad = True
                        elif kind == "crash":
                            outcome.crashes += 1
                            round_bad = True
                        elif kind == "corrupt":
                            outcome.corrupt += 1
                        else:
                            outcome.errors += 1
                        outcome.failures.setdefault(index, []).append(
                            f"attempt {outcome.attempts[index]} on "
                            f"{active.name}: {failure}"
                        )
                        task_span.set_attr("failure", failure)
                        task_span.end(status=kind, at=ended)
                        still_pending.append(index)
                finally:
                    _release_executor(executor, active, abandoned)

                consecutive_bad_rounds = consecutive_bad_rounds + 1 if round_bad else 0
                exhausted = [
                    index for index in still_pending
                    if outcome.attempts[index] >= budget[index]
                ]
                if still_pending and not outcome.degraded and active.name != "serial" and (
                    exhausted or consecutive_bad_rounds >= policy.max_backend_failures
                ):
                    # Stop trusting the pooled backend: finish the run inline.
                    outcome.degraded = True
                    outcome.degraded_reason = (
                        f"{len(exhausted)} {label}(s) exhausted "
                        f"{policy.max_attempts} attempts on the "
                        f"{active.name} backend"
                        if exhausted
                        else f"{consecutive_bad_rounds} consecutive failing rounds "
                        f"on the {active.name} backend"
                    )
                    active = SerialBackend()
                    outcome.final_backend = active.name
                    for index in still_pending:
                        budget[index] = outcome.attempts[index] + policy.max_attempts
                elif exhausted:
                    raise ResilienceError(
                        f"{len(exhausted)} {label}(s) failed permanently after "
                        f"{[outcome.attempts[i] for i in exhausted]} attempts: "
                        f"{ {i: outcome.failures[i] for i in exhausted} }",
                        failures=dict(outcome.failures),
                    )
                pending = still_pending
            run_span.set_attr("final_backend", active.name)
            run_span.set_attr("rounds", outcome.rounds)
    finally:
        if fault_plan is not None and not active.workers_are_processes:
            # Serial/thread rounds armed the plan in *this* process.
            faults.clear_fault_plan()
    return outcome


def policy_for_spec(
    policy: ResiliencePolicy | None,
    cell_timeout: float | None,
    cell_max_attempts: int | None,
) -> ResiliencePolicy:
    """Fold an experiment spec's per-cell defaults into a policy.

    An explicit caller policy wins wholesale; otherwise the spec's
    ``cell_timeout`` / ``cell_max_attempts`` fill in over the defaults.
    """
    if policy is not None:
        return policy
    policy = ResiliencePolicy()
    if cell_timeout is not None:
        policy = replace(policy, timeout=cell_timeout)
    if cell_max_attempts is not None:
        policy = replace(policy, max_attempts=cell_max_attempts)
    return policy


__all__ = [
    "ResilienceError",
    "ResiliencePolicy",
    "ResilientOutcome",
    "backoff_delay",
    "call_with_faults",
    "policy_for_spec",
    "run_tasks",
]
