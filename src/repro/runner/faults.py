"""Deterministic fault injection for the execution backends.

Correctness under failure is only trustworthy if every recovery path is
exercised by tests, and worker failure is exactly the kind of behaviour that
cannot be provoked reliably from the outside.  This module provides the
scripting hook: a picklable :class:`FaultPlan` travels to every worker
through the backend initializer and makes a specific *task* misbehave on a
specific *attempt* — crash the worker, hang past the timeout, raise, or
return a corrupt result.

Faults are keyed on ``(task index, attempt number)`` rather than on worker
identity: pool workers are anonymous and pick up tasks nondeterministically,
but the task index is a pure function of the submitted work, so a scripted
scenario replays identically regardless of which worker draws which task.
A rule may additionally be scoped to one backend (``only_backend``), which
is how tests script "always fails under the process backend, succeeds after
the downgrade to serial".

The ``crash`` fault calls :func:`os._exit` only inside a real worker
*process* (a plan installed for the ``"process"`` backend); under the
serial backend — where exiting would kill the caller — it raises
:class:`SimulatedCrash` instead, which the resilience layer classifies
exactly like a dead worker.

Nothing here runs unless a plan has been installed: production runs never
pay for the hook.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: Exit status of a worker process killed by a ``crash`` fault.
CRASH_EXIT_CODE = 23

#: The fault kinds a rule may request.
FAULT_KINDS = ("crash", "hang", "corrupt", "error")


class SimulatedCrash(RuntimeError):
    """A scripted worker crash in a context where ``os._exit`` would kill
    the caller (the serial backend)."""


@dataclass(frozen=True)
class CorruptResult:
    """The payload a ``corrupt`` fault returns in place of the real result.

    The resilience layer always rejects instances of this marker, so chaos
    tests can exercise the retry-on-bad-result path.
    """

    task_index: int
    attempt: int


@dataclass(frozen=True)
class FaultRule:
    """Make one task misbehave: ``kind`` on the first ``attempts`` attempts.

    ``task_index`` is the task's position in submission order (for the
    runner, the grid-cell index).  ``attempts`` bounds how often the fault
    fires — attempt numbers are 1-based and monotonically increasing across
    retries and backend downgrades, so ``attempts=1`` means "fail once, then
    recover".
    ``only_backend`` restricts the rule to one backend name (``"serial"``
    or ``"process"``); None fires everywhere.
    """

    task_index: int
    kind: str
    attempts: int = 1
    hang_seconds: float = 30.0
    only_backend: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.task_index < 0:
            raise ValueError(f"task_index must be >= 0, got {self.task_index}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")

    def matches(self, task_index: int, attempt: int, backend_name: str) -> bool:
        """Does this rule fire for ``task_index`` on ``attempt``?"""
        return (
            self.task_index == task_index
            and attempt <= self.attempts
            and (self.only_backend is None or self.only_backend == backend_name)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable script of :class:`FaultRule` entries.

    Deterministic by construction: whether a fault fires depends only on
    ``(task index, attempt, backend name)`` — never on wall clock, process
    ids, or scheduling order.
    """

    rules: tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def rule_for(
        self, task_index: int, attempt: int, backend_name: str
    ) -> FaultRule | None:
        """The first rule that fires for this (task, attempt, backend)."""
        for rule in self.rules:
            if rule.matches(task_index, attempt, backend_name):
                return rule
        return None

    # ------------------------------------------------------------------
    # Convenience constructors for the common chaos scenarios
    # ------------------------------------------------------------------
    @staticmethod
    def crashing(
        *task_indices: int, attempts: int = 1, only_backend: str | None = None
    ) -> "FaultPlan":
        """Crash the worker running each listed task on its first attempts."""
        return FaultPlan(
            tuple(
                FaultRule(index, "crash", attempts=attempts, only_backend=only_backend)
                for index in task_indices
            )
        )

    @staticmethod
    def hanging(
        *task_indices: int,
        seconds: float,
        attempts: int = 1,
        only_backend: str | None = None,
    ) -> "FaultPlan":
        """Make each listed task sleep ``seconds`` before returning."""
        return FaultPlan(
            tuple(
                FaultRule(
                    index, "hang", attempts=attempts, hang_seconds=seconds,
                    only_backend=only_backend,
                )
                for index in task_indices
            )
        )

    @staticmethod
    def corrupting(
        *task_indices: int, attempts: int = 1, only_backend: str | None = None
    ) -> "FaultPlan":
        """Replace each listed task's result with a :class:`CorruptResult`."""
        return FaultPlan(
            tuple(
                FaultRule(index, "corrupt", attempts=attempts, only_backend=only_backend)
                for index in task_indices
            )
        )


# ----------------------------------------------------------------------
# Worker-side plan installation and injection
# ----------------------------------------------------------------------
_ACTIVE_PLAN: FaultPlan | None = None
_ACTIVE_BACKEND: str = ""


def install_fault_plan(plan: FaultPlan | None, backend_name: str) -> None:
    """Arm ``plan`` in this process (called from the backend initializer).

    The backend name gates the real ``os._exit`` crash: only a ``"process"``
    worker may die for a ``crash`` rule; the serial backend raises
    :class:`SimulatedCrash` instead.
    """
    global _ACTIVE_PLAN, _ACTIVE_BACKEND
    _ACTIVE_PLAN = plan
    _ACTIVE_BACKEND = backend_name


def clear_fault_plan() -> None:
    """Disarm any installed plan (the resilience layer's cleanup hook)."""
    install_fault_plan(None, "")


def active_fault_plan() -> FaultPlan | None:
    """The plan currently armed in this process, if any."""
    return _ACTIVE_PLAN


def maybe_inject(task_index: int, attempt: int) -> CorruptResult | None:
    """Fire the armed fault for ``(task_index, attempt)``, if one is scripted.

    Returns a :class:`CorruptResult` for a ``corrupt`` rule (the caller must
    substitute it for the real result), None when no fault applies.  A
    ``hang`` rule sleeps, then lets the task proceed normally — the parent's
    per-attempt timeout is what turns the hang into a failure.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return None
    rule = plan.rule_for(task_index, attempt, _ACTIVE_BACKEND)
    if rule is None:
        return None
    if rule.kind == "crash":
        if _ACTIVE_BACKEND == "process":
            os._exit(CRASH_EXIT_CODE)
        raise SimulatedCrash(
            f"injected crash: task {task_index}, attempt {attempt}"
        )
    if rule.kind == "hang":
        time.sleep(rule.hang_seconds)
        return None
    if rule.kind == "error":
        raise RuntimeError(
            f"injected error: task {task_index}, attempt {attempt}"
        )
    return CorruptResult(task_index=task_index, attempt=attempt)


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "CorruptResult",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrash",
    "active_fault_plan",
    "clear_fault_plan",
    "install_fault_plan",
    "maybe_inject",
]
