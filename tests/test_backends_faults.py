"""Chaos suite for the execution backends and the resilience layer.

Every recovery path the runner claims to have is provoked here with a
scripted :class:`~repro.runner.faults.FaultPlan` — worker crashes (real
``os._exit`` under the process backend, :class:`SimulatedCrash` elsewhere),
hangs past the per-attempt timeout, corrupt results, and raised errors —
and every recovered run is checked bit-identical to the serial reference.

The suite carries the ``faults`` marker so CI can run it in its own job
(``pytest -m faults``); it also runs in the default tier-1 sweep.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.experiments.reporting import resilience_summary
from repro.runner.backends import BACKENDS, make_executor, resolve_backend
from repro.runner.execution import run_experiment
from repro.runner.faults import (
    CorruptResult,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
    active_fault_plan,
    clear_fault_plan,
    install_fault_plan,
    maybe_inject,
)
from repro.runner.resilience import (
    ResilienceError,
    ResiliencePolicy,
    backoff_delay,
    run_tasks,
)

pytestmark = pytest.mark.faults

#: Fast-retry policy so chaos scenarios do not sleep through real backoff.
FAST = ResiliencePolicy(backoff_base=0.01, backoff_cap=0.05)


def square(x):
    """Module-level task fn: picklable for the process backend."""
    return x * x


def boom(x):
    raise ValueError(f"boom {x}")


#: The built-in backends.
BUILTIN_BACKENDS = ("serial", "process")

TASKS = [(i,) for i in range(6)]
EXPECTED = [i * i for i in range(6)]


def run_record_cells(run):
    """A run record's cells with wall-clock timing stripped.

    "Bit-identical" for recovered runs means identical results and
    parameters; elapsed seconds legitimately differ per execution.
    """
    return [
        {key: value for key, value in cell.items() if key != "elapsed_seconds"}
        for cell in run.record()["cells"]
    ]


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_all_backends_agree_with_serial(self):
        reference = run_tasks(square, TASKS, backend="serial").results
        assert reference == EXPECTED
        for name in BUILTIN_BACKENDS:
            outcome = run_tasks(square, TASKS, backend=name, max_workers=3)
            assert outcome.results == reference, name
            counters = outcome.counters()
            assert [counters[key] for key in ("retries", "timeouts", "crashes", "errors",
                                              "corrupt")] == [0] * 5
            assert outcome.backend == name == outcome.final_backend

    def test_resolve_backend_defaults_follow_job_count(self):
        assert resolve_backend(None, jobs=1) == "serial"
        assert resolve_backend(None, jobs=None) == "serial"
        assert resolve_backend(None, jobs=4) == "process"

    @pytest.mark.parametrize("backend", BUILTIN_BACKENDS)
    def test_an_explicit_backend_wins_over_the_job_count(self, backend):
        assert resolve_backend(backend, jobs=1) == backend
        assert resolve_backend(backend, jobs=4) == backend

    @pytest.mark.parametrize("backend", BUILTIN_BACKENDS)
    def test_only_the_process_backend_leaves_the_caller(self, backend):
        executor = make_executor(backend, 1)
        try:
            pid = executor.submit(os.getpid).result(timeout=60)
        finally:
            executor.shutdown()
        assert (pid == os.getpid()) == (backend == "serial")

    def test_resolve_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("bogus")
        with pytest.raises(ValueError, match="choose from: process, serial"):
            resolve_backend("thread")

    def test_queue_is_not_an_execution_backend(self):
        """The durable queue serves ``deterrent serve`` only; ``--backend``
        offers exactly the two backends."""
        assert sorted(BACKENDS) == ["process", "serial"]
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("queue")

    def test_serial_executor_mirrors_initializer_failure_into_future(self):
        def bad_init():
            raise RuntimeError("init failed")

        executor = make_executor("serial", 1, bad_init, ())
        future = executor.submit(square, 3)
        with pytest.raises(RuntimeError, match="init failed"):
            future.result()


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_plan_survives_pickle(self):
        plan = FaultPlan.crashing(1, 3, attempts=2, only_backend="process")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.rule_for(3, 2, "process") is not None

    def test_rules_key_on_task_attempt_and_backend(self):
        rule = FaultRule(2, "crash", attempts=2, only_backend="serial")
        assert rule.matches(2, 1, "serial")
        assert rule.matches(2, 2, "serial")
        assert not rule.matches(2, 3, "serial")  # attempts exhausted
        assert not rule.matches(1, 1, "serial")  # other task
        assert not rule.matches(2, 1, "process")  # other backend

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultRule(0, "explode")
        with pytest.raises(ValueError, match="task_index"):
            FaultRule(-1, "crash")
        with pytest.raises(ValueError, match="attempts"):
            FaultRule(0, "crash", attempts=0)
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultRule(0, "hang", hang_seconds=-1.0)

    def test_maybe_inject_without_plan_is_a_no_op(self):
        clear_fault_plan()
        assert maybe_inject(0, 1) is None

    def test_crash_is_simulated_outside_worker_processes(self):
        install_fault_plan(FaultPlan.crashing(0), "serial")
        try:
            with pytest.raises(SimulatedCrash):
                maybe_inject(0, 1)
        finally:
            clear_fault_plan()

    @pytest.mark.parametrize(
        "backend, plan, degraded",
        [
            ("serial", FaultPlan.corrupting(0), False),
            ("process", FaultPlan.corrupting(0), False),
            ("process", FaultPlan.crashing(0, attempts=99, only_backend="process"), True),
        ],
        ids=["serial", "process", "process-degraded"],
    )
    def test_plan_is_disarmed_in_the_caller_after_a_run(self, backend, plan, degraded):
        outcome = run_tasks(
            square, TASKS, backend=backend, max_workers=2, fault_plan=plan,
            policy=ResiliencePolicy(max_attempts=2, backoff_base=0.0),
        )
        assert outcome.results == EXPECTED
        assert outcome.degraded is degraded
        assert active_fault_plan() is None

    def test_corrupt_and_error_injection(self):
        plan = FaultPlan(
            (FaultRule(0, "corrupt"), FaultRule(1, "error"))
        )
        install_fault_plan(plan, "serial")
        try:
            assert maybe_inject(0, 1) == CorruptResult(task_index=0, attempt=1)
            with pytest.raises(RuntimeError, match="injected error"):
                maybe_inject(1, 1)
            assert maybe_inject(2, 1) is None
        finally:
            clear_fault_plan()


# ----------------------------------------------------------------------
# Deterministic backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def test_delay_is_a_pure_function_of_seed_and_attempt(self):
        policy = ResiliencePolicy(backoff_base=0.1, backoff_cap=1.0)
        first = [backoff_delay(policy, seed=41, attempt=a) for a in range(1, 6)]
        again = [backoff_delay(policy, seed=41, attempt=a) for a in range(1, 6)]
        assert first == again

    def test_first_attempt_never_waits(self):
        assert backoff_delay(ResiliencePolicy(), seed=7, attempt=1) == 0.0

    def test_delay_grows_exponentially_within_jitter_bounds(self):
        policy = ResiliencePolicy(backoff_base=0.1, backoff_cap=100.0)
        for attempt in range(2, 7):
            base = 0.1 * 2 ** (attempt - 2)
            delay = backoff_delay(policy, seed=3, attempt=attempt)
            assert base * 0.5 <= delay < base * 1.5

    def test_cap_bounds_every_delay(self):
        policy = ResiliencePolicy(backoff_base=1.0, backoff_cap=2.0)
        assert backoff_delay(policy, seed=0, attempt=10) < 2.0 * 1.5

    def test_distinct_seeds_jitter_differently(self):
        policy = ResiliencePolicy(backoff_base=1.0, backoff_cap=100.0)
        delays = {backoff_delay(policy, seed=s, attempt=3) for s in range(8)}
        assert len(delays) > 1


# ----------------------------------------------------------------------
# Recovery paths, per backend
# ----------------------------------------------------------------------
class TestRecovery:
    def test_process_backend_recovers_from_real_worker_crashes(self):
        outcome = run_tasks(
            square, TASKS, backend="process", max_workers=3,
            fault_plan=FaultPlan.crashing(1, 4), policy=FAST,
        )
        assert outcome.results == EXPECTED
        assert outcome.crashes >= 2
        assert outcome.retries >= 2
        assert not outcome.degraded

    def test_serial_backend_recovers_from_simulated_crashes(self):
        outcome = run_tasks(
            square, TASKS, backend="serial", max_workers=2,
            fault_plan=FaultPlan.crashing(0, 5), policy=FAST,
        )
        assert outcome.results == EXPECTED
        assert outcome.crashes == 2

    def test_hang_past_timeout_is_abandoned_and_retried(self):
        outcome = run_tasks(
            square, TASKS, backend="process", max_workers=2,
            fault_plan=FaultPlan.hanging(2, seconds=10.0),
            policy=ResiliencePolicy(timeout=1.0, backoff_base=0.01),
        )
        assert outcome.results == EXPECTED
        assert outcome.timeouts >= 1

    def test_corrupt_results_are_rejected_and_retried(self):
        for backend in BUILTIN_BACKENDS:
            outcome = run_tasks(
                square, TASKS, backend=backend, max_workers=2,
                fault_plan=FaultPlan.corrupting(0, 3), policy=FAST,
            )
            assert outcome.results == EXPECTED, backend
            assert outcome.corrupt == 2, backend
            assert not any(
                isinstance(result, CorruptResult) for result in outcome.results
            )

    def test_serial_backend_ignores_timeout(self):
        outcome = run_tasks(
            square, TASKS, backend="serial",
            fault_plan=FaultPlan.hanging(0, seconds=0.2),
            policy=ResiliencePolicy(timeout=0.05),
        )
        assert outcome.results == EXPECTED
        assert outcome.timeouts == 0

    def test_error_faults_retry_then_succeed(self):
        outcome = run_tasks(
            square, TASKS, backend="serial",
            fault_plan=FaultPlan((FaultRule(3, "error"),)),
            policy=ResiliencePolicy(backoff_base=0.0),
        )
        assert outcome.results == EXPECTED
        assert outcome.errors == 1
        assert outcome.failures[3][0].startswith("attempt 1 on serial: error")

    def test_permanent_failure_raises_with_attempt_history(self):
        with pytest.raises(ResilienceError) as excinfo:
            run_tasks(
                boom, TASKS[:2], backend="serial",
                policy=ResiliencePolicy(max_attempts=2, backoff_base=0.0),
            )
        failures = excinfo.value.failures
        assert set(failures) == {0, 1}
        assert len(failures[0]) == 2

    def test_results_keep_submission_order_after_recovery(self):
        outcome = run_tasks(
            square, TASKS, backend="process", max_workers=3,
            fault_plan=FaultPlan.crashing(0, 2, 4), policy=FAST,
        )
        assert outcome.results == EXPECTED

    def test_retries_jitter_from_the_policy_seed_per_task(self, monkeypatch):
        from repro.runner import resilience

        calls = []

        def recording_delay(policy, seed, attempt):
            calls.append((seed, attempt))
            return 0.0

        monkeypatch.setattr(resilience, "backoff_delay", recording_delay)
        policy = ResiliencePolicy(seed=13)
        outcome = run_tasks(
            square, TASKS, backend="serial", max_workers=2,
            fault_plan=FaultPlan.crashing(1, 4), policy=policy,
        )
        assert outcome.results == EXPECTED
        assert sorted(calls) == [(13 + 7919 * 1, 2), (13 + 7919 * 4, 2)]

    def test_empty_task_list(self):
        outcome = run_tasks(square, [], backend="process")
        assert outcome.results == []
        assert outcome.rounds == 0


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_exhausted_task_on_pooled_backend_degrades_to_serial(self):
        plan = FaultPlan.crashing(0, attempts=99, only_backend="process")
        outcome = run_tasks(
            square, TASKS, backend="process", max_workers=2,
            fault_plan=plan, policy=ResiliencePolicy(max_attempts=2, backoff_base=0.01),
        )
        assert outcome.results == EXPECTED
        assert outcome.degraded
        assert outcome.backend == "process"
        assert outcome.final_backend == "serial"
        assert "exhausted" in outcome.degraded_reason

    def test_consecutive_bad_rounds_trigger_degradation(self):
        plan = FaultPlan.crashing(1, attempts=99, only_backend="process")
        outcome = run_tasks(
            square, TASKS, backend="process", max_workers=2, fault_plan=plan,
            policy=ResiliencePolicy(
                max_attempts=10, max_backend_failures=2, backoff_base=0.01
            ),
        )
        assert outcome.results == EXPECTED
        assert outcome.degraded
        assert "consecutive failing rounds" in outcome.degraded_reason

    def test_degraded_run_still_fails_when_serial_also_fails(self):
        plan = FaultPlan.crashing(0, attempts=99)  # every backend, forever
        with pytest.raises(ResilienceError):
            run_tasks(
                square, TASKS, backend="process", max_workers=2, fault_plan=plan,
                policy=ResiliencePolicy(max_attempts=2, backoff_base=0.0),
            )

    def test_counters_roundtrip_into_summary_line(self):
        plan = FaultPlan.crashing(0, attempts=99, only_backend="process")
        outcome = run_tasks(
            square, TASKS, backend="process", max_workers=2, fault_plan=plan,
            policy=ResiliencePolicy(max_attempts=2, backoff_base=0.0),
        )
        line = resilience_summary(outcome.counters())
        assert "backend=process" in line
        assert "retries=" in line
        assert "crashes=" in line
        assert "degraded to serial" in line

    def test_clean_summary_line(self):
        outcome = run_tasks(square, TASKS, backend="serial")
        assert resilience_summary(outcome.counters()) == "execution: backend=serial, clean"
        assert resilience_summary(None) == "execution: no resilience data"


# ----------------------------------------------------------------------
# The runner end to end (the ISSUE's acceptance scenario)
# ----------------------------------------------------------------------
OPTS = {"cycles": [2, 3], "counts": [2]}  # 4 grid cells on the tiny profile


class TestRunnerUnderFaults:
    def test_crashed_workers_do_not_change_run_results(self, tmp_path):
        """sequential_detect, 4 cells, jobs=4, two cells crash their worker
        mid-run: the recovered run record is bit-identical to the serial
        reference and carries the retry counters."""
        cache = str(tmp_path / "cache")
        serial = run_experiment(
            "sequential_detect", profile="tiny", jobs=1, options=OPTS, cache_dir=cache
        )
        faulted = run_experiment(
            "sequential_detect",
            profile="tiny",
            jobs=4,
            options=OPTS,
            cache_dir=cache,
            backend="process",
            resilience=FAST,
            fault_plan=FaultPlan.crashing(0, 2),
        )

        assert run_record_cells(faulted) == run_record_cells(serial)
        record = faulted.record()
        assert record["backend"] == "process"
        assert record["resilience"]["crashes"] >= 2
        assert record["resilience"]["retries"] >= 2
        assert record["resilience"]["degraded"] is False
        assert serial.record()["resilience"]["crashes"] == 0

    def test_runner_degrades_to_serial_and_finishes(self, tmp_path):
        # transfer/tiny has a single grid cell (index 0); crashing it on
        # every process-backend attempt forces the downgrade path.
        plan = FaultPlan.crashing(0, attempts=99, only_backend="process")
        run = run_experiment(
            "transfer",
            profile="tiny",
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            backend="process",
            resilience=ResiliencePolicy(max_attempts=2, backoff_base=0.01),
            fault_plan=plan,
        )
        record = run.record()
        assert record["resilience"]["degraded"] is True
        assert record["resilience"]["final_backend"] == "serial"
        assert len(record["cells"]) == len(run.outcomes) >= 1

    def test_process_backend_runner_matches_serial(self, tmp_path):
        cache = str(tmp_path / "cache")
        serial = run_experiment("transfer", profile="tiny", jobs=1, cache_dir=cache)
        pooled = run_experiment(
            "transfer", profile="tiny", jobs=2, cache_dir=cache, backend="process"
        )
        assert run_record_cells(pooled) == run_record_cells(serial)
        assert pooled.record()["backend"] == "process"
