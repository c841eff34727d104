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

import pickle

import pytest

from repro.experiments.reporting import resilience_summary
from repro.runner.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    backend_names,
    resolve_backend,
)
from repro.runner.execution import ExperimentRunner
from repro.runner.faults import (
    CRASH_EXIT_CODE,
    CorruptResult,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
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


#: The built-in in-process backends.
BUILTIN_BACKENDS = ("serial", "process", "thread")

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
            assert not outcome.had_failures
            assert outcome.backend == name == outcome.final_backend

    def test_resolve_backend_defaults_follow_job_count(self):
        assert resolve_backend(None, jobs=1).name == "serial"
        assert resolve_backend(None, jobs=None).name == "serial"
        assert resolve_backend(None, jobs=4).name == "process"

    def test_resolve_backend_accepts_instance_and_name(self):
        backend = ThreadPoolBackend()
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)

    def test_resolve_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("bogus")

    def test_queue_is_not_an_execution_backend(self):
        """The durable queue serves ``deterrent serve`` only; ``--backend``
        offers exactly the three pools."""
        assert sorted(backend_names()) == ["process", "serial", "thread"]
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("queue")

    def test_serial_executor_mirrors_initializer_failure_into_future(self):
        def bad_init():
            raise RuntimeError("init failed")

        executor = SerialBackend().make_executor(1, bad_init, ())
        future = executor.submit(square, 3)
        with pytest.raises(RuntimeError, match="init failed"):
            future.result()

    def test_backend_capability_flags(self):
        assert SerialBackend.workers_are_processes is False
        assert SerialBackend.supports_timeout is False
        assert ProcessPoolBackend.workers_are_processes is True
        assert ProcessPoolBackend.supports_timeout is True
        assert ThreadPoolBackend.workers_are_processes is False
        assert ThreadPoolBackend.supports_timeout is True


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
        rule = FaultRule(2, "crash", attempts=2, only_backend="thread")
        assert rule.matches(2, 1, "thread")
        assert rule.matches(2, 2, "thread")
        assert not rule.matches(2, 3, "thread")  # attempts exhausted
        assert not rule.matches(1, 1, "thread")  # other task
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
        install_fault_plan(FaultPlan.crashing(0), "thread", workers_are_processes=False)
        try:
            with pytest.raises(SimulatedCrash):
                maybe_inject(0, 1)
        finally:
            clear_fault_plan()

    def test_corrupt_and_error_injection(self):
        plan = FaultPlan(
            (FaultRule(0, "corrupt"), FaultRule(1, "error"))
        )
        install_fault_plan(plan, "serial", workers_are_processes=False)
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

    def test_thread_backend_recovers_from_simulated_crashes(self):
        outcome = run_tasks(
            square, TASKS, backend="thread", max_workers=2,
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

    def test_thread_backend_timeout_recovery(self):
        outcome = run_tasks(
            square, TASKS, backend="thread", max_workers=2,
            fault_plan=FaultPlan.hanging(0, seconds=5.0),
            policy=ResiliencePolicy(timeout=0.5, backoff_base=0.01),
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

    def test_validator_rejection_counts_as_corrupt(self):
        rejected_once = []

        def validate(index, value):
            if index == 1 and not rejected_once:
                rejected_once.append(index)
                return False
            return True

        outcome = run_tasks(
            square, TASKS, backend="serial",
            policy=ResiliencePolicy(validate=validate, backoff_base=0.0),
        )
        assert outcome.results == EXPECTED
        assert outcome.corrupt == 1

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

    def test_empty_task_list(self):
        outcome = run_tasks(square, [], backend="process")
        assert outcome.results == []
        assert outcome.rounds == 0

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            run_tasks(square, TASKS, seeds=[1, 2])


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
        plan = FaultPlan.crashing(1, attempts=99, only_backend="thread")
        outcome = run_tasks(
            square, TASKS, backend="thread", max_workers=2, fault_plan=plan,
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
                square, TASKS, backend="thread", max_workers=2, fault_plan=plan,
                policy=ResiliencePolicy(max_attempts=2, backoff_base=0.0),
            )

    def test_counters_roundtrip_into_summary_line(self):
        plan = FaultPlan.crashing(0, attempts=99, only_backend="thread")
        outcome = run_tasks(
            square, TASKS, backend="thread", max_workers=2, fault_plan=plan,
            policy=ResiliencePolicy(max_attempts=2, backoff_base=0.0),
        )
        line = resilience_summary(outcome.counters())
        assert "backend=thread" in line
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
        serial = ExperimentRunner(jobs=1, cache_dir=cache).run(
            "sequential_detect", profile="tiny", options=OPTS
        )
        faulted = ExperimentRunner(
            jobs=4,
            cache_dir=cache,
            backend="process",
            resilience=FAST,
            fault_plan=FaultPlan.crashing(0, 2),
        ).run("sequential_detect", profile="tiny", options=OPTS)

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
        run = ExperimentRunner(
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            backend="process",
            resilience=ResiliencePolicy(max_attempts=2, backoff_base=0.01),
            fault_plan=plan,
        ).run("transfer", profile="tiny")
        record = run.record()
        assert record["resilience"]["degraded"] is True
        assert record["resilience"]["final_backend"] == "serial"
        assert len(record["cells"]) == len(run.outcomes) >= 1

    def test_thread_backend_runner_matches_serial(self, tmp_path):
        cache = str(tmp_path / "cache")
        serial = ExperimentRunner(jobs=1, cache_dir=cache).run(
            "transfer", profile="tiny"
        )
        threaded = ExperimentRunner(jobs=2, cache_dir=cache, backend="thread").run(
            "transfer", profile="tiny"
        )
        assert run_record_cells(threaded) == run_record_cells(serial)
        assert threaded.record()["backend"] == "thread"


# ----------------------------------------------------------------------
# The sharded SAT stages under faults
# ----------------------------------------------------------------------
def _c17_rare():
    from repro.circuits.library import load_benchmark
    from repro.simulation.rare_nets import extract_rare_nets

    netlist = load_benchmark("c17")
    rare = extract_rare_nets(netlist, threshold=0.5, num_patterns=64, seed=0)
    assert len(rare) >= 3, "c17 must expose a few rare nets at 0.5"
    return netlist, rare


def _activatability_stage():
    from repro.core.compatibility import is_activatable
    from repro.sat.justify import Justifier

    netlist, rare = _c17_rare()
    return netlist, Justifier, is_activatable, [(r.net, r.rare_value) for r in rare], None


def _pair_stage():
    from repro.core.compatibility import pair_is_compatible
    from repro.sat.justify import Justifier

    netlist, rare = _c17_rare()
    requirements = [(r.net, r.rare_value) for r in rare]
    pairs = [
        (requirements[i], requirements[j])
        for i in range(len(requirements))
        for j in range(i + 1, len(requirements))
    ]
    return netlist, Justifier, pair_is_compatible, pairs, None


def _check_pattern(netlist, rare_set, expected, result):
    """The witness drives at least its realised count of rare values."""
    from repro.simulation.logic_sim import simulate_pattern

    witness, realized = result
    assert realized == expected[1] >= 1
    simulated = simulate_pattern(netlist, witness)
    held = sum(simulated[rare.net] == rare.rare_value for rare in rare_set)
    assert held >= realized


def _pattern_stage():
    from repro.core.patterns import pattern_witness_with_repair
    from repro.sat.justify import Justifier

    netlist, rare = _c17_rare()
    # Singletons, every pair, and the whole list (repaired when unsatisfiable).
    sets = [(r,) for r in rare] + [
        (rare[i], rare[j]) for i in range(len(rare)) for j in range(i + 1, len(rare))
    ] + [tuple(rare)]
    return netlist, Justifier, pattern_witness_with_repair, sets, _check_pattern


def _check_sequence(netlist, ordered, expected, result):
    """Replay: at the fire cycle at least the realised count of nets hold."""
    from repro.sat.temporal import replay_fire_cycles
    from repro.trojan.model import SequentialTrigger, TriggerCondition

    sequence, fire_cycle, realized = result
    assert realized == expected[2] >= 1
    held = sum(
        fire_cycle in replay_fire_cycles(
            netlist,
            SequentialTrigger(TriggerCondition((requirement,)), "consecutive", 1),
            sequence,
        )
        for requirement in ordered
    )
    assert held >= realized


def _sequence_stage():
    from functools import partial

    from repro.circuits.gates import GateType
    from repro.circuits.netlist import Netlist
    from repro.core.sequence_gen import make_sequence_justifier, sequence_witness_with_repair

    netlist = Netlist("toy_seq")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_flip_flop("q", "a")
    netlist.add_flip_flop("r", "b")
    netlist.add_gate("mix", GateType.AND, ("a", "q"))
    netlist.add_gate("nq", GateType.NOT, ("q",))
    netlist.add_gate("nb", GateType.NOT, ("b",))
    netlist.add_gate("hold", GateType.AND, ("nb", "r"))
    for output in ("mix", "nq", "hold"):
        netlist.add_output(output)
    # mix=1 needs q=1, so the last set is repaired down to (mix, hold).
    sets = [
        (("mix", 1),), (("hold", 1),), (("mix", 1), ("hold", 1)),
        (("mix", 1), ("hold", 1), ("nq", 1)),
    ]
    return (
        netlist,
        partial(make_sequence_justifier, cycles=3),
        partial(sequence_witness_with_repair, mode="consecutive", count=1, cycles=3),
        sets,
        _check_sequence,
    )


class TestShardedPathsUnderFaults:
    """Every sharded SAT stage recovers from a crashed shard.

    Exact-verdict stages must equal the inline reference; witness stages
    must realise as many requirements as the inline path (repair verdicts
    are exact) with witnesses that check out by simulation or replay.
    """

    @pytest.mark.parametrize(
        "stage",
        [_activatability_stage, _pair_stage, _pattern_stage, _sequence_stage],
        ids=["activatability", "pairs", "pattern-witness", "sequence-witness"],
    )
    def test_stage_survives_crashing_workers(self, stage):
        from repro.runner.parallel import sharded_map

        netlist, make_justifier, fn, items, check = stage()
        reference = sharded_map(netlist, make_justifier, fn, items, 1, label="inline")
        faulted = sharded_map(
            netlist, make_justifier, fn, items, 2,
            backend="thread",
            resilience=FAST,
            fault_plan=FaultPlan.crashing(0),
            label="chaos",
        )
        assert len(faulted) == len(reference) == len(items)
        if check is None:
            assert faulted == reference
        else:
            for item, expected, result in zip(items, reference, faulted):
                check(netlist, item, expected, result)
