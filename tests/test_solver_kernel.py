"""The solver's C kernel against the Python methods it mirrors.

Two solvers run the same incremental session in lockstep, one through the
kernel and one through the reference path (the loader made to report no
kernel), each adding its clauses and solving on its own path.  After every
block of clauses, every single clause and every ``solve`` the answers, the
counters and the solver's whole internal state must be equal: every typed
table in order —
the clause arena (so every clause's literal order), the watch and
implication pools, the trail, the learned-clause side tables, the analysis
marks and the heap.  Small ``restart_base``/``reduce_base`` values make restarts
and clause deletion run inside the sessions.

The loader is checked on its own: two processes building into one cold
directory load the same kernel and leave no temp files, and every failure
to build falls back to None.
"""

from __future__ import annotations

import gc
import json
import random
import signal
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.runner.execution import run_experiment
from repro.runner.registry import ExperimentSpec, GridCell
from repro.sat import native
from repro.sat.solver import CdclSolver, SolverConfig

PACKAGE_PARENT = Path(repro.__file__).resolve().parents[1]


def _on_reference_path(method, argument):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernel", lambda: None)
        return method(argument)


@pytest.fixture(scope="module")
def kernel():
    """The C kernel module; the test is skipped where it cannot be built."""
    module = native.kernel()
    if module is None:
        pytest.skip("the C kernel cannot be built on this host (no C compiler or Python headers)")
    return module


def _state(solver: CdclSolver) -> dict:
    """Everything the search reads: every table, item for item and in order."""

    def pool(lists):
        return [list(table) for table in (lists.items, lists.start, lists.size, lists.capacity)]

    heap = solver._heap
    return {
        "stats": solver.stats().as_dict(),
        "arena": list(solver._arena),
        "problem": list(solver._problem),
        "learned": list(solver._learned),
        "lbd": list(solver._lbd),
        "activity": list(solver._activity),
        "trail": list(solver._trail),
        "trail_limits": list(solver._trail_limits),
        "queue_head": solver._queue_head,
        "value": list(solver._value),
        "level": list(solver._level),
        "phase": list(solver._phase),
        "reason": list(solver._reason),
        "watches": pool(solver._watches),
        "binary": pool(solver._binary),
        "heap": (list(heap._heap), list(heap._pos), list(heap._act)),
        "incs": (solver._var_inc, solver._clause_inc, solver._reduce_limit),
        "seen": bytes(solver._seen),
        "num_vars": solver._num_vars,
        "unsat": solver._unsat,
    }


def _pairs(lists, code: int) -> list[tuple[int, int]]:
    """The list of ``code`` in a ``PairLists`` pool, as tuples."""
    begin = lists.start[code]
    flat = list(lists.items[begin:begin + lists.size[code]])
    return list(zip(flat[::2], flat[1::2]))


def _blocks(clauses, seed: int):
    """``clauses`` cut into consecutive blocks of random sizes (empty ones included)."""
    rng = random.Random(seed)
    start = 0
    while start < len(clauses):
        size = rng.randint(0, 9)
        yield clauses[start:start + size]
        start += size


def _run_lockstep(num_vars: int, clauses, steps, config: SolverConfig, seed: int = 0):
    """Run one session on both paths; assert equal state after each step.

    ``clauses`` go in through ``add_clauses`` in blocks of random sizes, the
    ``add`` steps one at a time.  Returns the final counters.
    """
    native_solver = CdclSolver(config=config)
    reference = CdclSolver(config=config)
    native_solver.reserve_vars(num_vars)
    reference.reserve_vars(num_vars)
    for kind, payload in [*(("block", block) for block in _blocks(clauses, seed)), *steps]:
        if kind == "block":
            _on_reference_path(reference.add_clauses, payload)
            native_solver.add_clauses(payload)
        elif kind == "add":
            _on_reference_path(reference.add_clause, payload)
            native_solver.add_clause(payload)
        else:
            expected = _on_reference_path(reference.solve, payload)
            got = native_solver.solve(payload)
            assert (got.satisfiable, got.model, got.stats) == (
                expected.satisfiable,
                expected.model,
                expected.stats,
            )
        assert _state(native_solver) == _state(reference)
    return native_solver.stats()


def _literals(top: int):
    return st.integers(1, top).flatmap(lambda v: st.sampled_from([v, -v]))


# Sessions reserve 14 variables; clauses may name two more, which grows the
# tables inside add_clause.  Units fix literals at level 0, so later clauses
# meet satisfied and false literals there; the clauses over variables 1-3
# repeat literals and are often tautologies or empty.  The explicit example
# below also reaches a unit that propagates into a conflict.
clause_strategy = st.one_of(
    st.lists(_literals(16), min_size=1, max_size=1),
    st.lists(_literals(16), min_size=2, max_size=4),
    st.lists(_literals(3), min_size=1, max_size=5),
)
step = st.one_of(
    st.tuples(st.just("add"), clause_strategy),
    st.tuples(st.just("solve"), st.lists(_literals(14), max_size=3)),
)


@settings(max_examples=120, deadline=None)
@example(
    clauses=[
        [1, 2], [-1, 2, 2], [-5], [5, 6, 7], [-5, 8], [3, -3, 4], [4, 4, 9], [16, 10], [-2],
    ],
    steps=[("add", [1, 3]), ("solve", [])],
    restart_base=1,
    reduce_base=1,
    glue_lbd=0,
    seed=0,
)
@given(
    clauses=st.lists(clause_strategy, min_size=10, max_size=70),
    steps=st.lists(step, min_size=1, max_size=8),
    restart_base=st.integers(1, 4),
    reduce_base=st.integers(1, 12),
    glue_lbd=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_kernel_matches_reference_on_random_sessions(
    kernel, clauses, steps, restart_base, reduce_base, glue_lbd, seed
):
    config = SolverConfig(
        restart_base=restart_base, reduce_base=reduce_base, reduce_growth=2, glue_lbd=glue_lbd
    )
    _run_lockstep(14, clauses, [*steps, ("solve", [])], config, seed)


def _random_3sat(rng: np.random.Generator, num_vars: int, ratio: float) -> list[list[int]]:
    clauses = []
    for _ in range(int(ratio * num_vars)):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
    return clauses


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_reference_through_restarts_and_deletion(kernel, seed):
    rng = np.random.default_rng(seed)
    num_vars = 60
    clauses = _random_3sat(rng, num_vars, 4.2)
    steps = [("solve", []), ("solve", [1, -2]), ("add", [3, -4, 5]), ("solve", [-3])]
    steps += [("add", clause) for clause in _random_3sat(rng, num_vars, 0.3)]
    steps += [("solve", [4, 5, -6]), ("solve", [])]
    config = SolverConfig(restart_base=2, reduce_base=20, reduce_growth=5)
    stats = _run_lockstep(num_vars, clauses, steps, config, seed)
    assert stats.restarts > 0 and stats.deleted_clauses > 0


@pytest.mark.parametrize(
    "knobs",
    [
        {"restart_policy": "geometric", "restart_growth": 1.1},
        {"verify_models": True, "var_decay": 0.5, "clause_decay": 0.5},
    ],
    ids=["geometric", "verify_models"],
)
@pytest.mark.parametrize("seed", range(3))
def test_kernel_matches_reference_under_other_knobs(kernel, knobs, seed):
    """Geometric restarts, and model checking with fast-growing bump increments."""
    rng = np.random.default_rng(100 + seed)
    clauses = _random_3sat(rng, 60, 4.2)
    steps = [("solve", []), ("solve", [1, -2]), ("solve", [-3, 4])]
    config = SolverConfig(restart_base=2, reduce_base=20, reduce_growth=5, **knobs)
    stats = _run_lockstep(60, clauses, steps, config, seed)
    assert stats.restarts > 0 and stats.deleted_clauses > 0


def _solve(kernel, solver: CdclSolver, *codes: int):
    """``kernel.solve`` under the assumption literal ``codes``."""
    return kernel.solve(solver, array("i", codes))


def test_a_broken_solver_state_raises_instead_of_crashing(kernel):
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._trail.append(2 * 99)  # a code past the value table
    with pytest.raises(IndexError):
        _solve(kernel, solver)
    solver._queue_head = -1  # a queue head before the trail
    with pytest.raises(IndexError, match="queue head"):
        _solve(kernel, solver)
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._heap._heap.append(99)  # a heap variable past the value table
    with pytest.raises(IndexError, match="heap variable"):
        _solve(kernel, solver)
    with pytest.raises(IndexError, match="literal code"):
        _solve(kernel, CdclSolver(), 2 * 99)  # an assumption past the value table
    with pytest.raises(TypeError, match="array"):
        kernel.solve(solver, [2])  # assumptions in a list, not a typed table
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._level.append(0)
    with pytest.raises(ValueError, match="disagree"):
        _solve(kernel, solver)
    with pytest.raises(ValueError, match="disagree"):
        kernel.add_clauses(solver, [[4, 5]])
    solver._level = list(solver._level)  # a table of the wrong type
    with pytest.raises(TypeError, match="_level must be an array"):
        _solve(kernel, solver)
    solver._level = array("i", [0] * 4)
    solver._seen = bytes(4)  # marks that cannot be written
    with pytest.raises(TypeError, match="_seen must be a bytearray"):
        _solve(kernel, solver)
    with pytest.raises(AttributeError):
        _solve(kernel, object())
    with pytest.raises(TypeError):
        kernel.solve(solver)
    with pytest.raises(TypeError):
        kernel.add_clauses(solver)


def _conflict_after_one_decision() -> tuple[CdclSolver, int]:
    """Deciding variable 1 false implies 2 through [1, 2], then conflicts on [1, -2].

    Returns the solver and the implication-pool slot that holds the offset
    of the conflict clause; the slot two before it holds the reason of 2.
    """
    solver = CdclSolver()
    solver.add_clauses([[1, 2], [1, -2]])
    binary = solver._binary
    assert _pairs(binary, 2) == [(4, solver._problem[0]), (5, solver._problem[1])]
    return solver, binary.start[2] + 3


def test_a_broken_analysis_state_raises_instead_of_crashing(kernel):
    solver, _ = _conflict_after_one_decision()
    assert list(_solve(kernel, solver)) == [1, 1] and solver.stats().conflicts == 1
    # A literal past the value table in the conflict clause.
    solver, slot = _conflict_after_one_decision()
    solver._arena[solver._problem[1] + 1] = 2 * 99
    with pytest.raises(IndexError, match="literal code"):
        _solve(kernel, solver)
    # A current-level variable that is not the UIP and has no reason clause.
    solver, slot = _conflict_after_one_decision()
    solver._binary.items[slot - 2] = -1
    with pytest.raises(IndexError, match="reason clause offset -1"):
        _solve(kernel, solver)
    # A conflict outside the arena.
    for outside in (0, 1, len(solver._arena)):
        solver, slot = _conflict_after_one_decision()
        solver._binary.items[slot] = outside
        with pytest.raises(IndexError, match="outside the arena"):
            _solve(kernel, solver)
    # A clause whose size runs past the end of the arena.
    solver, _ = _conflict_after_one_decision()
    solver._arena[solver._problem[1] - 2] = 4
    with pytest.raises(IndexError, match="outside the arena"):
        _solve(kernel, solver)
    # A learned-clause index without an activity.
    solver, _ = _conflict_after_one_decision()
    solver._arena[solver._problem[1] - 1] = 7
    with pytest.raises(IndexError, match="learned clause index"):
        _solve(kernel, solver)


def test_analysis_that_runs_off_the_trail_raises(kernel):
    """Current-level variables that are false but not on the trail.

    Variable 1 is decided true and implies 2 through [-1, 2]; 2 conflicts on
    [-2, 3].  Variables 3 and 4 are false at level 1 without a trail entry,
    and the reason of 2 is rewritten to [4, 2], so the decision is never
    reached and the analysis still counts two literals when the trail ends.
    """
    solver = CdclSolver()
    solver.add_clauses([[-1, 2], [-2, 3]])
    solver.reserve_vars(4)
    solver.set_phases({1: True})
    for variable in (3, 4):
        solver._value[2 * variable], solver._value[2 * variable + 1] = 0, 1
        solver._level[variable] = 1
    solver._arena[solver._problem[0]] = 2 * 4
    with pytest.raises(RuntimeError, match="ran off the trail"):
        _solve(kernel, solver)


def test_a_broken_clause_database_raises_instead_of_crashing(kernel):
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._num_vars = 9  # the tables still hold three variables
    with pytest.raises(IndexError):
        kernel.add_clauses(solver, [[8, 9]])
    with pytest.raises(TypeError):
        kernel.add_clauses(solver, [5])
    with pytest.raises(TypeError):
        kernel.add_clauses(solver, 5)
    stored = solver._problem[0]
    first, _, third = solver._clause(stored)
    with pytest.raises(RuntimeError, match="missing from watch list"):
        kernel.unwatch(solver, third, stored)
    with pytest.raises(IndexError):
        kernel.unwatch(solver, 2 * 99, stored)
    watches = solver._watches
    watches.size[first] += 1  # a list that ends inside a pair
    with pytest.raises(ValueError, match="outside its pool"):
        kernel.unwatch(solver, first, stored)
    watches.size[first] -= 1
    watches.capacity[first] += 1  # a segment that ends inside a pair
    with pytest.raises(ValueError, match="outside its pool"):
        kernel.add_clauses(solver, [[1, -3, 2]])
    watches.capacity[first] -= 1
    start = watches.start[first]
    watches.start[first] = len(watches.items)  # a list past the end of the pool
    with pytest.raises(ValueError, match="outside its pool"):
        kernel.unwatch(solver, first, stored)
    with pytest.raises(ValueError, match="outside its pool"):
        _solve(kernel, _with_trail(CdclSolver(), 3, like=solver))
    watches.start[first] = start
    kernel.unwatch(solver, first, stored)
    assert _pairs(watches, first) == []
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._arena[solver._problem[0] - 2] = 1  # a watched clause of one literal
    with pytest.raises(IndexError, match="outside the arena"):
        _solve(kernel, _with_trail(solver, 3))  # -1 is true: the clause is visited


def _pigeonhole(holes: int, selector: int) -> list[list[int]]:
    """``holes + 1`` pigeons in ``holes`` holes, every clause guarded by ``-selector``."""
    pigeons = holes + 1

    def var(pigeon, hole):
        return selector + 1 + pigeon * holes + hole

    clauses = [[-selector] + [var(p, h) for h in range(holes)] for p in range(pigeons)]
    clauses += [
        [-selector, -var(p, h), -var(q, h)]
        for h in range(holes)
        for p in range(pigeons)
        for q in range(p + 1, pigeons)
    ]
    return clauses


class Interrupted(Exception):
    pass


def test_a_signal_interrupts_a_long_query_and_the_solver_stays_usable(kernel):
    """Nine pigeons in eight holes take the kernel about 2 s here: a missed
    signal fails the test instead of hanging it."""
    solver = CdclSolver(config=SolverConfig(verify_models=True))
    solver.add_clauses(_pigeonhole(8, selector=1))

    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(Interrupted):
            solver.solve([1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # The counters of the interrupted search were written back.
    assert solver.stats().conflicts > 0 and solver._queue_head <= len(solver._trail)
    result = solver.solve([-1])
    assert result.satisfiable and result.model[1] is False
    solver._verify_model(result.values)


def _with_trail(solver: CdclSolver, code: int, like: CdclSolver | None = None) -> CdclSolver:
    """``solver`` with ``code`` assigned true and queued for propagation.

    With ``like``, ``solver`` first takes over that solver's clause database.
    """
    if like is not None:
        solver.reserve_vars(3)
        solver._arena, solver._watches, solver._binary = like._arena, like._watches, like._binary
    solver._enqueue(code)
    solver._queue_head = len(solver._trail) - 1
    return solver


def test_repeated_solves_keep_allocated_blocks_flat(solver_kernel):
    """A leak guard: solvers built and solved over and over hold no memory afterwards."""
    rng = np.random.default_rng(3)
    instances = [_random_3sat(rng, 50, 4.3) for _ in range(4)]
    config = SolverConfig(restart_base=2, reduce_base=20, reduce_growth=5)

    def one_round():
        for clauses in instances:
            solver = CdclSolver(config=config)
            solver.add_clauses(clauses)
            solver.solve()
            solver.solve([1, -2, 3])

    one_round()  # warm-up: caches, interned objects, the kernel itself
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(5):
        one_round()
    gc.collect()
    assert sys.getallocatedblocks() - before < 100


def test_solver_state_is_invisible_to_the_garbage_collector(solver_kernel):
    """Clauses, watches and per-variable tables add no GC-tracked objects."""
    rng = np.random.default_rng(4)
    clauses = _random_3sat(rng, 2500, 2.0)
    assert len(clauses) == 5000
    gc.collect()
    before = len(gc.get_objects())
    solver = CdclSolver()
    solver.add_clauses(clauses)
    assert solver.solve().satisfiable
    gc.collect()
    assert len(gc.get_objects()) - before < 100


def test_a_reduction_leaves_only_live_clauses(solver_kernel):
    """After each reduction the arena holds the live clauses and their headers
    only, and each pool at most twice its live entries."""
    rng = np.random.default_rng(11)
    solver = CdclSolver(config=SolverConfig(restart_base=2, reduce_base=20, reduce_growth=5))
    solver.add_clauses(_random_3sat(rng, 80, 4.3))
    reduce_db = solver._reduce_db
    reductions = []

    def reduce_and_measure():
        deleted = reduce_db()
        arena = solver._arena
        live = [*solver._problem, *solver._learned]
        assert len(arena) == sum(arena[offset - 2] + 2 for offset in live)
        for lists in (solver._watches, solver._binary):
            assert len(lists.items) <= 2 * sum(lists.size) + 4
        reductions.append(deleted)
        return deleted

    solver._reduce_db = reduce_and_measure
    solver.solve()
    solver.solve([1, -2])
    assert len(reductions) > 3 and sum(reductions) == solver.stats().deleted_clauses > 0


def test_tables_are_arrays_for_the_kernel_and_lists_without(solver_kernel):
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    tables = [solver._arena, solver._value, solver._watches.items, solver._heap._act]
    assert {type(table) for table in tables} == {array if solver_kernel else list}


def test_many_small_growths_leave_the_tables_of_one_large_growth(solver_kernel):
    """Every per-variable and per-code table (values, levels, reasons, phases,
    marks, both pools, heap order, positions and activities) grows in typed
    blocks to the same contents as one growth to the final size."""
    stepped, whole = CdclSolver(), CdclSolver()
    for num_vars in (1, 2, 2, 15, 28, 28, 41, 100, 113):
        stepped.reserve_vars(num_vars)
    whole.reserve_vars(113)
    assert _state(stepped) == _state(whole)
    fresh = _state(whole)
    assert fresh["num_vars"] == 113 and fresh["value"] == [-1] * 228
    assert (fresh["level"], fresh["reason"], fresh["phase"]) == ([0] * 114, [-1] * 114, [1] * 114)
    assert fresh["seen"] == bytes(114)
    for pool in (fresh["watches"], fresh["binary"]):
        assert pool == [[], [0] * 228, [0] * 228, [0] * 228]
    assert fresh["heap"] == (list(range(1, 114)), list(range(-1, 113)), [0.0] * 114)
    kind = array if solver_kernel else list
    tables = (whole._value, whole._level, whole._reason, whole._phase, whole._heap._act,
              whole._heap._pos, whole._watches.start, whole._binary.capacity)
    assert {type(table) for table in tables} == {kind}


def test_set_phases_rejects_an_unknown_variable_and_changes_nothing(solver_kernel):
    solver = CdclSolver()
    solver.reserve_vars(10)
    solver.set_phases({1: True, 2: False, 10: True})
    before = list(solver._phase)
    assert before[1:3] == [0, 1] and before[10] == 0
    for unknown in (0, 11, -3):
        with pytest.raises(ValueError, match=rf"^unknown variable {unknown}$"):
            solver.set_phases({3: True, unknown: False, 4: True, 9: False})
        assert list(solver._phase) == before
    solver.set_phases({})
    assert list(solver._phase) == before


def test_add_clause_branches_on_both_paths(solver_kernel):
    solver = CdclSolver()
    solver.add_clause([1, -1, 2])  # a tautology is dropped
    solver.add_clause([2, 3, 2, 3])  # repeats are merged
    assert [solver._clause(clause) for clause in solver._problem] == [[4, 6]]
    assert _pairs(solver._binary, 4) == [(6, solver._problem[0])]
    solver.add_clause([-4])  # a unit is assigned at level 0
    assert list(solver._trail) == [9] and solver._queue_head == 1
    solver.add_clause([4, 5, 3])  # the false literal -4 is dropped
    assert solver._clause(solver._problem[-1]) == [6, 10]
    solver.add_clause([-4, 6])  # satisfied at level 0: not stored
    assert len(solver._problem) == 2
    with pytest.raises(ValueError, match="0 is not"):
        solver.add_clause([0, 1])
    solver._trail_limits.append(len(solver._trail))
    with pytest.raises(RuntimeError, match="level 0"):
        solver.add_clause([1, 2])
    del solver._trail_limits[:]
    assert not solver._unsat
    solver.add_clause([-3])  # propagates 2 through [2, 3] and 5 through [3, 5]
    assert list(solver._trail) == [9, 7, 4, 10] and not solver._unsat
    solver.add_clause([-5, -2])  # both literals false: the empty clause
    assert solver._unsat
    other = CdclSolver()
    other.add_clause([1, 2])
    other.add_clause([-1, 2])
    other.add_clause([-2])  # the unit propagates into a conflict
    assert other._unsat and not other.solve().satisfiable


def test_numpy_integer_literals_work_on_both_paths(solver_kernel):
    solver = CdclSolver()
    solver.add_clause([np.int64(1), np.int64(2), np.int64(3)])
    solver.add_clause(np.array([-1, 2]))
    result = solver.solve([np.int64(-2)])
    assert result.model == {1: False, 2: False, 3: True}
    assert {type(code) for clause in solver._problem for code in solver._clause(clause)} == {int}
    solver.reserve_vars(np.int32(5))
    assert solver._num_vars == 5 and type(solver._num_vars) is int


def test_a_non_integer_literal_raises_and_changes_nothing(solver_kernel):
    solver = CdclSolver()
    with pytest.raises(TypeError):
        solver.add_clause([1.5])
    with pytest.raises(TypeError):
        solver.add_clause([1, 2.0])
    with pytest.raises(TypeError):
        solver.reserve_vars(2.5)
    assert solver._num_vars == 0 and len(solver._problem) == 0
    solver.add_clause([1, -2])
    with pytest.raises(TypeError):
        solver.solve([1.5])
    assert solver._num_vars == 2
    assert solver.solve([2]).model == {1: True, 2: True}


def test_a_bad_literal_in_a_block_keeps_the_clauses_before_it(solver_kernel):
    solver = CdclSolver()
    with pytest.raises(TypeError):
        solver.add_clauses([[1, 2], [-1, 3, 4], [5, 1.5], [6, 7]])
    assert [solver._clause(clause) for clause in solver._problem] == [[2, 4], [3, 6, 8]]
    assert solver._num_vars == 4 and not solver._unsat
    solver.add_clauses(clause for clause in ([5, 1], [-5]))  # any iterable of clauses
    assert solver._num_vars == 5 and list(solver._trail) == [11, 2]  # -5, then 1
    assert not solver.solve([-1]).satisfiable and solver.solve([-2]).model[3] is True


# A one-cell harness for the run-record test (the runner resolves hooks by module).
def cells(profile, options):
    return [GridCell(name="solve", params={})]


def run_cell(params, profile):
    solver = CdclSolver()
    solver.add_clause([1, -2])
    return solver.solve([2]).model


def collect(results):
    return results


def report(collected):
    return f"models: {collected}"


def test_the_run_record_names_the_solver_path_and_the_report_does_not(solver_kernel):
    spec = ExperimentSpec(name="kernel_toy", module=__name__, title="toy")
    run = run_experiment(spec, profile="tiny", jobs=1)
    record = run.record()
    assert record["cells"][0]["result"] == {"1": True, "2": True}
    assert record["solver_kernel"] == ("python" if solver_kernel is None else "native")
    assert "native" not in record["report"] and "python" not in record["report"]


# ----------------------------------------------------------------------
# The loader
# ----------------------------------------------------------------------
LOAD_AND_USE = """
import json, sys
sys.path.insert(0, sys.argv[2])
from pathlib import Path
from repro.sat import native
from array import array
module = native.load(native.SOURCE, Path(sys.argv[1]))
native.kernel = lambda: module
from repro.sat.solver import CdclSolver
solver = CdclSolver()
module.add_clauses(solver, [[1, 2], [-1, 2]])
print(json.dumps([module.__file__, list(module.solve(solver, array("i", [3])))]))
"""


def test_concurrent_cold_builds_load_one_kernel(kernel, tmp_path):
    build_dir = tmp_path / "build"
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", LOAD_AND_USE, str(build_dir), str(PACKAGE_PARENT)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [worker.communicate(timeout=120) for worker in workers]
    assert [worker.returncode for worker in workers] == [0, 0], outputs
    loaded = [json.loads(stdout) for stdout, _ in outputs]
    assert loaded[0] == loaded[1]
    path, values = loaded[0]
    assert values == [0, 1]  # -1 assumed, so 2 is true
    built = sorted(entry.name for entry in build_dir.iterdir())
    assert [name for name in built if name.endswith(".so")] == [Path(path).name]
    assert not [name for name in built if name.endswith(".tmp")]


def test_a_built_kernel_is_reused_without_compiling(kernel, tmp_path, monkeypatch):
    first = native.load(native.SOURCE, tmp_path)
    assert first is not None

    def refuse(source, flags):
        raise AssertionError("rebuilt a cached kernel")

    monkeypatch.setattr(native, "_compile", refuse)
    again = native.load(native.SOURCE, tmp_path)
    assert again is not None and again.__file__ == first.__file__


def test_a_changed_source_builds_under_a_new_name(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    source.write_text("/* one */")
    built = []

    def fake_compile(path, flags):
        built.append(path.read_text())
        return b"not a shared object"

    monkeypatch.setattr(native, "_compile", fake_compile)
    # A corrupt build fails to load: the loader answers None, not an error.
    assert native.load(source, tmp_path / "build") is None
    first = {path.name for path in (tmp_path / "build").iterdir()}
    source.write_text("/* two */")
    assert native.load(source, tmp_path / "build") is None
    assert built == ["/* one */", "/* two */"]
    second = {path.name for path in (tmp_path / "build").iterdir()}
    assert len(first) == len(second) == 2 and not first & second


def test_a_new_build_removes_the_older_builds_and_their_locks(kernel, tmp_path):
    """Two real sources built in turn into one directory leave only the second build."""
    build_dir = tmp_path / "build"
    old_source = tmp_path / "old" / "_kernel.c"
    old_source.parent.mkdir()
    old_source.write_bytes(native.SOURCE.read_bytes() + b"/* an older source */\n")
    assert native.load(old_source, build_dir) is not None
    foreign = build_dir / "_kernel.0123456789abcdef.other-interpreter.so"
    foreign.write_bytes(b"")
    module = native.load(native.SOURCE, build_dir)
    assert module is not None and module.solve is not None
    target = Path(module.__file__)
    assert sorted(path.name for path in build_dir.iterdir()) == sorted(
        [target.name, target.with_suffix(".lock").name, foreign.name]
    )


def test_no_compiler_falls_back_to_none(tmp_path, monkeypatch):
    import sysconfig

    real = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig,
        "get_config_var",
        lambda name: str(tmp_path / "no-such-cc") if name == "CC" else real(name),
    )
    assert native.load(native.SOURCE, tmp_path / "build") is None
    # Only the lock file remains: no shared object and no temp file.
    assert [path.suffix for path in (tmp_path / "build").iterdir()] == [".lock"]


def test_a_failing_build_falls_back_to_none(tmp_path):
    source = tmp_path / "_kernel.c"
    source.write_text("this is not C\n")
    assert native.load(source, tmp_path / "build") is None
    assert not list((tmp_path / "build").glob("*.so"))
    assert not list((tmp_path / "build").glob("*.tmp"))


def test_an_unwritable_build_dir_falls_back_to_none(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert native.load(native.SOURCE, blocker / "build") is None


def test_the_solver_runs_without_a_kernel(monkeypatch):
    monkeypatch.setattr(native, "kernel", lambda: None)
    solver = CdclSolver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 2])
    assert not solver.solve([-2]).satisfiable
    assert solver.solve().model[2] is True
