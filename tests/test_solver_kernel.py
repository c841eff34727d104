"""The solver's C kernel against the Python methods it mirrors.

Two solvers run the same incremental session in lockstep, one through the
kernel and one through the reference path (the loader made to report no
kernel), each adding its clauses and solving on its own path.  After every
``add_clause`` and every ``solve`` the answers, the counters and the
solver's whole internal state must be equal: the trail, every watch and
implication list in order, the clause literal orders, the analysis marks
and the heap.  Small ``restart_base``/``reduce_base`` values make restarts
and clause deletion run inside the sessions.

The loader is checked on its own: two processes building into one cold
directory load the same kernel and leave no temp files, and every failure
to build falls back to None.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.runner.execution import run_experiment
from repro.runner.registry import ExperimentSpec, GridCell
from repro.sat import native
from repro.sat.solver import CdclSolver, Clause, SolverConfig

KERNEL = native.kernel()
needs_kernel = pytest.mark.skipif(
    KERNEL is None,
    reason="the C kernel cannot be built on this host (no C compiler or Python headers)",
)

PACKAGE_PARENT = Path(repro.__file__).resolve().parents[1]


def _on_reference_path(method, argument):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernel", lambda: None)
        return method(argument)


def _state(solver: CdclSolver) -> dict:
    """Everything the search reads, with clauses shown as literal lists."""

    def clause(stored):
        return None if stored is None else (list(stored), stored.lbd, stored.activity)

    heap = solver._heap
    return {
        "stats": solver.stats().as_dict(),
        "trail": list(solver._trail),
        "trail_limits": list(solver._trail_limits),
        "queue_head": solver._queue_head,
        "value": list(solver._value),
        "level": list(solver._level),
        "phase": list(solver._phase),
        "reason": [clause(reason) for reason in solver._reason],
        "watches": [[(list(c), blocker) for c, blocker in entries] for entries in solver._watches],
        "binary": [[(implied, list(c)) for implied, c in entries] for entries in solver._binary],
        "problem": [clause(stored) for stored in solver._problem],
        "learned": [clause(stored) for stored in solver._learned],
        "heap": (list(heap._heap), list(heap._pos), list(heap._act)),
        "incs": (solver._var_inc, solver._clause_inc, solver._reduce_limit),
        "seen": bytes(solver._seen),
        "num_vars": solver._num_vars,
        "unsat": solver._unsat,
    }


def _run_lockstep(num_vars: int, clauses, steps, config: SolverConfig):
    """Run one session on both paths; assert equal state after each step.

    Returns the final counters.
    """
    native_solver = CdclSolver(config=config)
    reference = CdclSolver(config=config)
    native_solver.reserve_vars(num_vars)
    reference.reserve_vars(num_vars)
    for kind, payload in [*(("add", literals) for literals in clauses), *steps]:
        if kind == "add":
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


@needs_kernel
@settings(max_examples=120, deadline=None)
@example(
    clauses=[
        [1, 2], [-1, 2, 2], [-5], [5, 6, 7], [-5, 8], [3, -3, 4], [4, 4, 9], [16, 10], [-2],
    ],
    steps=[("add", [1, 3]), ("solve", [])],
    restart_base=1,
    reduce_base=1,
    glue_lbd=0,
)
@given(
    clauses=st.lists(clause_strategy, min_size=10, max_size=70),
    steps=st.lists(step, min_size=1, max_size=8),
    restart_base=st.integers(1, 4),
    reduce_base=st.integers(1, 12),
    glue_lbd=st.integers(0, 2),
)
def test_kernel_matches_reference_on_random_sessions(
    clauses, steps, restart_base, reduce_base, glue_lbd
):
    config = SolverConfig(
        restart_base=restart_base, reduce_base=reduce_base, reduce_growth=2, glue_lbd=glue_lbd
    )
    _run_lockstep(14, clauses, [*steps, ("solve", [])], config)


def _random_3sat(rng: np.random.Generator, num_vars: int, ratio: float) -> list[list[int]]:
    clauses = []
    for _ in range(int(ratio * num_vars)):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
    return clauses


@needs_kernel
@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_reference_through_restarts_and_deletion(seed):
    rng = np.random.default_rng(seed)
    num_vars = 60
    clauses = _random_3sat(rng, num_vars, 4.2)
    steps = [("solve", []), ("solve", [1, -2]), ("add", [3, -4, 5]), ("solve", [-3])]
    steps += [("add", clause) for clause in _random_3sat(rng, num_vars, 0.3)]
    steps += [("solve", [4, 5, -6]), ("solve", [])]
    config = SolverConfig(restart_base=2, reduce_base=20, reduce_growth=5)
    stats = _run_lockstep(num_vars, clauses, steps, config)
    assert stats.restarts > 0 and stats.deleted_clauses > 0


@needs_kernel
def test_a_broken_solver_state_raises_instead_of_crashing():
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._trail.append(2 * 99)  # a code past the value table
    with pytest.raises(IndexError):
        KERNEL.propagate(solver)
    with pytest.raises(IndexError):
        KERNEL.pop_unassigned(solver._heap, [-1, -1])  # a value table too short
    solver._level.append(0)
    with pytest.raises(ValueError, match="disagree"):
        KERNEL.backtrack(solver, 0)
    with pytest.raises(ValueError, match="disagree"):
        KERNEL.analyze(solver, solver._problem[0])
    with pytest.raises(ValueError, match="disagree"):
        KERNEL.add_clause(solver, [4, 5])
    with pytest.raises(AttributeError):
        KERNEL.propagate(object())
    with pytest.raises(TypeError):
        KERNEL.backtrack(solver)
    with pytest.raises(TypeError):
        KERNEL.analyze(solver)


def _two_decisions() -> CdclSolver:
    """Variables 1 and 2 decided true at level 1; variable 3 unassigned."""
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._trail_limits.append(0)
    solver._enqueue(2, reason=None)
    solver._enqueue(4, reason=None)
    return solver


@needs_kernel
def test_a_broken_analysis_state_raises_instead_of_crashing():
    # A literal past the value table.
    with pytest.raises(IndexError):
        KERNEL.analyze(_two_decisions(), Clause([3, 2 * 99]))
    # A current-level variable that is not the UIP and has no reason clause.
    with pytest.raises(TypeError, match="reason"):
        KERNEL.analyze(_two_decisions(), Clause([3, 5]))
    # A current-level variable that is not on the trail.
    solver = _two_decisions()
    solver._level[3] = 1
    with pytest.raises(RuntimeError, match="ran off the trail"):
        KERNEL.analyze(solver, Clause([7]))
    # A conflict that is not a clause.
    with pytest.raises(TypeError):
        KERNEL.analyze(_two_decisions(), None)
    with pytest.raises(AttributeError):
        KERNEL.analyze(_two_decisions(), [3, 5])  # a list without learned-clause fields


@needs_kernel
def test_a_broken_clause_database_raises_instead_of_crashing():
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    solver._num_vars = 9  # the tables still hold three variables
    with pytest.raises(IndexError):
        KERNEL.add_clause(solver, [8, 9])
    with pytest.raises(TypeError):
        KERNEL.add_clause(solver, 5)
    stored = solver._problem[0]
    with pytest.raises(RuntimeError, match="missing from watch list"):
        KERNEL.unwatch(solver, stored[2], stored)
    with pytest.raises(IndexError):
        KERNEL.unwatch(solver, 2 * 99, stored)
    solver._watches[stored[0]].insert(0, stored)  # an entry that is not a pair
    with pytest.raises(TypeError, match="pairs"):
        KERNEL.unwatch(solver, stored[0], stored)
    del solver._watches[stored[0]][0]
    KERNEL.unwatch(solver, stored[0], stored)
    assert solver._watches[stored[0]] == []


def test_add_clause_branches_on_both_paths(solver_kernel):
    solver = CdclSolver()
    solver.add_clause([1, -1, 2])  # a tautology is dropped
    solver.add_clause([2, 3, 2, 3])  # repeats are merged
    assert [list(clause) for clause in solver._problem] == [[4, 6]]
    assert solver._binary[4] == [(6, solver._problem[0])]
    solver.add_clause([-4])  # a unit is assigned at level 0
    assert solver._trail == [9] and solver._queue_head == 1
    solver.add_clause([4, 5, 3])  # the false literal -4 is dropped
    assert list(solver._problem[-1]) == [6, 10]
    solver.add_clause([-4, 6])  # satisfied at level 0: not stored
    assert len(solver._problem) == 2
    with pytest.raises(ValueError, match="0 is not"):
        solver.add_clause([0, 1])
    solver._trail_limits.append(len(solver._trail))
    with pytest.raises(RuntimeError, match="level 0"):
        solver.add_clause([1, 2])
    solver._trail_limits.clear()
    assert not solver._unsat
    solver.add_clause([-3])  # propagates 2 through [2, 3] and 5 through [3, 5]
    assert solver._trail == [9, 7, 4, 10] and not solver._unsat
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
    assert {type(code) for clause in solver._problem for code in clause} == {int}
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
    assert solver._num_vars == 0 and solver._problem == []
    solver.add_clause([1, -2])
    with pytest.raises(TypeError):
        solver.solve([1.5])
    assert solver._num_vars == 2
    assert solver.solve([2]).model == {1: True, 2: True}


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
from repro.sat.heap import ActivityHeap
module = native.load(native.SOURCE, Path(sys.argv[1]))
heap = ActivityHeap(3)
heap.bump(2, 1.0)
print(json.dumps([module.__file__, module.pop_unassigned(heap, [-1] * 8)]))
"""


@needs_kernel
def test_concurrent_cold_builds_load_one_kernel(tmp_path):
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
    path, popped = loaded[0]
    assert popped == 2
    built = sorted(entry.name for entry in build_dir.iterdir())
    assert [name for name in built if name.endswith(".so")] == [Path(path).name]
    assert not [name for name in built if name.endswith(".tmp")]


@needs_kernel
def test_a_built_kernel_is_reused_without_compiling(tmp_path, monkeypatch):
    first = native.load(native.SOURCE, tmp_path)
    assert first is not None

    def refuse(source):
        raise AssertionError("rebuilt a cached kernel")

    monkeypatch.setattr(native, "_compile", refuse)
    again = native.load(native.SOURCE, tmp_path)
    assert again is not None and again.__file__ == first.__file__


def test_a_changed_source_builds_under_a_new_name(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    source.write_text("/* one */")
    built = []

    def fake_compile(path):
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


@needs_kernel
def test_a_new_build_removes_the_older_builds_and_their_locks(tmp_path):
    """Two real sources built in turn into one directory leave only the second build."""
    build_dir = tmp_path / "build"
    old_source = tmp_path / "old" / "_kernel.c"
    old_source.parent.mkdir()
    old_source.write_bytes(native.SOURCE.read_bytes() + b"/* an older source */\n")
    assert native.load(old_source, build_dir) is not None
    foreign = build_dir / "_kernel.0123456789abcdef.other-interpreter.so"
    foreign.write_bytes(b"")
    module = native.load(native.SOURCE, build_dir)
    assert module is not None and module.pop_unassigned is not None
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
