"""Tests for the CDCL performance overhaul: config/stats API, activity heap,
Luby restarts, and clause-database reduction.

The differential fuzz tests are the safety net of the whole overhaul: every
configuration variant (Luby vs geometric restarts, aggressive clause
forgetting, model verification on) must agree with a brute-force truth-table
oracle on both the SAT/UNSAT verdict and model validity.
"""

import itertools
from array import array

import numpy as np
import pytest

from repro.sat.cnf import CNF
from repro.sat.heap import ActivityHeap
from repro.sat.solver import (
    RESTART_POLICIES,
    CdclSolver,
    SolverConfig,
    SolverResult,
    SolverStats,
    luby,
    solve_cnf,
)


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Exhaustive SAT check for tiny formulas."""
    for assignment in itertools.product([False, True], repeat=cnf.num_vars):
        if all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


def random_cnf(rng: np.random.Generator, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        size = int(rng.integers(1, 4))
        variables = rng.choice(num_vars, size=min(size, num_vars), replace=False) + 1
        clause = [int(v) if rng.random() < 0.5 else -int(v) for v in variables]
        cnf.add_clause(clause)
    return cnf


#: Configuration variants the fuzz tests sweep: every restart policy, plus an
#: aggressive-forgetting config that reduces the clause database constantly
#: (reduce_base=1 triggers a reduction at every restart) and a paranoid config
#: that re-verifies every model against the problem clauses.
FUZZ_CONFIGS = [
    SolverConfig(),
    SolverConfig(restart_policy="geometric"),
    SolverConfig(reduce_base=1, reduce_growth=0, reduce_fraction=1.0, glue_lbd=0),
    SolverConfig(restart_base=1, reduce_base=1, reduce_growth=0, verify_models=True),
]


class TestLuby:
    def test_reluctant_doubling_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(len(expected))] == expected

    def test_schedule_reaches_large_units(self):
        values = {luby(i) for i in range(1023)}
        assert values == {1 << h for h in range(10)}


class TestSolverConfig:
    def test_defaults_valid(self):
        config = SolverConfig()
        assert config.restart_policy == "luby"
        assert config.restart_policy in RESTART_POLICIES

    @pytest.mark.parametrize(
        "overrides",
        [
            {"var_decay": 0.0},
            {"var_decay": 1.0},
            {"clause_decay": 1.5},
            {"restart_policy": "fixed"},
            {"restart_base": 0},
            {"restart_growth": 1.0},
            {"reduce_base": 0},
            {"reduce_growth": -1},
            {"reduce_fraction": 0.0},
            {"reduce_fraction": 1.5},
            {"glue_lbd": -1},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            SolverConfig(**overrides)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SolverConfig key"):
            SolverConfig.from_mapping({"decay": 0.9})

    def test_from_mapping_roundtrip(self):
        config = SolverConfig.from_mapping({"restart_policy": "geometric"})
        assert config.restart_policy == "geometric"
        assert SolverConfig.from_mapping(config.as_dict()) == config

    def test_replace_revalidates(self):
        config = SolverConfig()
        assert config.replace(glue_lbd=3).glue_lbd == 3
        with pytest.raises(ValueError):
            config.replace(var_decay=2.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolverConfig().var_decay = 0.5


class TestSolverStats:
    def test_counters_accumulate_across_queries(self):
        cnf = CNF(num_vars=3, clauses=[[1, 2, 3], [-1, 2], [-2, 3]])
        solver = CdclSolver(cnf)
        solver.solve()
        first = solver.stats()
        solver.solve([-3])
        second = solver.stats()
        assert second.propagations >= first.propagations
        assert second.decisions >= first.decisions
        assert second.max_trail >= 1

    def test_stats_snapshot_is_independent(self):
        solver = CdclSolver(CNF(num_vars=1, clauses=[[1]]))
        snapshot = solver.stats()
        snapshot.conflicts = 999
        assert solver.stats().conflicts != 999

    def test_merge_sums_and_maxes(self):
        a = SolverStats(conflicts=1, decisions=2, propagations=3, max_trail=10)
        b = SolverStats(conflicts=4, restarts=1, learned_clauses=2, max_trail=7)
        merged = a.merge(b)
        assert merged.conflicts == 5
        assert merged.decisions == 2
        assert merged.restarts == 1
        assert merged.max_trail == 10

    def test_as_dict_is_json_ready(self):
        stats = SolverStats(conflicts=3).as_dict()
        assert stats["conflicts"] == 3
        assert set(stats) == {
            "conflicts", "decisions", "propagations", "restarts",
            "learned_clauses", "deleted_clauses", "max_trail",
        }

    def test_result_carries_stats(self):
        result = solve_cnf(CNF(num_vars=1, clauses=[[1]]))
        assert isinstance(result, SolverResult)
        assert result.stats is not None
        assert result.stats.propagations >= 1

    def test_restarts_counted_on_hard_instance(self):
        # Pigeonhole 5-into-4 forces enough conflicts to restart under
        # restart_base=1.
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(4)] for _ in range(5)]
        for i in range(5):
            cnf.add_clause([var[i][j] for j in range(4)])
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    cnf.add_clause([-var[i1][j], -var[i2][j]])
        solver = CdclSolver(cnf, config=SolverConfig(restart_base=1))
        assert not solver.solve().satisfiable
        stats = solver.stats()
        assert stats.conflicts > 0
        assert stats.restarts > 0
        assert stats.learned_clauses > 0


def _code(literal: int) -> int:
    """The solver's literal code: 2v for v, 2v + 1 for -v."""
    return literal << 1 if literal > 0 else (-literal << 1) | 1


class HeapOps:
    """``ActivityHeap.pop_unassigned``/``push_many`` as free functions.

    The kernel's copies of both run only inside ``_kernel.solve``; the
    lockstep tests in ``test_solver_kernel.py`` compare the heap they leave
    with this reference, item for item, after every query.
    """

    @staticmethod
    def pop_unassigned(heap: ActivityHeap, value: list[int]) -> int | None:
        return heap.pop_unassigned(array("b", value))  # the solver's value table is typed

    @staticmethod
    def push_many(heap: ActivityHeap, codes: list[int]) -> None:
        heap.push_many(codes)

    def pop(self, heap: ActivityHeap) -> int | None:
        """Pop with every variable unassigned (no lazy deletion)."""
        return self.pop_unassigned(heap, [-1] * (2 * heap.num_vars + 2))


@pytest.fixture
def ops() -> HeapOps:
    return HeapOps()


class TestActivityHeap:
    def test_pop_order_is_by_activity(self, ops):
        heap = ActivityHeap(5)
        for variable, bump in [(3, 5.0), (1, 3.0), (4, 4.0)]:
            heap.bump(variable, bump)
        order = [ops.pop(heap) for _ in range(3)]
        assert order == [3, 4, 1]

    def test_pop_skips_assigned_variables(self, ops):
        heap = ActivityHeap(4)
        for variable, bump in [(1, 4.0), (2, 3.0), (3, 2.0)]:
            heap.bump(variable, bump)
        # Indexed by literal code: 1 is true, 2 is false, 3 and 4 unassigned.
        value = [-1, -1, 1, 0, 0, 1, -1, -1, -1, -1]
        assert ops.pop_unassigned(heap, value) == 3
        assert 1 not in heap and 2 not in heap
        heap.check_invariants()
        assert ops.pop_unassigned(heap, value) == 4
        assert ops.pop_unassigned(heap, value) is None

    def test_push_is_idempotent(self, ops):
        heap = ActivityHeap(3)
        ops.push_many(heap, [_code(2)])
        assert len(heap) == 3
        ops.pop(heap)
        ops.pop(heap)
        ops.pop(heap)
        assert len(heap) == 0
        ops.push_many(heap, [_code(2)])
        ops.push_many(heap, [_code(-2)])
        assert len(heap) == 1

    def test_grow_preserves_invariants(self, ops):
        heap = ActivityHeap(2)
        heap.bump(1, 7.0)
        heap.grow(6)
        heap.check_invariants()
        heap.grow(3)
        assert heap.num_vars == 6
        assert ops.pop(heap) == 1

    def test_push_many_accepts_literals(self, ops):
        heap = ActivityHeap(4)
        while ops.pop(heap) is not None:
            pass
        ops.push_many(heap, [_code(-3), _code(1), _code(-1), _code(4)])
        heap.check_invariants()
        assert len(heap) == 3
        assert 3 in heap and 1 in heap and 4 in heap and 2 not in heap

    def test_invariants_under_random_operations(self, ops):
        rng = np.random.default_rng(7)
        heap = ActivityHeap(12)
        popped: list[int] = []
        for _ in range(600):
            action = rng.integers(0, 4)
            if action == 0 and popped:
                ops.push_many(heap, [_code(popped.pop())])
            elif action == 1:
                variable = ops.pop(heap)
                if variable is not None:
                    popped.append(variable)
            elif action == 2:
                heap.bump(int(rng.integers(1, heap.num_vars + 1)), float(rng.random()))
            else:
                ops.push_many(heap, [_code(int(v)) for v in rng.integers(1, heap.num_vars + 1, 3)])
                popped = [v for v in popped if v not in heap]
            heap.check_invariants()

    def test_rescale_preserves_order(self, ops):
        heap = ActivityHeap(4)
        heap.bump(2, 8.0)
        heap.bump(3, 4.0)
        heap.rescale(1e-10)
        heap.check_invariants()
        assert ops.pop(heap) == 2
        assert heap.activity(2) == pytest.approx(8e-10)

    def test_clear_matches_draining_an_all_assigned_table(self, ops):
        rng = np.random.default_rng(5)
        drained, cleared = ActivityHeap(9), ActivityHeap(9)
        for _ in range(30):
            variable, bump = int(rng.integers(1, 10)), float(rng.random())
            drained.bump(variable, bump)
            cleared.bump(variable, bump)
        for _ in range(3):
            ops.pop(drained)
            ops.pop(cleared)
        # Every variable assigned, alternating polarities.
        value = [-1, -1] + [1, 0, 0, 1] * 4 + [1, 0]
        activities = [drained.activity(v) for v in range(10)]
        assert ops.pop_unassigned(drained, value) is None
        cleared.clear()
        for heap in (drained, cleared):
            assert len(heap) == 0
            assert list(heap._heap) == []
            assert list(heap._pos) == [-1] * 10
            assert [heap.activity(v) for v in range(10)] == activities
            heap.check_invariants()


class TestClauseForgetting:
    def _hard_solver(self, config: SolverConfig, monkeypatch) -> CdclSolver:
        """UNSAT pigeonhole instance with reduction checked on every call."""
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(5)] for _ in range(6)]
        for i in range(6):
            cnf.add_clause([var[i][j] for j in range(5)])
        for j in range(5):
            for i1 in range(6):
                for i2 in range(i1 + 1, 6):
                    cnf.add_clause([-var[i1][j], -var[i2][j]])
        solver = CdclSolver(cnf, config=config)
        original = CdclSolver._reduce_db
        reductions = []

        def checked_reduce(self):
            victims = original(self)
            reductions.append(victims)
            # The pinning contract: no reason clause of any assigned
            # variable may leave the database.
            alive = set(self._learned)
            for reason in self._reason:
                if reason >= 0 and self._arena[reason - 1] >= 0:
                    assert reason in alive, "reduction deleted a reason clause"
            return victims

        monkeypatch.setattr(CdclSolver, "_reduce_db", checked_reduce)
        solver._observed_reductions = reductions
        return solver

    def test_reduction_never_deletes_reason_clauses(self, monkeypatch):
        config = SolverConfig(
            restart_base=1, reduce_base=1, reduce_growth=0,
            reduce_fraction=1.0, glue_lbd=0,
        )
        solver = self._hard_solver(config, monkeypatch)
        assert not solver.solve().satisfiable
        assert sum(solver._observed_reductions) > 0
        assert solver.stats().deleted_clauses == sum(solver._observed_reductions)

    def test_reduction_keeps_answers_correct_under_assumptions(self, monkeypatch):
        config = SolverConfig(restart_base=1, reduce_base=1, reduce_growth=0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            cnf = random_cnf(rng, num_vars=8, num_clauses=30)
            solver = CdclSolver(cnf, config=config)
            assumption = int(rng.integers(1, 9))
            assumption = assumption if rng.random() < 0.5 else -assumption
            constrained = cnf.copy()
            constrained.add_clause([assumption])
            assert (
                solver.solve([assumption]).satisfiable
                == brute_force_satisfiable(constrained)
            )
            # The base formula must survive the assumption query unscathed.
            assert solver.solve().satisfiable == brute_force_satisfiable(cnf)

    def test_glue_and_binary_clauses_survive(self):
        config = SolverConfig(restart_base=1, reduce_base=1, reduce_growth=0)
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(4)] for _ in range(5)]
        for i in range(5):
            cnf.add_clause([var[i][j] for j in range(4)])
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    cnf.add_clause([-var[i1][j], -var[i2][j]])
        solver = CdclSolver(cnf, config=config)
        assert not solver.solve().satisfiable
        for index, clause in enumerate(solver._learned):
            assert solver._arena[clause - 1] == index
            # Whatever survived reduction is either pinned glue/binary or
            # above the forgetting threshold by construction of _reduce_db;
            # sanity-check the metadata is populated.
            assert solver._lbd[index] >= 1


class TestDifferentialFuzz:
    @pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=lambda c: (
        f"{c.restart_policy}-rb{c.reduce_base}"
        + ("-verify" if c.verify_models else "")
    ))
    def test_matches_truth_table_oracle(self, config):
        rng = np.random.default_rng(3)
        for _ in range(80):
            num_vars = int(rng.integers(2, 9))
            cnf = random_cnf(rng, num_vars, int(rng.integers(1, 28)))
            result = solve_cnf(cnf, config=config)
            assert result.satisfiable == brute_force_satisfiable(cnf)
            if result.satisfiable:
                for clause in cnf.clauses:
                    assert any(result.value(abs(lit)) == (lit > 0) for lit in clause)

    @pytest.mark.parametrize("config", FUZZ_CONFIGS[:2], ids=["luby", "geometric"])
    def test_incremental_queries_match_oracle(self, config):
        rng = np.random.default_rng(17)
        for _ in range(15):
            cnf = random_cnf(rng, num_vars=7, num_clauses=22)
            solver = CdclSolver(cnf, config=config)
            for _ in range(4):
                assumption = int(rng.integers(1, 8))
                assumption = assumption if rng.random() < 0.5 else -assumption
                constrained = cnf.copy()
                constrained.add_clause([assumption])
                assert (
                    solver.solve([assumption]).satisfiable
                    == brute_force_satisfiable(constrained)
                )

    def test_deterministic_models_for_fixed_input(self):
        rng = np.random.default_rng(23)
        cnf = random_cnf(rng, num_vars=8, num_clauses=20)
        first = solve_cnf(cnf)
        second = solve_cnf(cnf)
        assert first.satisfiable == second.satisfiable
        if first.satisfiable:
            assert first.model == second.model


class TestPublicSurface:
    def test_sat_module_exports(self):
        from repro.sat import heap, justify, solver, temporal, unroll

        for module, names in (
            (heap, ("ActivityHeap",)),
            (solver, ("CdclSolver", "SolverConfig", "SolverStats", "SolverResult",
                      "luby", "solve_cnf", "RESTART_POLICIES")),
            (justify, ("Justifier",)),
            (temporal, ("SequentialJustifier",)),
            (unroll, ("TimeFrameExpansion",)),
        ):
            for name in names:
                assert name in module.__all__
                assert getattr(module, name) is not None

    def test_justifier_accepts_config_and_reports_stats(self):
        from repro.circuits import generators
        from repro.sat.justify import Justifier

        netlist = generators.c17()
        config = SolverConfig(restart_policy="geometric")
        justifier = Justifier(netlist, config=config)
        assert justifier.config is config
        assert justifier.is_satisfiable({"22": 1})
        stats = justifier.stats()
        assert stats.propagations > 0

    def test_sequential_justifier_accepts_config_and_reports_stats(self):
        from repro.circuits import generators
        from repro.sat.temporal import SequentialJustifier
        from repro.trojan.model import SequentialTrigger, TriggerCondition

        netlist = generators.sequential_controller("sc", state_bits=3, data_width=4)
        config = SolverConfig(restart_policy="geometric")
        justifier = SequentialJustifier(netlist, cycles=3, config=config)
        assert justifier.config is config
        net = netlist.gates[0].output
        trigger = SequentialTrigger(
            condition=TriggerCondition(((net, 1),)), mode="consecutive", count=1
        )
        justifier.is_satisfiable(trigger)
        assert justifier.stats().propagations > 0

    def test_generate_sequences_emits_solver_stats(self):
        from repro.circuits import generators
        from repro.core.sequence_gen import generate_sequences
        from repro.simulation.rare_nets import extract_rare_nets

        netlist = generators.sequential_controller("sg", state_bits=3, data_width=4)
        rare = extract_rare_nets(
            netlist, threshold=0.2, num_patterns=256, seed=0, cycles=3
        )
        sequences = generate_sequences(
            netlist, rare, cycles=3, mode="consecutive", count=1,
            num_sequences=4, seed=1,
            solver_config=SolverConfig(restart_policy="geometric"),
        )
        stats = sequences.metadata["solver_stats"]
        assert stats["propagations"] > 0
        assert set(stats) == set(SolverStats().as_dict())
