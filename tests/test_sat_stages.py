"""The four SAT stages answer each item the same on one shared solver.

The activatability pre-filter, the pair queries, the pattern witnesses and
the sequence witnesses each loop over their items on the caller's own
incremental solver, which keeps learned clauses and phases from one query
to the next.  These tests pin that the state a query leaves behind never
changes a later answer: exact verdicts equal those of a fresh solver per
item (in any query order), and every witness checks out by simulation or
replay and realises as many requirements as a fresh solver's.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.gates import GateType
from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.core.compatibility import compute_compatibility, is_activatable, pair_is_compatible
from repro.core.patterns import pattern_witness_with_repair
from repro.core.sequence_gen import sequence_witness_with_repair
from repro.sat.justify import Justifier
from repro.sat.temporal import SequentialJustifier, replay_fire_cycles
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.model import SequentialTrigger, TriggerCondition

from oracles import simulate_pattern


def _c17_rare():
    netlist = load_benchmark("c17")
    rare = extract_rare_nets(netlist, threshold=0.5, num_patterns=64, seed=0)
    assert len(rare) >= 3, "c17 must expose a few rare nets at 0.5"
    return netlist, rare


def _activatability_stage():
    netlist, rare = _c17_rare()
    return netlist, Justifier, is_activatable, [(r.net, r.rare_value) for r in rare], None


def _pair_stage():
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
    witness, realized = result
    assert realized == expected[1] >= 1
    simulated = simulate_pattern(netlist, witness)
    held = sum(simulated[rare.net] == rare.rare_value for rare in rare_set)
    assert held >= realized


def _pattern_stage():
    netlist, rare = _c17_rare()
    # Singletons, every pair, and the whole list (repaired when unsatisfiable).
    sets = [(r,) for r in rare] + [
        (rare[i], rare[j]) for i in range(len(rare)) for j in range(i + 1, len(rare))
    ] + [tuple(rare)]
    return netlist, Justifier, pattern_witness_with_repair, sets, _check_pattern


def _check_sequence(netlist, ordered, expected, result):
    """Replay: at the fire cycle at least the realised count of nets hold."""
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


def _toy_sequential():
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
    return netlist


def _sequence_stage():
    netlist = _toy_sequential()
    # mix=1 needs q=1, so the last set is repaired down to (mix, hold).
    sets = [
        (("mix", 1),), (("hold", 1),), (("mix", 1), ("hold", 1)),
        (("mix", 1), ("hold", 1), ("nq", 1)),
    ]
    return (
        netlist,
        partial(SequentialJustifier, cycles=3),
        partial(sequence_witness_with_repair, mode="consecutive", count=1, cycles=3),
        sets,
        _check_sequence,
    )


class TestOneSolverPerStage:
    @pytest.mark.parametrize(
        "stage",
        [_activatability_stage, _pair_stage, _pattern_stage, _sequence_stage],
        ids=["activatability", "pairs", "pattern-witness", "sequence-witness"],
    )
    def test_shared_solver_matches_a_fresh_solver_per_item(self, stage):
        netlist, make_justifier, fn, items, check = stage()
        fresh = [fn(make_justifier(netlist), item) for item in items]
        shared_justifier = make_justifier(netlist)
        shared = [fn(shared_justifier, item) for item in items]
        assert len(shared) == len(fresh) == len(items)
        if check is None:
            assert shared == fresh
        else:
            for item, expected, result in zip(items, fresh, shared):
                check(netlist, item, expected, result)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_verdicts_do_not_depend_on_query_order(self, c17, data):
        nets = [gate.output for gate in c17.topological_gates()]
        requirements = [(net, value) for net in nets for value in (0, 1)]
        pairs = [
            (requirements[k], requirements[(3 * k + 1) % len(requirements)])
            for k in range(len(requirements))
        ]
        for fn, items in ((is_activatable, requirements), (pair_is_compatible, pairs)):
            reference = [fn(Justifier(c17), item) for item in items]
            order = data.draw(st.permutations(range(len(items))))
            justifier = Justifier(c17)
            permuted = {index: fn(justifier, items[index]) for index in order}
            assert [permuted[index] for index in range(len(items))] == reference


@pytest.fixture(scope="module")
def combinational():
    return load_benchmark("c2670_like")


@pytest.fixture(scope="module")
def combinational_rare(combinational):
    return extract_rare_nets(combinational, threshold=0.1, num_patterns=1024, seed=0)[:16]


class TestComputeCompatibility:
    def test_prefilter_keeps_exactly_the_activatable_nets_in_order(self, default_cache):
        # This design has both activatable and unactivatable rare values,
        # so the pre-filter keeps some nets and drops others.
        default_cache(None)
        netlist = load_benchmark("s13207_like")
        rare_nets = extract_rare_nets(netlist, threshold=0.1, num_patterns=1024, seed=0)[:40]
        analysis = compute_compatibility(netlist, rare_nets)
        verdicts = [
            is_activatable(Justifier(netlist), (rare.net, rare.rare_value))
            for rare in rare_nets
        ]
        assert any(verdicts) and not all(verdicts)
        assert analysis.rare_nets == [rare for rare, ok in zip(rare_nets, verdicts) if ok]
        assert analysis.unsatisfiable == [
            rare for rare, ok in zip(rare_nets, verdicts) if not ok
        ]

    def test_matrix_matches_pair_queries_on_one_fresh_solver(
        self, combinational, combinational_rare, default_cache
    ):
        default_cache(None)
        analysis = compute_compatibility(combinational, combinational_rare)
        matrix = analysis.matrix
        assert matrix.dtype == np.bool_
        assert matrix.shape == (analysis.num_rare_nets,) * 2
        assert matrix.diagonal().all()
        assert np.array_equal(matrix, matrix.T)
        reference = Justifier(combinational)
        requirements = [(rare.net, rare.rare_value) for rare in analysis.rare_nets]
        # Query the upper triangle in reverse, unlike the stage.
        for i in reversed(range(len(requirements))):
            for j in reversed(range(i + 1, len(requirements))):
                verdict = pair_is_compatible(reference, (requirements[i], requirements[j]))
                assert matrix[i, j] == verdict, (i, j)
