"""SAT-guided sequence generation and the sharded SAT work satellites.

Covers the sequential pattern pipeline (pre-filter, greedy joint sets,
replay-verified witnesses, the ``sequential_detect`` acceptance property)
and the sharded counterparts of the serial SAT stages (activatability
pre-filter, per-set pattern witnesses, per-set sequence witnesses) with
their ``n_jobs=1`` fallback contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.library import load_benchmark
from repro.core.compatibility import compute_compatibility, is_activatable
from repro.core.patterns import SequenceSet, generate_patterns
from repro.core.sequence_gen import (
    analyze_sequential_compatibility,
    generate_sequences,
    greedy_compatible_sets,
    make_sequence_justifier,
    sequence_witness_with_repair,
)
from repro.runner.parallel import make_shards, sharded_map
from repro.sat.justify import Justifier
from repro.sat.temporal import replay_fire_cycles
from repro.simulation.logic_sim import simulate_pattern
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.evaluation import sequence_trigger_coverage
from repro.trojan.insertion import sample_sequential_trojans
from repro.trojan.model import SequentialTrigger, TriggerCondition

CYCLES = 4


@pytest.fixture(scope="module")
def controller():
    return load_benchmark("s13207_like", combinational_view=False)


@pytest.fixture(scope="module")
def state_rare(controller):
    return extract_rare_nets(
        controller, threshold=0.1, num_patterns=512, seed=0, cycles=CYCLES
    )


@pytest.fixture(scope="module")
def compatibility(controller, state_rare):
    return analyze_sequential_compatibility(
        controller, state_rare, CYCLES, mode="cumulative", count=2
    )


class TestSequentialCompatibility:
    def test_prefilter_partitions_rare_nets(self, compatibility, state_rare):
        assert compatibility.num_rare_nets > 0
        assert compatibility.unreachable, "state-dependent extraction should " \
            "produce provably-unreachable nets (that is the workload's point)"
        assert (
            len(compatibility.rare_nets) + len(compatibility.unreachable)
            == len(state_rare)
        )

    def test_unreachable_nets_really_are(self, compatibility):
        justifier = compatibility.justifier
        for rare in compatibility.unreachable[:5]:
            trigger = SequentialTrigger(
                condition=TriggerCondition(((rare.net, rare.rare_value),)),
                mode=compatibility.mode,
                count=compatibility.count,
            )
            assert not justifier.is_satisfiable(trigger, compatibility.cycles)

    def test_rejects_combinational(self):
        netlist = load_benchmark("c2670_like")
        with pytest.raises(ValueError, match="flip-flops"):
            analyze_sequential_compatibility(netlist, [], CYCLES)

    def test_greedy_sets_are_distinct_and_jointly_satisfiable(self, compatibility):
        sets = greedy_compatible_sets(compatibility, num_sets=6, seed=5)
        assert sets
        assert len({frozenset(indices) for indices in sets}) == len(sets)
        for indices in sets:
            assert compatibility.set_is_satisfiable(list(indices))

    def test_max_set_size_is_honoured(self, compatibility):
        sets = greedy_compatible_sets(compatibility, num_sets=3, seed=5, max_set_size=2)
        assert sets
        assert all(len(indices) <= 2 for indices in sets)

    def test_witness_with_repair_handles_unsatisfiable_supersets(self, compatibility):
        """A hand-built set mixing incompatible nets is repaired, not dropped."""
        justifier = compatibility.justifier
        ordered = compatibility.ordered_requirements(
            list(range(compatibility.num_rare_nets))
        )
        sequence, fire_cycle, realized = sequence_witness_with_repair(
            justifier, ordered, compatibility.mode, compatibility.count,
            compatibility.cycles,
        )
        assert sequence is not None
        assert 0 < realized <= len(ordered)
        assert fire_cycle >= 0


class TestGenerateSequences:
    def test_sequences_replay_and_beat_random_at_equal_budget(
        self, controller, state_rare
    ):
        """The PR's acceptance property on a tiny-profile cell."""
        mode, count, budget = "cumulative", 2, 16
        trojans = sample_sequential_trojans(
            controller, state_rare, num_trojans=12, trigger_width=3,
            mode=mode, count=count, seed=1,
        )
        guided = generate_sequences(
            controller, state_rare, CYCLES, mode=mode, count=count,
            num_sequences=budget, seed=3,
        )
        assert 0 < len(guided) <= budget
        # Every emitted witness replays: the full (unrepaired) set fires at
        # the claimed cycle on the compiled engine.
        for position, ordered in enumerate(guided.metadata["sets"]):
            if guided.metadata["set_sizes"][position] != len(ordered):
                continue  # repaired set: only a subset is guaranteed
            trigger = SequentialTrigger(
                condition=TriggerCondition(tuple(ordered)), mode=mode, count=count
            )
            fires = replay_fire_cycles(controller, trigger, guided.sequences[position])
            assert fires
            assert fires[0] == guided.metadata["fire_cycles"][position]
        random_sequences = SequenceSet.random(
            controller, num_sequences=budget, cycles=CYCLES, seed=2
        )
        sat_coverage = sequence_trigger_coverage(controller, trojans, guided)
        random_coverage = sequence_trigger_coverage(
            controller, trojans, random_sequences
        )
        assert sat_coverage.num_detected > random_coverage.num_detected

    def test_generation_is_deterministic(self, controller, state_rare):
        first = generate_sequences(
            controller, state_rare, CYCLES, mode="consecutive", count=2,
            num_sequences=4, seed=9,
        )
        second = generate_sequences(
            controller, state_rare, CYCLES, mode="consecutive", count=2,
            num_sequences=4, seed=9,
        )
        assert np.array_equal(first.sequences, second.sequences)
        assert first.metadata["sets"] == second.metadata["sets"]

    def test_empty_when_nothing_is_reachable(self):
        from repro.circuits.gates import GateType
        from repro.circuits.netlist import Netlist

        netlist = Netlist("unreach")
        netlist.add_input("x")
        netlist.add_gate("nx", GateType.NOT, ("x",))
        netlist.add_flip_flop("fa", "x")
        netlist.add_flip_flop("fb", "nx")
        netlist.add_gate("both", GateType.AND, ("fa", "fb"))
        netlist.add_output("both")
        rare = extract_rare_nets(
            netlist, threshold=0.1, num_patterns=256, seed=0, cycles=3
        )
        target = [item for item in rare if item.net == "both"]
        assert target, "the AND of complementary registers must be rare"
        produced = generate_sequences(netlist, target, 3, num_sequences=4, seed=0)
        assert len(produced) == 0
        assert produced.metadata["num_activatable"] == 0

    def test_sharded_sequence_witnesses_respect_initial_state(self):
        """Workers must unroll from the caller's state, not silently from reset."""
        from functools import partial

        from repro.circuits.gates import GateType
        from repro.circuits.netlist import Netlist

        netlist = Netlist("toy")
        netlist.add_input("a")
        netlist.add_flip_flop("q", "a")
        netlist.add_gate("mix", GateType.AND, ("a", "q"))
        netlist.add_output("mix")
        # consecutive-2 within 2 cycles needs mix at cycles 0 AND 1: possible
        # only when the machine starts with q=1, never from reset.
        ordered_sets = [(("mix", 1),), (("mix", 1),)]
        trigger = SequentialTrigger(
            condition=TriggerCondition((("mix", 1),)), mode="consecutive", count=2
        )
        witness = partial(
            sequence_witness_with_repair, mode="consecutive", count=2, cycles=2
        )

        def sharded(initial_state):
            return sharded_map(
                netlist,
                partial(make_sequence_justifier, cycles=2, initial_state=initial_state),
                witness, ordered_sets, n_jobs=2, label="sequence-shard",
            )

        seeded = sharded({"q": 1})
        for sequence, fire_cycle, realized in seeded:
            assert sequence is not None and realized == 1
            fires = replay_fire_cycles(
                netlist, trigger, sequence, initial_state={"q": 1}
            )
            assert fires and fires[0] == fire_cycle == 1
        from_reset = sharded(None)
        assert all(sequence is None for sequence, _, _ in from_reset)

    def test_sharded_generation_produces_valid_witnesses(self, controller, state_rare):
        guided = generate_sequences(
            controller, state_rare, CYCLES, mode="cumulative", count=2,
            num_sequences=6, seed=3, n_jobs=2,
        )
        assert len(guided) > 0
        for position, ordered in enumerate(guided.metadata["sets"]):
            if guided.metadata["set_sizes"][position] != len(ordered):
                continue
            trigger = SequentialTrigger(
                condition=TriggerCondition(tuple(ordered)),
                mode="cumulative", count=2,
            )
            fires = replay_fire_cycles(controller, trigger, guided.sequences[position])
            assert fires and fires[0] == guided.metadata["fire_cycles"][position]


@pytest.fixture(scope="module")
def combinational():
    return load_benchmark("c2670_like")


@pytest.fixture(scope="module")
def combinational_rare(combinational):
    return extract_rare_nets(combinational, threshold=0.1, num_patterns=1024, seed=0)


class TestItemShards:
    def test_shards_cover_every_item_exactly_once(self):
        shards = make_shards(range(23), 5, base_seed=11)
        items = [item for shard in shards for _, item in shard.items]
        assert sorted(items) == list(range(23))

    def test_seed_contract(self):
        shards = make_shards(range(10), 3, base_seed=100)
        for shard in shards:
            assert shard.seed == 100 + 7919 * shard.index

    def test_empty_and_invalid(self):
        assert make_shards([], 4) == []
        with pytest.raises(ValueError):
            make_shards(range(4), 0)


class TestShardedActivatability:
    def test_matches_serial_bit_for_bit(self, combinational, combinational_rare):
        requirements = [
            (rare.net, rare.rare_value) for rare in combinational_rare[:16]
        ]
        serial = sharded_map(
            combinational, Justifier, is_activatable, requirements, 1, label="inline"
        )
        sharded = sharded_map(
            combinational, Justifier, is_activatable, requirements, 2,
            label="activatability-shard",
        )
        assert serial == sharded

    def test_compatibility_prefilter_identical_across_job_counts(
        self, combinational, combinational_rare
    ):
        rare = combinational_rare[:12]
        serial = compute_compatibility(combinational, rare, n_jobs=1, cache=None)
        sharded = compute_compatibility(combinational, rare, n_jobs=2, cache=None)
        assert serial.rare_nets == sharded.rare_nets
        assert serial.unsatisfiable == sharded.unsatisfiable
        assert np.array_equal(serial.matrix, sharded.matrix)


class TestShardedPatternWitnesses:
    def test_sharded_witnesses_satisfy_their_sets(self, combinational, combinational_rare):
        analysis = compute_compatibility(
            combinational, combinational_rare[:12], n_jobs=1, cache=None
        )
        sets = [frozenset({index}) for index in range(min(6, analysis.num_rare_nets))]
        patterns = generate_patterns(analysis, sets, technique="test", n_jobs=2)
        assert len(patterns) == len(sets)
        for row, indices in zip(patterns.patterns, sets):
            assignment = dict(zip(patterns.sources, (int(bit) for bit in row)))
            simulated = simulate_pattern(analysis.netlist, assignment)
            for net, value in analysis.requirements(indices).items():
                assert simulated[net] == value

    def test_serial_path_is_unchanged_reference(self, combinational, combinational_rare):
        analysis = compute_compatibility(
            combinational, combinational_rare[:12], n_jobs=1, cache=None
        )
        sets = [frozenset({0}), frozenset({1, 2})]
        first = generate_patterns(analysis, sets, technique="test", n_jobs=1)
        # Witness bits may differ across solver states, but the serial path
        # on one analysis is deterministic call over call.
        analysis_again = compute_compatibility(
            combinational, combinational_rare[:12], n_jobs=1, cache=None
        )
        second = generate_patterns(analysis_again, sets, technique="test", n_jobs=1)
        assert np.array_equal(first.patterns, second.patterns)
        assert first.metadata["set_sizes"] == second.metadata["set_sizes"]
