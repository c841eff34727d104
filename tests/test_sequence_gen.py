"""SAT-guided sequence generation and per-set pattern witnesses.

Covers the sequential pattern pipeline (pre-filter, greedy joint sets,
replay-verified witnesses, the ``sequential_detect`` acceptance property)
and the combinational witness stage (every pattern simulates to its set).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.circuits.library import load_benchmark
from repro.core import sequence_gen
from repro.core.compatibility import compute_compatibility
from repro.core.patterns import SequenceSet, generate_patterns, pattern_witness_with_repair
from repro.core.sequence_gen import (
    analyze_sequential_compatibility,
    generate_sequences,
    greedy_compatible_sets,
    sequence_witness_with_repair,
)
from repro.obs.trace import build_tree, load_spans
from repro.sat.justify import Justifier
from repro.sat.temporal import replay_fire_cycles
from repro.simulation.logic_sim import simulate_pattern
from repro.simulation.rare_nets import RareNet, extract_rare_nets
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


def _register_and():
    """``mix = a AND q`` with ``q`` the registered ``a``: a consecutive-2
    trigger on ``mix`` within 2 cycles needs ``mix`` at cycles 0 and 1, which
    only a machine that starts with ``q = 1`` can reach."""
    from repro.circuits.gates import GateType
    from repro.circuits.netlist import Netlist

    netlist = Netlist("toy")
    netlist.add_input("a")
    netlist.add_flip_flop("q", "a")
    netlist.add_gate("mix", GateType.AND, ("a", "q"))
    netlist.add_output("mix")
    return netlist


def _consecutive_mix():
    return SequentialTrigger(
        condition=TriggerCondition((("mix", 1),)), mode="consecutive", count=2
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

    def test_prefilter_matches_a_fresh_solver_per_net(self, controller, state_rare):
        """The pre-filter answers every net on one unrolled solver; each
        verdict must be what a fresh solver says about that net alone."""
        from repro.sat.temporal import SequentialJustifier

        analysed = analyze_sequential_compatibility(
            controller, state_rare, CYCLES, mode="cumulative", count=2
        )
        reachable = []
        for rare in sorted(state_rare, key=lambda rare: (rare.probability, rare.net)):
            trigger = SequentialTrigger(
                condition=TriggerCondition(((rare.net, rare.rare_value),)),
                mode="cumulative", count=2,
            )
            if SequentialJustifier(controller, CYCLES).is_satisfiable(trigger, CYCLES):
                reachable.append(rare)
        assert analysed.rare_nets == reachable
        assert len(analysed.rare_nets) + len(analysed.unreachable) == len(state_rare)

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

    def test_a_lower_stall_limit_stops_the_same_search_earlier(
        self, compatibility, monkeypatch
    ):
        """Far more sets than exist are asked for, so only the stall limit ends
        the search; the passes are seeded, so a lower limit yields a prefix."""
        full = greedy_compatible_sets(compatibility, num_sets=10_000, seed=5)
        monkeypatch.setattr(sequence_gen, "STALL_LIMIT", 1)
        short = greedy_compatible_sets(compatibility, num_sets=10_000, seed=5)
        assert 0 < len(short) < len(full)
        assert full[: len(short)] == short

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

    def test_repair_keeps_the_greedy_prefix_of_a_hand_built_set(self):
        from repro.circuits.gates import GateType
        from repro.circuits.netlist import Netlist
        from repro.sat.temporal import SequentialJustifier

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
        # mix=1 needs q=1 and nq=1 needs q=0 in the same cycle, so the set
        # is repaired down to (mix, hold).
        ordered = (("mix", 1), ("hold", 1), ("nq", 1))
        sequence, fire_cycle, realized = sequence_witness_with_repair(
            SequentialJustifier(netlist, 3), ordered, "consecutive", 1, 3
        )
        assert realized == 2
        kept = SequentialTrigger(TriggerCondition(ordered[:2]), "consecutive", 1)
        assert fire_cycle in replay_fire_cycles(netlist, kept, sequence)


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

    def test_traced_generation_spans_its_three_phases(
        self, controller, state_rare, tmp_path
    ):
        obs.configure(tmp_path, export_env=False)
        try:
            generate_sequences(
                controller, state_rare, CYCLES, mode="consecutive", count=2,
                num_sequences=4, seed=9,
            )
            obs.flush()
        finally:
            obs.disable()
        spans = load_spans(tmp_path)
        (parent,) = [record for record in spans if record["name"] == "solver.sequence_gen"]
        _, children = build_tree(spans)
        phases = children[parent["span_id"]]
        assert [record["name"] for record in phases] == [
            "sequence_gen.activatability",
            "sequence_gen.greedy_sets",
            "sequence_gen.witness",
        ]
        assert sum(record["dur_s"] for record in phases) <= parent["dur_s"]

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

    def test_generation_produces_valid_witnesses(self, controller, state_rare):
        guided = generate_sequences(
            controller, state_rare, CYCLES, mode="cumulative", count=2,
            num_sequences=6, seed=3,
        )
        assert len(guided) > 0
        for position, ordered in enumerate(guided.metadata["sets"]):
            trigger = SequentialTrigger(
                condition=TriggerCondition(tuple(ordered)),
                mode="cumulative", count=2,
            )
            fires = replay_fire_cycles(controller, trigger, guided.sequences[position])
            assert fires and fires[0] == guided.metadata["fire_cycles"][position]

    def test_witness_unrolls_from_the_justifiers_initial_state(self):
        """A justifier built on a non-reset state witnesses from that state."""
        from repro.sat.temporal import SequentialJustifier

        netlist = _register_and()
        ordered = (("mix", 1),)
        sequence, fire_cycle, realized = sequence_witness_with_repair(
            SequentialJustifier(netlist, 2, initial_state={"q": 1}),
            ordered, "consecutive", 2, 2,
        )
        assert sequence is not None and realized == 1
        fires = replay_fire_cycles(
            netlist, _consecutive_mix(), sequence, initial_state={"q": 1}
        )
        assert fires and fires[0] == fire_cycle == 1
        from_reset = sequence_witness_with_repair(
            SequentialJustifier(netlist, 2), ordered, "consecutive", 2, 2
        )
        assert from_reset == (None, -1, 0)

    def test_generation_on_a_seeded_justifier_replays_from_its_state(self):
        from repro.sat.temporal import SequentialJustifier

        netlist = _register_and()
        rare = [RareNet("mix", 1, 0.05)]
        seeded = generate_sequences(
            netlist, rare, 2, mode="consecutive", count=2, num_sequences=2, seed=0,
            justifier=SequentialJustifier(netlist, 2, initial_state={"q": 1}),
        )
        assert len(seeded) == 1
        assert seeded.metadata["set_sizes"] == [1]
        fires = replay_fire_cycles(
            netlist, _consecutive_mix(), seeded.sequences[0], initial_state={"q": 1}
        )
        assert fires and fires[0] == seeded.metadata["fire_cycles"][0] == 1
        from_reset = generate_sequences(
            netlist, rare, 2, mode="consecutive", count=2, num_sequences=2, seed=0
        )
        assert len(from_reset) == 0
        assert from_reset.metadata["num_activatable"] == 0

    @pytest.mark.parametrize("mode", ["consecutive", "cumulative"])
    def test_every_emitted_set_is_realised_in_full(self, controller, state_rare, mode):
        """Every greedy set is proven SAT before it is chosen, and the same
        solver answers the witnesses, so the pipeline never reaches the
        repair branch of ``sequence_witness_with_repair``."""
        guided = generate_sequences(
            controller, state_rare, CYCLES, mode=mode, count=2,
            num_sequences=16, seed=3,
        )
        assert len(guided) > 0
        sets, sizes = guided.metadata["sets"], guided.metadata["set_sizes"]
        assert len(sets) == len(sizes) == len(guided)
        for ordered, realized in zip(sets, sizes):
            assert realized == len(ordered)


@pytest.fixture(scope="module")
def combinational():
    return load_benchmark("c2670_like")


@pytest.fixture(scope="module")
def combinational_rare(combinational):
    return extract_rare_nets(combinational, threshold=0.1, num_patterns=1024, seed=0)


class TestPatternWitnesses:
    def test_witnesses_satisfy_their_sets(
        self, combinational, combinational_rare, default_cache
    ):
        default_cache(None)
        analysis = compute_compatibility(combinational, combinational_rare[:12])
        sets = [frozenset({index}) for index in range(min(6, analysis.num_rare_nets))]
        patterns = generate_patterns(analysis, sets, technique="test")
        assert len(patterns) == len(sets)
        for row, indices in zip(patterns.patterns, sets):
            assignment = dict(zip(patterns.sources, (int(bit) for bit in row)))
            simulated = simulate_pattern(analysis.netlist, assignment)
            for net, value in analysis.requirements(indices).items():
                assert simulated[net] == value

    def test_serial_path_is_unchanged_reference(
        self, combinational, combinational_rare, default_cache
    ):
        default_cache(None)
        analysis = compute_compatibility(combinational, combinational_rare[:12])
        sets = [frozenset({0}), frozenset({1, 2})]
        first = generate_patterns(analysis, sets, technique="test")
        # Witness bits may differ across solver states, but generation on
        # one analysis is deterministic call over call.
        analysis_again = compute_compatibility(combinational, combinational_rare[:12])
        second = generate_patterns(analysis_again, sets, technique="test")
        assert np.array_equal(first.patterns, second.patterns)
        assert first.metadata["set_sizes"] == second.metadata["set_sizes"]

    def test_repair_keeps_the_rarest_first_subset_of_a_hand_built_set(self):
        netlist = load_benchmark("c17")
        # 10 = NAND(1, 3) is 0 only when input 1 is 1, so 1=0 is dropped;
        # 16=0 needs 2=1 and 11=1, which 6=0 gives alongside 10=0.
        rare_set = (
            RareNet("1", 0, 0.3), RareNet("10", 0, 0.1), RareNet("16", 0, 0.2)
        )
        witness, realized = pattern_witness_with_repair(Justifier(netlist), rare_set)
        assert realized == 2
        simulated = simulate_pattern(netlist, witness)
        assert simulated["10"] == 0 and simulated["16"] == 0
