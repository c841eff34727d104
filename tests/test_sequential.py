"""The sequential workload family: engine, rare nets, Trojans, harness.

Differential coverage for everything the multi-cycle path adds:

- :class:`CompiledSequentialNetlist` must match the naive cycle loop
  (``oracles.simulate_sequences`` on the per-gate reference interpreter)
  bit-for-bit, for any sequence set and any initial state;
- batched multi-cycle trigger coverage must return exactly the verdicts of
  physically inserting each Trojan's shift-register/counter hardware and
  clocking the infected netlist against the golden response;
- the ``sequential`` harness must be deterministic across worker counts and
  fully served by the artifact cache on a second run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.gates import GateType
from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.circuits.scan import sequential_interface
from repro.core.patterns import SequenceSet
from repro.simulation.compiled import (
    CompiledSequentialNetlist,
    compile_sequential_netlist,
    unpack_matrix,
)
from repro.simulation.probability import estimate_sequential_signal_probabilities
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.evaluation import sequence_trigger_coverage
from repro.trojan.insertion import insert_sequential_trojan, sample_sequential_trojans
from repro.trojan.model import SequentialTrigger, SequentialTrojan, TriggerCondition

from oracles import reference_patterns, sequence_ground_truth_coverage, simulate_sequences


@pytest.fixture(scope="module")
def controller():
    """The smallest sequential library benchmark, flip-flops intact."""
    return load_benchmark("s13207_like", combinational_view=False)


def toy_netlist() -> Netlist:
    """input a -> DFF q; obs = (a AND q) OR b: needs two cycles of a=1."""
    netlist = Netlist("toy")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_flip_flop("q", "a")
    netlist.add_gate("mix", GateType.AND, ("a", "q"))
    netlist.add_gate("obs", GateType.OR, ("mix", "b"))
    netlist.add_output("obs")
    return netlist


def toy_sequence(bits: list[int]) -> SequenceSet:
    """One sequence driving input ``a`` with ``bits`` and ``b`` with zeros."""
    array = np.zeros((1, len(bits), 2), dtype=np.uint8)
    array[0, :, 0] = bits
    return SequenceSet(inputs=("a", "b"), sequences=array)


def a_trigger(mode: str, count: int) -> SequentialTrojan:
    """A Trojan whose per-cycle condition is simply ``a == 1``."""
    return SequentialTrojan(
        trigger=SequentialTrigger(
            condition=TriggerCondition((("a", 1),)), mode=mode, count=count
        ),
        payload_output="obs",
        name=f"{mode}{count}",
    )


class TestSequentialInterface:
    def test_interface_of_library_benchmark(self, controller):
        interface = sequential_interface(controller)
        assert interface.inputs == controller.inputs
        assert interface.num_state_bits == len(controller.flip_flops)
        assert interface.state == tuple(ff.q for ff in controller.flip_flops)
        assert interface.next_state == tuple(ff.d for ff in controller.flip_flops)
        reset = interface.reset_assignment()
        assert set(reset) == set(interface.state)
        assert set(reset.values()) == {0}

    def test_rejects_combinational(self):
        from repro.circuits import generators

        with pytest.raises(ValueError, match="no flip-flops"):
            sequential_interface(generators.c17())


class TestCompiledSequentialNetlist:
    def test_rejects_combinational(self):
        from repro.circuits import generators

        with pytest.raises(ValueError, match="requires a sequential netlist"):
            CompiledSequentialNetlist(generators.c17())

    def test_toggle_flip_flop_known_answer(self):
        # q' = NOT q from reset: q = 0, 1, 0, 1, ... regardless of inputs.
        netlist = Netlist("toggle")
        netlist.add_input("i")
        netlist.add_gate("n", GateType.NOT, ("q",))
        netlist.add_flip_flop("q", "n")
        netlist.add_gate("o", GateType.BUF, ("q",))
        netlist.add_output("o")
        compiled = compile_sequential_netlist(netlist)
        sequences = np.zeros((3, 6, 1), dtype=np.uint8)
        tensor, num_sequences = compiled.run_sequences(sequences)
        row = compiled.index_of("q")
        bits = np.stack(
            [unpack_matrix(tensor[t, row][None, :], num_sequences)[0] for t in range(6)]
        )
        expected = np.array([[0, 1, 0, 1, 0, 1]] * 3, dtype=np.uint8).T
        assert np.array_equal(bits, expected)

    def test_memoised_on_the_netlist(self, controller):
        assert compile_sequential_netlist(controller) is compile_sequential_netlist(
            controller
        )

    @pytest.mark.parametrize("with_initial_state", [False, True])
    def test_differential_vs_reference_cycle_loop(self, controller, with_initial_state):
        """Compiled multi-cycle engine == naive loop on the per-gate interpreter."""
        compiled = compile_sequential_netlist(controller)
        rng = np.random.default_rng(99)
        cycles = 4
        sequences = rng.integers(0, 2, size=(70, cycles, compiled.num_inputs), dtype=np.uint8)
        initial = None
        if with_initial_state:
            initial = rng.integers(
                0, 2, size=(70, compiled.num_state_bits), dtype=np.uint8
            )
        tensor, num_sequences = compiled.run_sequences(sequences, initial_state=initial)
        reference = simulate_sequences(
            controller, sequences, initial_state=initial, simulate=reference_patterns
        )
        assert set(reference) == set(compiled.net_names)
        for index, net in enumerate(compiled.net_names):
            bits = np.stack(
                [
                    unpack_matrix(tensor[t, index][None, :], num_sequences)[0]
                    for t in range(cycles)
                ]
            )
            assert np.array_equal(bits, reference[net]), f"net {net} diverges"

    def test_count_ones_per_cycle_matches_explicit_simulation(self):
        netlist = toy_netlist()
        compiled = compile_sequential_netlist(netlist)
        counts = compiled.count_ones_per_cycle(130, 3, seed=5)
        assert counts.shape == (3, compiled.num_nets)
        assert counts.min() >= 0 and counts.max() <= 130
        # Deterministic under the seed.
        assert np.array_equal(counts, compiled.count_ones_per_cycle(130, 3, seed=5))

    def test_shape_validation(self, controller):
        compiled = compile_sequential_netlist(controller)
        with pytest.raises(ValueError, match="sequences must have shape"):
            compiled.run_sequences(np.zeros((4, compiled.num_inputs), dtype=np.uint8))
        with pytest.raises(ValueError, match="at least one clock cycle"):
            compiled.run_sequences(
                np.zeros((2, 0, compiled.num_inputs), dtype=np.uint8)
            )
        with pytest.raises(ValueError, match="initial state"):
            compiled.run_sequences(
                np.zeros((2, 3, compiled.num_inputs), dtype=np.uint8),
                initial_state=np.zeros((1, compiled.num_state_bits), dtype=np.uint8),
            )


class TestStateDependentRareNets:
    def test_requires_sequential_netlist(self):
        from repro.circuits import generators

        with pytest.raises(ValueError, match="requires a sequential netlist"):
            extract_rare_nets(generators.c17(), cycles=4, num_patterns=64)

    def test_probabilities_aggregate_cycles(self):
        # Toggle FF: q is 0 on even cycles, 1 on odd -> P(q=1) == 0.5 over an
        # even horizon, while "n" (NOT q) mirrors it exactly.
        netlist = Netlist("toggle")
        netlist.add_input("i")
        netlist.add_gate("n", GateType.NOT, ("q",))
        netlist.add_flip_flop("q", "n")
        netlist.add_gate("o", GateType.BUF, ("q",))
        netlist.add_output("o")
        probabilities = estimate_sequential_signal_probabilities(
            netlist, cycles=4, num_sequences=64, seed=0
        )
        assert probabilities["q"] == 0.5
        assert probabilities["n"] == 0.5

    def test_state_bits_can_be_rare(self, controller):
        rare = extract_rare_nets(
            controller, threshold=0.1, num_patterns=256, seed=0, cycles=6
        )
        assert rare, "controller should have state-dependent rare nets"
        names = {item.net for item in rare}
        assert names.isdisjoint(set(controller.inputs))
        state_nets = {ff.q for ff in controller.flip_flops}
        assert names & state_nets, "state bits should be eligible rare nets"
        # Deterministic under the seed.
        again = extract_rare_nets(
            controller, threshold=0.1, num_patterns=256, seed=0, cycles=6
        )
        assert rare == again


class TestSequentialTrojanModel:
    def test_mode_and_count_validation(self):
        condition = TriggerCondition((("a", 1),))
        with pytest.raises(ValueError, match="mode must be one of"):
            SequentialTrigger(condition=condition, mode="sometimes", count=2)
        with pytest.raises(ValueError, match="count must be >= 1"):
            SequentialTrigger(condition=condition, mode="consecutive", count=0)

    def test_insertion_adds_temporal_state(self):
        netlist = toy_netlist()
        base_ffs = len(netlist.flip_flops)
        for mode in ("consecutive", "cumulative"):
            for count in (1, 2, 4):
                infected = insert_sequential_trojan(netlist, a_trigger(mode, count))
                assert len(infected.flip_flops) == base_ffs + count - 1, (mode, count)
                assert infected.outputs == netlist.outputs

    def test_insertion_rejects_non_gate_payload(self):
        netlist = toy_netlist()
        trojan = SequentialTrojan(
            trigger=SequentialTrigger(TriggerCondition((("a", 1),)), "consecutive", 2),
            payload_output="a",
        )
        with pytest.raises(ValueError, match="gate-driven"):
            insert_sequential_trojan(netlist, trojan)


class TestTemporalSemantics:
    """Hand-crafted sequences pin down consecutive vs cumulative meaning."""

    #: (input bits for a, mode, count, expected detection)
    CASES = [
        ([1, 0, 1, 0, 1], "consecutive", 2, False),  # never two in a row
        ([1, 0, 1, 0, 1], "cumulative", 3, True),    # three activations total
        ([1, 0, 1, 0, 1], "cumulative", 4, False),
        ([1, 1, 0, 0, 0], "consecutive", 2, True),   # streak of two
        ([1, 1, 0, 0, 0], "consecutive", 3, False),
        ([1, 1, 1, 0, 0], "consecutive", 3, True),
        ([0, 0, 0, 0, 1], "cumulative", 1, True),    # single-cycle degenerate
    ]

    @pytest.mark.parametrize("bits,mode,count,expected", CASES)
    def test_batched_and_hardware_agree_on_crafted_sequences(
        self, bits, mode, count, expected
    ):
        netlist = toy_netlist()
        trojan = a_trigger(mode, count)
        workload = toy_sequence(bits)
        batched = sequence_trigger_coverage(netlist, [trojan], workload)
        hardware = sequence_ground_truth_coverage(netlist, [trojan], workload)
        assert batched.detected == [expected]
        assert hardware.detected == [expected]


class TestSequenceCoverageParity:
    @pytest.mark.parametrize("mode", ["consecutive", "cumulative"])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_batched_matches_ground_truth_on_library_benchmark(
        self, controller, mode, count
    ):
        # Threshold 0.45 keeps the trigger conditions common enough that a
        # random workload actually fires them, exercising the accumulators.
        rare = extract_rare_nets(
            controller, threshold=0.45, num_patterns=256, seed=3, cycles=5
        )
        trojans = sample_sequential_trojans(
            controller, rare, num_trojans=8, trigger_width=2,
            mode=mode, count=count, seed=11,
        )
        assert trojans, "sampling should find valid triggers at threshold 0.45"
        workload = SequenceSet.random(controller, num_sequences=60, cycles=5, seed=17)
        batched = sequence_trigger_coverage(controller, trojans, workload)
        ground_truth = sequence_ground_truth_coverage(controller, trojans, workload)
        assert batched.detected == ground_truth.detected
        assert batched.num_detected == ground_truth.num_detected
        if count == 1:
            assert batched.num_detected > 0, "k=1 triggers should fire at θ=0.45"

    def test_sampling_is_deterministic_and_validated(self, controller):
        rare = extract_rare_nets(
            controller, threshold=0.2, num_patterns=256, seed=0, cycles=4
        )
        first = sample_sequential_trojans(
            controller, rare, num_trojans=6, trigger_width=3,
            mode="cumulative", count=2, seed=5,
        )
        second = sample_sequential_trojans(
            controller, rare, num_trojans=6, trigger_width=3,
            mode="cumulative", count=2, seed=5,
        )
        assert first == second
        for trojan in first:
            assert trojan.trigger.mode == "cumulative"
            assert trojan.trigger.count == 2
            assert trojan.width == 3

    def test_sampling_rejects_combinational(self):
        from repro.circuits import generators

        with pytest.raises(ValueError, match="requires flip-flops"):
            sample_sequential_trojans(generators.c17(), [], num_trojans=1)

    def test_input_order_mismatch_rejected(self, controller):
        workload = SequenceSet(
            inputs=tuple(reversed(load_benchmark("s13207_like",
                                                 combinational_view=False).inputs)),
            sequences=np.zeros((1, 2, len(controller.inputs)), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="input ordering"):
            sequence_trigger_coverage(controller, [], workload)

    def test_empty_workload_and_population(self, controller):
        empty = SequenceSet(
            inputs=controller.inputs,
            sequences=np.zeros((0, 3, len(controller.inputs)), dtype=np.uint8),
        )
        result = sequence_trigger_coverage(controller, [], empty)
        assert result.num_trojans == 0
        assert result.num_detected == 0
        assert result.coverage == 0.0
