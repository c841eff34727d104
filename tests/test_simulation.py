"""Tests for the bit-parallel simulator, probabilities, rare nets, and SCOAP."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import generators
from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.simulation.compiled import compile_netlist, pack_patterns, unpack_matrix
from repro.simulation.probability import estimate_signal_probabilities
from repro.simulation.rare_nets import RareNet, extract_rare_nets
from repro.simulation.testability import scoap_testability

from oracles import evaluate_gate, run_patterns, simulate_pattern


def reference_simulate(netlist, assignment):
    """Scalar reference simulator used to cross-check the bit-parallel one."""
    values = dict(assignment)
    for gate in netlist.topological_gates():
        values[gate.output] = evaluate_gate(gate.gate_type, [values[n] for n in gate.inputs])
    return values


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        patterns = rng.integers(0, 2, size=(130, 7), dtype=np.uint8)
        packed, count = pack_patterns(patterns)
        assert count == 130
        assert packed.shape == (7, 3)
        assert np.array_equal(unpack_matrix(packed, count), patterns.T)

    def test_pack_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            pack_patterns(np.zeros(5, dtype=np.uint8))


class TestCompiledAgainstScalarReference:
    def test_pattern_width_checked(self, c17):
        with pytest.raises(ValueError, match="width"):
            compile_netlist(c17).run_patterns(np.zeros((1, 3), dtype=np.uint8))

    def test_c17_exhaustive_against_reference(self, c17):
        sources = c17.combinational_sources()
        patterns = np.array(list(itertools.product([0, 1], repeat=5)), dtype=np.uint8)
        values = run_patterns(c17, patterns)
        for index, pattern in enumerate(patterns):
            reference = reference_simulate(c17, dict(zip(sources, pattern)))
            for net in ("22", "23", "10", "16"):
                assert values[net][index] == reference[net]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=120))
    def test_random_circuits_match_reference(self, seed, num_patterns):
        netlist = generators.random_logic_circuit(
            "h", num_inputs=6, num_gates=30, num_outputs=4, seed=seed % 50
        )
        sources = netlist.combinational_sources()
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(num_patterns, len(sources)), dtype=np.uint8)
        values = run_patterns(netlist, patterns)
        check_index = int(rng.integers(num_patterns))
        reference = reference_simulate(netlist, dict(zip(sources, patterns[check_index])))
        for net in netlist.outputs:
            assert values[net][check_index] == reference[net]

    def test_count_ones_is_bounded_per_net(self, small_multiplier):
        compiled = compile_netlist(small_multiplier)
        counts = compiled.count_ones(512, seed=7)
        assert set(compiled.net_names) >= set(small_multiplier.outputs)
        assert counts.shape == (compiled.num_nets,)
        assert ((0 <= counts) & (counts <= 512)).all()

    def test_simulate_pattern_requires_all_sources(self, c17):
        with pytest.raises(KeyError):
            simulate_pattern(c17, {"1": 0})

    def test_simulate_pattern_matches_reference(self, c17):
        assignment = {"1": 1, "2": 0, "3": 1, "6": 0, "7": 1}
        result = simulate_pattern(c17, assignment)
        reference = reference_simulate(c17, assignment)
        assert result == reference


class TestProbabilities:
    def test_monte_carlo_close_to_exact_on_tree(self):
        netlist = Netlist("tree2")
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_gate("ab", GateType.AND, ("a", "b"))
        netlist.add_gate("y", GateType.NOR, ("ab", "c"))
        netlist.add_output("y")
        estimated = estimate_signal_probabilities(netlist, num_patterns=8192, seed=0)
        # Fan-out free: P(y) = P(ab = 0) * P(c = 0) = (1 - 1/4) * (1/2).
        assert estimated["ab"] == pytest.approx(0.25, abs=0.03)
        assert estimated["y"] == pytest.approx(0.375, abs=0.03)

    def test_estimate_rejects_sequential_netlist(self):
        sequential = generators.sequential_controller("s", state_bits=3, data_width=4)
        with pytest.raises(ValueError, match="full-scan"):
            estimate_signal_probabilities(sequential, num_patterns=64)

    def test_estimate_rejects_nonpositive_samples(self, c17):
        with pytest.raises(ValueError):
            estimate_signal_probabilities(c17, num_patterns=0)

    def test_probabilities_in_unit_interval(self, small_multiplier):
        probabilities = estimate_signal_probabilities(small_multiplier, 1024, seed=3)
        assert all(0.0 <= p <= 1.0 for p in probabilities.values())


class TestRareNets:
    def test_rare_net_validation(self):
        with pytest.raises(ValueError):
            RareNet(net="x", rare_value=2, probability=0.05)
        with pytest.raises(ValueError):
            RareNet(net="x", rare_value=1, probability=1.5)

    def test_threshold_validated(self, c17):
        with pytest.raises(ValueError):
            extract_rare_nets(c17, threshold=0.0)

    def test_rare_nets_sorted_by_probability(self, small_multiplier, multiplier_rare_nets):
        probabilities = [item.probability for item in multiplier_rare_nets]
        assert probabilities == sorted(probabilities)

    def test_rare_nets_exclude_inputs_by_default(self, small_multiplier, multiplier_rare_nets):
        sources = set(small_multiplier.combinational_sources())
        assert not sources & {item.net for item in multiplier_rare_nets}

    def test_higher_threshold_never_reduces_rare_nets(self, small_multiplier):
        low = extract_rare_nets(small_multiplier, threshold=0.08, num_patterns=2048, seed=1)
        high = extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=2048, seed=1)
        assert {item.net for item in low} <= {item.net for item in high}

    def test_deep_and_chain_is_rare(self):
        netlist = Netlist("chain")
        inputs = [netlist.add_input(f"i{k}") for k in range(6)]
        netlist.add_gate("all", GateType.AND, tuple(inputs))
        netlist.add_output("all")
        rare = extract_rare_nets(netlist, threshold=0.1, num_patterns=4096, seed=0)
        assert [item.net for item in rare] == ["all"]
        assert rare[0].rare_value == 1


class TestScoap:
    def test_inputs_have_unit_controllability(self, c17):
        measures = scoap_testability(c17)
        for net in c17.inputs:
            assert measures[net].cc0 == 1.0
            assert measures[net].cc1 == 1.0

    def test_outputs_have_zero_observability(self, c17):
        measures = scoap_testability(c17)
        for net in c17.outputs:
            assert measures[net].co == 0.0

    def test_and_gate_controllability(self):
        netlist = Netlist("and3")
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_gate("y", GateType.AND, ("a", "b", "c"))
        netlist.add_output("y")
        measures = scoap_testability(netlist)
        assert measures["y"].cc1 == 4.0  # 1+1+1 inputs + 1
        assert measures["y"].cc0 == 2.0  # cheapest single zero + 1

    def test_deeper_logic_is_harder(self, small_multiplier):
        measures = scoap_testability(small_multiplier)
        levels = small_multiplier.levels()
        deep = max(measures, key=lambda n: levels.get(n, 0))
        shallow = small_multiplier.inputs[0]

        def difficulty(net):
            return measures[net].cc0 + measures[net].cc1 + measures[net].co

        assert difficulty(deep) > difficulty(shallow)
