"""Differential tests for the compiled simulation engine.

The compiled engine (:mod:`repro.simulation.compiled`) must match the
reference per-gate interpreter bit-for-bit on every gate type, on random
netlists, and on the ISCAS-style library circuits; and the batched
multi-Trojan evaluator must return exactly the verdicts of the literal
one-infected-netlist-per-Trojan flow.
"""

import itertools

import numpy as np
import pytest

from repro.baselines.random_patterns import random_pattern_set
from repro.circuits import generators
from repro.circuits.gates import GateType
from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.simulation.compiled import (
    CompiledNetlist,
    batched_conjunctions,
    compile_netlist,
    conjunction_words,
    pack_patterns,
    unpack_matrix,
)
from repro.simulation.probability import estimate_signal_probabilities
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.evaluation import trigger_coverage
from repro.trojan.insertion import sample_trojans

from oracles import (
    evaluate_gate,
    reference_count_ones,
    reference_patterns,
    reference_values,
    run_patterns,
    sequential_trigger_coverage,
)


def assert_engines_match(netlist, patterns):
    """Compiled and reference engines agree on every net for ``patterns``."""
    reference = reference_patterns(netlist, patterns)
    compiled = run_patterns(netlist, patterns)
    assert list(reference) == list(compiled)
    for net in reference:
        assert np.array_equal(reference[net], compiled[net]), f"net {net} diverges"


class TestGateTypeEquivalence:
    @pytest.mark.parametrize("gate_type", list(GateType))
    @pytest.mark.parametrize("fanin", [1, 2, 3, 4])
    def test_single_gate_matches_scalar_semantics(self, gate_type, fanin):
        if fanin < gate_type.min_inputs:
            pytest.skip("fan-in below the gate's minimum")
        if gate_type.max_inputs is not None and fanin > gate_type.max_inputs:
            pytest.skip("fan-in above the gate's maximum")
        netlist = Netlist(f"{gate_type.value.lower()}{fanin}")
        inputs = [netlist.add_input(f"i{k}") for k in range(fanin)]
        netlist.add_gate("y", gate_type, tuple(inputs))
        netlist.add_output("y")
        patterns = np.array(list(itertools.product([0, 1], repeat=fanin)), dtype=np.uint8)
        values = run_patterns(netlist, patterns)
        for row, pattern in enumerate(patterns):
            assert values["y"][row] == evaluate_gate(gate_type, list(pattern))
        assert_engines_match(netlist, patterns)

    def test_mixed_gate_level_grouping(self):
        """Gates of every type at the same level share constant-padded groups."""
        netlist = Netlist("mixed")
        inputs = [netlist.add_input(f"i{k}") for k in range(4)]
        for gate_type in GateType:
            fanin = 1 if gate_type.max_inputs == 1 else 3
            netlist.add_gate(f"y_{gate_type.value}", gate_type, tuple(inputs[:fanin]))
            netlist.add_output(f"y_{gate_type.value}")
        patterns = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8)
        assert_engines_match(netlist, patterns)


class TestRandomCircuitEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_netlists_match_reference(self, seed):
        netlist = generators.random_logic_circuit(
            f"rand{seed}", num_inputs=8, num_gates=70, num_outputs=6, seed=seed
        )
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(193, len(netlist.inputs)), dtype=np.uint8)
        assert_engines_match(netlist, patterns)

    def test_word_boundary_pattern_counts(self, c17):
        for num_patterns in (1, 63, 64, 65, 128):
            patterns = np.random.default_rng(num_patterns).integers(
                0, 2, size=(num_patterns, 5), dtype=np.uint8
            )
            assert_engines_match(c17, patterns)


class TestLibraryCircuitEquivalence:
    @pytest.mark.parametrize(
        "name", ["c17", "c2670_like", "c6288_like", "s13207_like"]
    )
    def test_library_circuits_match_reference(self, name):
        netlist = load_benchmark(name)
        compiled = compile_netlist(netlist)
        rng = np.random.default_rng(7)
        patterns = rng.integers(0, 2, size=(256, compiled.num_sources), dtype=np.uint8)
        assert_engines_match(netlist, patterns)

    def test_count_ones_matches_reference_engine(self):
        netlist = load_benchmark("c2670_like")
        reference = reference_count_ones(netlist, 777, seed=11)
        compiled = compile_netlist(netlist).count_ones(777, seed=11)
        assert list(reference.values()) == compiled.tolist()

    def test_probability_estimation_unchanged_by_engine(self):
        netlist = load_benchmark("c17")
        estimated = estimate_signal_probabilities(netlist, num_patterns=2048, seed=5)
        counts = reference_count_ones(netlist, 2048, seed=5)
        for net, probability in estimated.items():
            assert probability == pytest.approx(counts[net] / 2048)


class TestCompileCache:
    def test_compile_is_cached_per_netlist(self, c17):
        assert compile_netlist(c17) is compile_netlist(c17)

    def test_mutation_invalidates_cache(self):
        netlist = generators.c17()
        first = compile_netlist(netlist)
        netlist.add_gate("extra", GateType.NOT, ("22",))
        second = compile_netlist(netlist)
        assert second is not first
        assert "extra" in second and "extra" not in first

    def test_rejects_sequential_netlists(self):
        sequential = generators.sequential_controller("s", state_bits=3, data_width=4)
        with pytest.raises(ValueError, match="full-scan"):
            CompiledNetlist(sequential)

    def test_unknown_net_raises_keyerror(self, c17):
        with pytest.raises(KeyError, match="does not exist"):
            compile_netlist(c17).index_of("no_such_net")

    def test_count_ones_zero_patterns_is_all_zero(self, c17):
        compiled = compile_netlist(c17)
        assert not compiled.count_ones(0, seed=0).any()

    def test_scoap_accepts_sequential_netlists(self):
        from repro.simulation.testability import scoap_testability

        sequential = generators.sequential_controller("seq", state_bits=3, data_width=4)
        measures = scoap_testability(sequential)
        for ff in sequential.flip_flops:
            assert measures[ff.q].cc0 == 1.0 and measures[ff.q].cc1 == 1.0


class TestPackingValidation:
    def test_pack_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="0/1"):
            pack_patterns(np.array([[0, 2], [1, 0]]))

    def test_pack_rejects_negative_values(self):
        with pytest.raises(ValueError, match="0/1"):
            pack_patterns(np.array([[0, -1]]))

    def test_unpack_zero_patterns(self):
        assert unpack_matrix(np.zeros(1, dtype=np.uint64), 0).shape == (1, 0)
        packed, count = pack_patterns(np.zeros((0, 3), dtype=np.uint8))
        assert count == 0
        assert unpack_matrix(packed, count).shape == (3, 0)

    def test_pack_unpack_roundtrip_odd_sizes(self):
        rng = np.random.default_rng(3)
        patterns = rng.integers(0, 2, size=(65, 9), dtype=np.uint8)
        packed, count = pack_patterns(patterns)
        assert packed.shape == (9, 2)
        assert np.array_equal(unpack_matrix(packed, count), patterns.T)

    def test_pack_bit_layout(self):
        """Pattern ``p`` lands in bit ``p % 64`` of word ``p // 64``."""
        patterns = np.zeros((130, 2), dtype=np.uint8)
        patterns[65, 0] = 1
        patterns[3, 1] = 1
        packed, _ = pack_patterns(patterns)
        assert packed.dtype == np.uint64
        assert packed.tolist() == [[0, 2, 0], [8, 0, 0]]

    def test_pack_leaves_tail_lanes_zero(self):
        packed, count = pack_patterns(np.ones((70, 3), dtype=np.uint8))
        assert count == 70
        assert np.bitwise_count(packed[:, 0]).tolist() == [64, 64, 64]
        assert np.bitwise_count(packed[:, 1]).tolist() == [6, 6, 6]


class TestCompiledStructure:
    def test_levelized_gates_order_every_gate_after_its_drivers(self, small_multiplier):
        compiled = compile_netlist(small_multiplier)
        order = compiled.levelized_gates()
        assert sorted(g.output for g in order) == sorted(g.output for g in small_multiplier.gates)
        seen = set(compiled.sources)
        for gate in order:
            assert all(source in seen for source in gate.inputs), gate.output
            seen.add(gate.output)

    def test_levelized_gates_never_step_back_a_level(self, small_multiplier):
        levels = small_multiplier.levels()
        order = [levels[g.output] for g in compile_netlist(small_multiplier).levelized_gates()]
        assert order == sorted(order)

    def test_contains_every_net_and_nothing_else(self, c17):
        compiled = compile_netlist(c17)
        assert set(compiled.net_names) == set(c17.nets)
        assert all(net in compiled for net in c17.nets)
        assert "no_such_net" not in compiled

    def test_run_packed_rejects_wrong_shapes(self, c17):
        compiled = compile_netlist(c17)
        with pytest.raises(ValueError, match="num_words"):
            compiled.run_packed(np.zeros(5, dtype=np.uint64))
        with pytest.raises(ValueError, match="num_words"):
            compiled.run_packed(np.zeros((4, 2), dtype=np.uint64))

    def test_run_packed_matches_reference_on_raw_words(self, small_random_circuit):
        compiled = compile_netlist(small_random_circuit)
        packed = np.random.default_rng(4).integers(
            0, 2**64 - 1, size=(compiled.num_sources, 3), dtype=np.uint64, endpoint=True
        )
        matrix = compiled.run_packed(packed)
        assert matrix.shape == (compiled.num_nets, 3)
        reference = reference_values(small_random_circuit, packed)
        for index, net in enumerate(compiled.net_names):
            assert np.array_equal(matrix[index], reference[net]), net

    def test_count_ones_masks_tail_lanes(self):
        """A net and its inverse together count exactly ``num_patterns`` ones."""
        netlist = Netlist("pair")
        netlist.add_input("a")
        netlist.add_gate("na", GateType.NOT, ("a",))
        netlist.add_output("na")
        compiled = compile_netlist(netlist)
        for num_patterns in (1, 63, 64, 70, 129):
            counts = compiled.count_ones(num_patterns, seed=num_patterns)
            assert counts[compiled.index_of("a")] + counts[compiled.index_of("na")] == num_patterns


class TestActivations:
    def test_activations_match_reference_values(self, small_multiplier):
        compiled = compile_netlist(small_multiplier)
        rng = np.random.default_rng(8)
        patterns = rng.integers(0, 2, size=(97, compiled.num_sources), dtype=np.uint8)
        nets = [g.output for g in small_multiplier.gates][::5]
        requirements = [(net, int(k % 2)) for k, net in enumerate(nets)]
        active = compiled.activations(patterns, requirements)
        assert active.shape == (97, len(requirements)) and active.dtype == bool
        reference = reference_patterns(small_multiplier, patterns)
        for column, (net, value) in enumerate(requirements):
            assert np.array_equal(active[:, column], reference[net] == value), net

    def test_no_requirements_gives_an_empty_row_per_pattern(self, c17):
        active = compile_netlist(c17).activations(np.zeros((4, 5), dtype=np.uint8), [])
        assert active.shape == (4, 0) and active.dtype == bool

    def test_unknown_requirement_net_raises_keyerror(self, c17):
        with pytest.raises(KeyError, match="no_such_net"):
            compile_netlist(c17).activations(np.zeros((1, 5), dtype=np.uint8), [("no_such_net", 1)])


class TestConjunctions:
    def _random_conjunctions(self, compiled, rng):
        conjunctions = []
        for width in (1, 2, 2, 3, 4, 1):
            ids = rng.choice(compiled.num_nets, size=width, replace=False).astype(np.int64)
            required = rng.integers(0, 2, size=width).astype(np.uint8)
            conjunctions.append((ids, required))
        return conjunctions

    def test_batched_conjunctions_match_brute_force(self, small_random_circuit):
        compiled = compile_netlist(small_random_circuit)
        rng = np.random.default_rng(12)
        patterns = rng.integers(0, 2, size=(150, compiled.num_sources), dtype=np.uint8)
        matrix, num_patterns = compiled.run_patterns(patterns)
        conjunctions = self._random_conjunctions(compiled, rng)
        fired = batched_conjunctions(matrix, conjunctions, num_patterns)
        assert fired.shape == (len(conjunctions), 150) and fired.dtype == bool
        bits = unpack_matrix(matrix, num_patterns)
        for row, (ids, required) in enumerate(conjunctions):
            expected = np.all(bits[ids] == required[:, None], axis=0)
            assert np.array_equal(fired[row], expected), row

    def test_conjunction_words_unpack_to_batched_conjunctions(self, small_random_circuit):
        compiled = compile_netlist(small_random_circuit)
        rng = np.random.default_rng(13)
        patterns = rng.integers(0, 2, size=(100, compiled.num_sources), dtype=np.uint8)
        matrix, num_patterns = compiled.run_patterns(patterns)
        conjunctions = self._random_conjunctions(compiled, rng)
        words = conjunction_words(matrix, conjunctions)
        assert words.shape == (len(conjunctions), 2) and words.dtype == np.uint64
        assert np.array_equal(
            unpack_matrix(words, num_patterns).astype(bool),
            batched_conjunctions(matrix, conjunctions, num_patterns),
        )

    def test_empty_conjunctions_or_patterns(self, c17):
        matrix, _ = compile_netlist(c17).run_patterns(np.zeros((3, 5), dtype=np.uint8))
        assert batched_conjunctions(matrix, [], 3).shape == (0, 3)
        single = [(np.array([0], dtype=np.int64), np.array([1], dtype=np.uint8))]
        assert batched_conjunctions(matrix, single, 0).shape == (1, 0)


class TestBatchedTrojanParity:
    def test_batched_matches_sequential_on_random_trojans(self, small_multiplier):
        """Batched verdicts equal the simulate-every-infected-netlist flow."""
        rare = extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=2048, seed=0)
        trojans = sample_trojans(
            small_multiplier, rare, num_trojans=32, trigger_width=2, seed=1
        )
        assert len(trojans) >= 30, "need a real population for the parity check"
        pattern_set = random_pattern_set(small_multiplier, num_patterns=512, seed=2)
        batched = trigger_coverage(small_multiplier, trojans, pattern_set)
        sequential = sequential_trigger_coverage(small_multiplier, trojans, pattern_set)
        assert batched.detected == sequential.detected
        assert batched.num_detected == sequential.num_detected
        assert batched.coverage == sequential.coverage

    def test_batched_matches_sequential_on_mixed_widths(self, small_multiplier):
        rare = extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=2048, seed=0)
        trojans = []
        for width, seed in ((1, 3), (2, 4), (3, 5)):
            trojans.extend(
                sample_trojans(
                    small_multiplier, rare, num_trojans=6, trigger_width=width, seed=seed
                )
            )
        pattern_set = random_pattern_set(small_multiplier, num_patterns=256, seed=6)
        batched = trigger_coverage(small_multiplier, trojans, pattern_set)
        sequential = sequential_trigger_coverage(small_multiplier, trojans, pattern_set)
        assert batched.detected == sequential.detected

    def test_empty_pattern_set_detects_nothing(self, small_multiplier):
        rare = extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=2048, seed=0)
        trojans = sample_trojans(
            small_multiplier, rare, num_trojans=5, trigger_width=2, seed=9
        )
        from repro.core.patterns import PatternSet

        empty = PatternSet.empty(small_multiplier, technique="none")
        batched = trigger_coverage(small_multiplier, trojans, empty)
        sequential = sequential_trigger_coverage(small_multiplier, trojans, empty)
        assert batched.detected == sequential.detected == [False] * len(trojans)

    def test_sequential_path_checks_source_ordering(self, small_multiplier, c17):
        rare = extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=2048, seed=0)
        trojans = sample_trojans(
            small_multiplier, rare, num_trojans=2, trigger_width=2, seed=9
        )
        mismatched = random_pattern_set(c17, num_patterns=4, seed=0)
        with pytest.raises(ValueError, match="source ordering"):
            sequential_trigger_coverage(small_multiplier, trojans, mismatched)
