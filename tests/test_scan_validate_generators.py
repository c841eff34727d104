"""Tests for scan conversion, validation, generators, and the library."""

import pytest

from repro.circuits import generators
from repro.circuits.gates import GateType
from repro.circuits.library import (
    TABLE2_BENCHMARKS,
    benchmark_entry,
    benchmark_suite,
    load_benchmark,
)
from repro.circuits.netlist import Netlist
from repro.circuits.scan import ensure_combinational, full_scan
from repro.circuits.validate import validate_netlist
from repro.simulation.rare_nets import extract_rare_nets


class TestFullScan:
    def test_flip_flop_outputs_become_inputs(self):
        sequential = generators.sequential_controller("seq", state_bits=4, data_width=4)
        scanned, info = full_scan(sequential)
        assert not scanned.is_sequential
        assert len(info.pseudo_inputs) == len(sequential.flip_flops)
        for pseudo in info.pseudo_inputs:
            assert scanned.is_input(pseudo)

    def test_flip_flop_inputs_become_outputs(self):
        sequential = generators.sequential_controller("seq", state_bits=4, data_width=4)
        scanned, info = full_scan(sequential)
        for pseudo in info.pseudo_outputs:
            assert scanned.is_output(pseudo)

    def test_combinational_netlist_untouched(self, c17):
        assert ensure_combinational(c17) is c17

    def test_scan_preserves_gate_count(self):
        sequential = generators.sequential_controller("seq", state_bits=4, data_width=4)
        scanned, _ = full_scan(sequential)
        assert scanned.num_gates == sequential.num_gates

    def test_scanned_netlist_valid(self):
        sequential = generators.sequential_controller("seq", state_bits=5, data_width=6)
        scanned, _ = full_scan(sequential)
        assert validate_netlist(scanned).ok


class TestValidation:
    def test_valid_circuit_passes(self, c17):
        report = validate_netlist(c17)
        assert report.ok
        assert not report.errors

    def test_undriven_gate_input_detected(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("y", GateType.AND, ("a", "ghost"))
        netlist.add_output("y")
        report = validate_netlist(netlist)
        assert not report.ok
        assert any("ghost" in error for error in report.errors)

    def test_undriven_output_detected(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_output("nowhere")
        assert not validate_netlist(netlist).ok

    def test_dangling_net_is_warning(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("unused", GateType.NOT, ("a",))
        netlist.add_gate("y", GateType.NOT, ("a",))
        netlist.add_output("y")
        report = validate_netlist(netlist)
        assert report.ok
        assert report.warnings

    def test_strict_promotes_warnings(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("unused", GateType.NOT, ("a",))
        netlist.add_gate("y", GateType.NOT, ("a",))
        netlist.add_output("y")
        assert not validate_netlist(netlist, strict=True).ok

    def test_cycle_detected(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("x", GateType.AND, ("a", "y"))
        netlist.add_gate("y", GateType.OR, ("x", "a"))
        netlist.add_output("y")
        report = validate_netlist(netlist)
        assert any("cycle" in error for error in report.errors)


class TestNetlistProperties:
    def test_c17_structure(self, c17):
        assert c17.num_gates == 6
        assert len(c17.inputs) == 5
        assert len(c17.outputs) == 2
        assert c17.depth == 3
        assert len(c17.nets) == 11
        assert not c17.is_sequential

    def test_sequential_controller_keeps_its_flip_flops(self):
        sequential = generators.sequential_controller("seq", state_bits=4, data_width=4)
        assert sequential.is_sequential
        assert len(sequential.flip_flops) >= 4
        assert not ensure_combinational(sequential).is_sequential


class TestGenerators:
    def test_c17_matches_published_structure(self, c17):
        assert c17.num_gates == 6
        assert all(gate.gate_type is GateType.NAND for gate in c17.gates)

    def test_generators_are_deterministic(self):
        first = generators.alu_control_circuit("x", seed=5)
        second = generators.alu_control_circuit("x", seed=5)
        assert [g.output for g in first.gates] == [g.output for g in second.gates]

    def test_generator_seed_changes_structure(self):
        first = generators.random_logic_circuit("x", seed=1)
        second = generators.random_logic_circuit("x", seed=2)
        first_types = [g.gate_type for g in first.gates]
        second_types = [g.gate_type for g in second.gates]
        assert first_types != second_types

    def test_random_logic_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generators.random_logic_circuit("x", num_inputs=1, num_gates=10)

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_multiplier_has_rare_top_bits(self, name):
        netlist = generators.multiplier_circuit(name, width=5)
        rare = extract_rare_nets(netlist, threshold=0.1, num_patterns=2048, seed=0)
        assert len(rare) > 5

    def test_mips_circuit_has_many_rare_nets(self):
        netlist = generators.mips16_circuit("mips_test", data_width=6, num_registers=4, seed=9)
        rare = extract_rare_nets(netlist, threshold=0.1, num_patterns=2048, seed=0)
        assert len(rare) >= 20


class TestLibrary:
    def test_suite_contains_all_paper_designs(self):
        assert set(TABLE2_BENCHMARKS) <= set(benchmark_suite())

    @pytest.mark.parametrize("name", benchmark_suite())
    def test_all_benchmarks_build_and_validate(self, name):
        netlist = load_benchmark(name)
        assert not netlist.is_sequential
        assert validate_netlist(netlist).ok

    def test_sequential_benchmarks_expose_raw_view(self):
        raw = load_benchmark("s13207_like", combinational_view=False)
        assert raw.is_sequential

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            load_benchmark("does_not_exist")

    def test_entries_carry_paper_metadata(self):
        entry = benchmark_entry("c6288_like")
        assert entry.paper_name == "c6288"
        assert entry.paper_num_rare_nets == 186

    @pytest.mark.parametrize("name", TABLE2_BENCHMARKS)
    def test_benchmarks_have_rare_nets_at_default_threshold(self, name):
        netlist = load_benchmark(name)
        rare = extract_rare_nets(netlist, threshold=0.1, num_patterns=1024, seed=0)
        assert len(rare) >= 10
