"""Tests for .bench I/O."""

import numpy as np
import pytest

from repro.circuits import generators
from repro.circuits.bench_io import BenchParseError, dumps_bench, load_bench, loads_bench
from repro.circuits.gates import GateType

from oracles import run_patterns


def equivalent(netlist_a, netlist_b, num_patterns=64, seed=3):
    """Check functional equivalence on random patterns (same sources assumed)."""
    sources_a = netlist_a.combinational_sources()
    sources_b = netlist_b.combinational_sources()
    assert set(sources_a) == set(sources_b)
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(num_patterns, len(sources_a)), dtype=np.uint8)
    values_a = run_patterns(netlist_a, patterns)
    reorder = [sources_a.index(net) for net in sources_b]
    values_b = run_patterns(netlist_b, patterns[:, reorder])
    for output in netlist_a.outputs:
        if not np.array_equal(values_a[output], values_b[output]):
            return False
    return True


class TestBenchFormat:
    def test_roundtrip_c17(self, c17):
        text = dumps_bench(c17)
        parsed = loads_bench(text, name="c17")
        assert set(parsed.inputs) == set(c17.inputs)
        assert set(parsed.outputs) == set(c17.outputs)
        assert parsed.num_gates == c17.num_gates
        assert equivalent(c17, parsed)

    def test_roundtrip_multiplier(self, small_multiplier):
        parsed = loads_bench(dumps_bench(small_multiplier))
        assert equivalent(small_multiplier, parsed)

    def test_sequential_roundtrip(self):
        sequential = generators.sequential_controller("seq", state_bits=4, data_width=4)
        parsed = loads_bench(dumps_bench(sequential))
        assert len(parsed.flip_flops) == len(sequential.flip_flops)

    def test_parse_error_on_garbage(self):
        with pytest.raises(BenchParseError):
            loads_bench("this is not bench format\n")

    def test_unknown_function_rejected(self):
        with pytest.raises(BenchParseError, match="unknown function"):
            loads_bench("INPUT(a)\nINPUT(b)\ny = MAJ(a, b)\nOUTPUT(y)\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)  # trailing comment\n"
        netlist = loads_bench(text)
        assert netlist.num_gates == 1

    def test_dff_arity_checked(self):
        with pytest.raises(BenchParseError, match="DFF"):
            loads_bench("INPUT(a)\nINPUT(b)\nq = DFF(a, b)\n")

    def test_file_roundtrip(self, tmp_path, c17):
        path = tmp_path / "c17.bench"
        path.write_text(dumps_bench(c17))
        assert equivalent(c17, load_bench(path))

    def test_buff_alias(self):
        netlist = loads_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
        assert netlist.num_gates == 1

    def test_inv_alias_is_not(self):
        netlist = loads_bench("INPUT(a)\nOUTPUT(y)\ny = INV(a)\n")
        assert netlist.gate_for("y").gate_type is GateType.NOT

    def test_roundtrip_random_circuit(self, small_random_circuit):
        parsed = loads_bench(dumps_bench(small_random_circuit))
        assert parsed.num_gates == small_random_circuit.num_gates
        assert equivalent(small_random_circuit, parsed)

    def test_name_comes_from_argument_or_file_stem(self, tmp_path, c17):
        path = tmp_path / "c17.bench"
        path.write_text(dumps_bench(c17))
        assert loads_bench(dumps_bench(c17), name="c17").name == "c17"
        assert load_bench(path).name == "c17"
        assert load_bench(path, name="other").name == "other"

    def test_sequential_roundtrip_keeps_flip_flop_wiring(self):
        sequential = generators.sequential_controller("seq2", state_bits=3, data_width=4)
        parsed = loads_bench(dumps_bench(sequential))
        assert {(ff.q, ff.d) for ff in parsed.flip_flops} == {
            (ff.q, ff.d) for ff in sequential.flip_flops
        }

    def test_roundtrip_keeps_every_gate(self, c17):
        sequential = generators.sequential_controller("seq2", state_bits=3, data_width=4)
        for netlist in (c17, sequential):
            parsed = loads_bench(dumps_bench(netlist))
            assert {
                (gate.output, gate.gate_type, gate.inputs) for gate in parsed.gates
            } == {(gate.output, gate.gate_type, gate.inputs) for gate in netlist.gates}

    def test_output_may_precede_its_driver(self):
        netlist = loads_bench("OUTPUT(y)\nINPUT(a)\nINPUT(b)\ny = AND(a, b)\n")
        assert netlist.outputs == ("y",)
        assert netlist.gate_for("y").inputs == ("a", "b")

    def test_parse_error_names_the_line(self):
        with pytest.raises(BenchParseError, match="line 3"):
            loads_bench("INPUT(a)\nOUTPUT(y)\ny := NOT(a)\n")

