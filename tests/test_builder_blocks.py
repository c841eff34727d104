"""Tests for the netlist builder and the word-level building blocks.

Arithmetic blocks are checked against integer arithmetic, both exhaustively
at small widths and with hypothesis at random widths/operands.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import blocks
from repro.circuits.builder import NetlistBuilder
from repro.circuits.gates import GateType
from repro.circuits.validate import validate_netlist

from oracles import simulate_pattern


def evaluate_bus(netlist, assignment, bus):
    """Simulate one assignment and read a bus back as an integer."""
    values = simulate_pattern(netlist, assignment)
    return sum(values[net] << i for i, net in enumerate(bus))


def input_assignment(prefix_values):
    """Build a net -> value assignment for buses declared via builder.inputs."""
    assignment = {}
    for prefix, value, width in prefix_values:
        for bit in range(width):
            assignment[f"{prefix}[{bit}]"] = (value >> bit) & 1
    return assignment


class TestBuilder:
    def test_fresh_names_unique(self):
        builder = NetlistBuilder()
        names = {builder.fresh("n") for _ in range(100)}
        assert len(names) == 100

    def test_output_with_rename_buffers(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        b = builder.input("b")
        y = builder.and_(a, b)
        renamed = builder.output(y, name="result")
        netlist = builder.build()
        assert renamed == "result"
        assert netlist.is_output("result")
        assert netlist.gate_for("result").gate_type is GateType.BUF

    def test_mux2_truth_table(self):
        builder = NetlistBuilder()
        s, a, b = builder.input("s"), builder.input("a"), builder.input("b")
        y = builder.mux2(s, a, b)
        builder.output(y, name="y")
        netlist = builder.build()
        for sv, av, bv in itertools.product([0, 1], repeat=3):
            out = simulate_pattern(netlist, {"s": sv, "a": av, "b": bv})["y"]
            assert out == (bv if sv else av)

    def test_single_input_reduction_becomes_buffer(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        y = builder.and_(a)
        netlist = builder.build()
        assert netlist.gate_for(y).gate_type is GateType.BUF

    def test_built_netlists_validate(self):
        builder = NetlistBuilder()
        a = builder.inputs("a", 4)
        b = builder.inputs("b", 4)
        total, carry = blocks.ripple_carry_adder(builder, a, b)
        builder.outputs(total, prefix="s")
        builder.output(carry, name="c")
        assert validate_netlist(builder.build()).ok


class TestAdder:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_exhaustive_small_widths(self, width):
        builder = NetlistBuilder(f"add{width}")
        a = builder.inputs("a", width)
        b = builder.inputs("b", width)
        total, carry = blocks.ripple_carry_adder(builder, a, b)
        builder.outputs(total, prefix="s")
        builder.output(carry, name="carry")
        netlist = builder.build()
        for va, vb in itertools.product(range(2**width), repeat=2):
            assignment = input_assignment([("a", va, width), ("b", vb, width)])
            result = evaluate_bus(netlist, assignment, [f"s[{i}]" for i in range(width)])
            carry_value = evaluate_bus(netlist, assignment, ["carry"])
            assert result + (carry_value << width) == va + vb

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=4, max_value=8), st.data())
    def test_random_operands(self, width, data):
        va = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        vb = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        builder = NetlistBuilder("add")
        a = builder.inputs("a", width)
        b = builder.inputs("b", width)
        total, carry = blocks.ripple_carry_adder(builder, a, b)
        builder.outputs(total, prefix="s")
        builder.output(carry, name="carry")
        netlist = builder.build()
        assignment = input_assignment([("a", va, width), ("b", vb, width)])
        result = evaluate_bus(netlist, assignment, [f"s[{i}]" for i in range(width)])
        carry_value = evaluate_bus(netlist, assignment, ["carry"])
        assert result + (carry_value << width) == va + vb

    def test_width_mismatch_rejected(self):
        builder = NetlistBuilder()
        a = builder.inputs("a", 3)
        b = builder.inputs("b", 2)
        with pytest.raises(ValueError):
            blocks.ripple_carry_adder(builder, a, b)


class TestMultiplier:
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_exhaustive(self, width):
        builder = NetlistBuilder(f"mul{width}")
        a = builder.inputs("a", width)
        b = builder.inputs("b", width)
        product = blocks.array_multiplier(builder, a, b)
        builder.outputs(product, prefix="p")
        netlist = builder.build()
        assert len(product) == 2 * width
        bus = [f"p[{i}]" for i in range(2 * width)]
        for va, vb in itertools.product(range(2**width), repeat=2):
            assignment = input_assignment([("a", va, width), ("b", vb, width)])
            assert evaluate_bus(netlist, assignment, bus) == va * vb


class TestDecoderAndComparators:
    def test_decoder_one_hot(self):
        builder = NetlistBuilder("dec")
        select = builder.inputs("s", 3)
        outputs = blocks.decoder(builder, select)
        builder.outputs(outputs, prefix="o")
        netlist = builder.build()
        bus = [f"o[{i}]" for i in range(8)]
        for value in range(8):
            assignment = input_assignment([("s", value, 3)])
            word = evaluate_bus(netlist, assignment, bus)
            assert word == 1 << value

    def test_equality_comparator(self):
        builder = NetlistBuilder("eq")
        a = builder.inputs("a", 3)
        b = builder.inputs("b", 3)
        builder.output(blocks.equality_comparator(builder, a, b), name="eq")
        netlist = builder.build()
        for va, vb in itertools.product(range(8), repeat=2):
            assignment = input_assignment([("a", va, 3), ("b", vb, 3)])
            assert evaluate_bus(netlist, assignment, ["eq"]) == int(va == vb)

    def test_magnitude_comparator(self):
        builder = NetlistBuilder("gt")
        a = builder.inputs("a", 3)
        b = builder.inputs("b", 3)
        builder.output(blocks.magnitude_comparator(builder, a, b), name="gt")
        netlist = builder.build()
        for va, vb in itertools.product(range(8), repeat=2):
            assignment = input_assignment([("a", va, 3), ("b", vb, 3)])
            assert evaluate_bus(netlist, assignment, ["gt"]) == int(va > vb)

    def test_parity_tree(self):
        builder = NetlistBuilder("par")
        bits = builder.inputs("x", 5)
        builder.output(blocks.parity_tree(builder, bits), name="p")
        netlist = builder.build()
        for value in range(32):
            assignment = input_assignment([("x", value, 5)])
            assert evaluate_bus(netlist, assignment, ["p"]) == bin(value).count("1") % 2

    def test_mux_tree_selects_correct_bus(self):
        builder = NetlistBuilder("muxtree")
        select = builder.inputs("s", 2)
        choices = [builder.inputs(f"c{i}", 2) for i in range(4)]
        result = blocks.mux_tree(builder, select, choices)
        builder.outputs(result, prefix="y")
        netlist = builder.build()
        values = [0b01, 0b10, 0b11, 0b00]
        for sel in range(4):
            assignment = input_assignment(
                [("s", sel, 2)] + [(f"c{i}", values[i], 2) for i in range(4)]
            )
            assert evaluate_bus(netlist, assignment, ["y[0]", "y[1]"]) == values[sel]

    def test_mux_tree_wrong_choice_count_rejected(self):
        builder = NetlistBuilder()
        select = builder.inputs("s", 2)
        with pytest.raises(ValueError):
            blocks.mux_tree(builder, select, [builder.inputs("c", 2)])


class TestAlu:
    def test_alu_operations(self):
        width = 4
        builder = NetlistBuilder("alu")
        a = builder.inputs("a", width)
        b = builder.inputs("b", width)
        opcode = builder.inputs("op", 2)
        result = blocks.alu(builder, a, b, opcode)
        builder.outputs(result, prefix="y")
        netlist = builder.build()
        bus = [f"y[{i}]" for i in range(width)]
        operations = {0: lambda x, y: (x + y) % 2**width, 1: lambda x, y: x & y,
                      2: lambda x, y: x | y, 3: lambda x, y: x ^ y}
        for op, func in operations.items():
            for va, vb in [(3, 5), (15, 1), (0, 0), (7, 7), (12, 10)]:
                assignment = input_assignment(
                    [("a", va, width), ("b", vb, width), ("op", op, 2)]
                )
                assert evaluate_bus(netlist, assignment, bus) == func(va, vb)
