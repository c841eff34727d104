"""Unit tests for gate primitives and their Boolean semantics."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.circuits.gates import Gate, GateType

from oracles import evaluate_gate


class TestGateType:
    def test_unary_gate_input_bounds(self):
        assert GateType.NOT.min_inputs == 1
        assert GateType.NOT.max_inputs == 1
        assert GateType.BUF.min_inputs == 1
        assert GateType.BUF.max_inputs == 1

    def test_multi_input_gate_bounds(self):
        assert GateType.AND.min_inputs == 2
        assert GateType.AND.max_inputs is None
        assert GateType.XOR.min_inputs == 2


class TestGateConstruction:
    def test_valid_gate(self):
        gate = Gate(output="y", gate_type=GateType.AND, inputs=("a", "b"))
        assert gate.fanin == 2
        assert gate.output == "y"

    def test_and_with_one_input_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            Gate(output="y", gate_type=GateType.AND, inputs=("a",))

    def test_not_with_two_inputs_rejected(self):
        with pytest.raises(ValueError, match="at most 1"):
            Gate(output="y", gate_type=GateType.NOT, inputs=("a", "b"))

    def test_wide_gate_accepted(self):
        gate = Gate(output="y", gate_type=GateType.OR, inputs=tuple(f"i{k}" for k in range(8)))
        assert gate.fanin == 8


class TestEvaluateGate:
    @pytest.mark.parametrize("a,b,expected", [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    def test_and_truth_table(self, a, b, expected):
        assert evaluate_gate(GateType.AND, [a, b]) == expected

    @pytest.mark.parametrize("a,b,expected", [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_nand_truth_table(self, a, b, expected):
        assert evaluate_gate(GateType.NAND, [a, b]) == expected

    @pytest.mark.parametrize("a,b,expected", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    def test_or_truth_table(self, a, b, expected):
        assert evaluate_gate(GateType.OR, [a, b]) == expected

    @pytest.mark.parametrize("a,b,expected", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    def test_nor_truth_table(self, a, b, expected):
        assert evaluate_gate(GateType.NOR, [a, b]) == expected

    @pytest.mark.parametrize("a,b,expected", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_xor_truth_table(self, a, b, expected):
        assert evaluate_gate(GateType.XOR, [a, b]) == expected

    @pytest.mark.parametrize("a,b,expected", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    def test_xnor_truth_table(self, a, b, expected):
        assert evaluate_gate(GateType.XNOR, [a, b]) == expected

    def test_not_and_buf(self):
        assert evaluate_gate(GateType.NOT, [0]) == 1
        assert evaluate_gate(GateType.NOT, [1]) == 0
        assert evaluate_gate(GateType.BUF, [0]) == 0
        assert evaluate_gate(GateType.BUF, [1]) == 1

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.AND, [])

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=6))
    def test_and_nand_complementary(self, values):
        assert evaluate_gate(GateType.AND, values) == 1 - evaluate_gate(GateType.NAND, values)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=6))
    def test_or_nor_complementary(self, values):
        assert evaluate_gate(GateType.OR, values) == 1 - evaluate_gate(GateType.NOR, values)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=6))
    def test_xor_is_parity(self, values):
        assert evaluate_gate(GateType.XOR, values) == sum(values) % 2

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=6))
    def test_xor_xnor_complementary(self, values):
        assert evaluate_gate(GateType.XOR, values) == 1 - evaluate_gate(GateType.XNOR, values)

    def test_wide_and_requires_all_ones(self):
        for width in (3, 4, 5):
            for assignment in itertools.product([0, 1], repeat=width):
                expected = int(all(assignment))
                assert evaluate_gate(GateType.AND, list(assignment)) == expected
