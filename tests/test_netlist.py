"""Unit tests for the Netlist container."""

import pytest

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist


def build_simple():
    netlist = Netlist("simple")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate("n1", GateType.AND, ("a", "b"))
    netlist.add_gate("n2", GateType.NOT, ("n1",))
    netlist.add_output("n2")
    return netlist


class TestConstruction:
    def test_counts(self):
        netlist = build_simple()
        assert netlist.num_gates == 2
        assert len(netlist.inputs) == 2
        assert len(netlist.outputs) == 1
        assert not netlist.is_sequential

    def test_duplicate_input_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(ValueError, match="duplicate"):
            netlist.add_input("a")

    def test_duplicate_driver_rejected(self):
        netlist = build_simple()
        with pytest.raises(ValueError, match="already has a driver"):
            netlist.add_gate("n1", GateType.OR, ("a", "b"))

    def test_gate_driving_input_rejected(self):
        netlist = build_simple()
        with pytest.raises(ValueError, match="already has a driver"):
            netlist.add_gate("a", GateType.OR, ("n1", "b"))

    def test_duplicate_output_rejected(self):
        netlist = build_simple()
        with pytest.raises(ValueError, match="duplicate"):
            netlist.add_output("n2")

    def test_flip_flop_creates_driver(self):
        netlist = Netlist()
        netlist.add_input("d")
        netlist.add_flip_flop("q", "d")
        assert netlist.is_sequential
        assert netlist.has_driver("q")
        with pytest.raises(ValueError):
            netlist.add_gate("q", GateType.NOT, ("d",))


class TestQueries:
    def test_topological_order_respects_dependencies(self):
        netlist = build_simple()
        order = [gate.output for gate in netlist.topological_gates()]
        assert order.index("n1") < order.index("n2")

    def test_levels(self):
        netlist = build_simple()
        levels = netlist.levels()
        assert levels["a"] == 0
        assert levels["n1"] == 1
        assert levels["n2"] == 2
        assert netlist.depth == 2

    def test_cycle_detection(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("x", GateType.AND, ("a", "y"))
        netlist.add_gate("y", GateType.OR, ("x", "a"))
        with pytest.raises(ValueError, match="cycle"):
            netlist.topological_gates()

    def test_nets_lists_all_driven_nets(self):
        netlist = build_simple()
        assert set(netlist.nets) == {"a", "b", "n1", "n2"}

    def test_combinational_sources_include_flip_flop_outputs(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_flip_flop("q", "a")
        assert set(netlist.combinational_sources()) == {"a", "q"}

    def test_is_input_is_output(self):
        netlist = build_simple()
        assert netlist.is_input("a")
        assert not netlist.is_input("n1")
        assert netlist.is_output("n2")
        assert not netlist.is_output("n1")

    def test_gate_for(self):
        netlist = build_simple()
        assert netlist.gate_for("n1").gate_type is GateType.AND
        assert netlist.gate_for("a") is None

    def test_repr_mentions_counts(self):
        text = repr(build_simple())
        assert "gates=2" in text
        assert "inputs=2" in text


class TestCopy:
    def test_copy_is_structurally_identical(self):
        netlist = build_simple()
        clone = netlist.copy()
        assert clone.inputs == netlist.inputs
        assert clone.outputs == netlist.outputs
        assert {g.output for g in clone.gates} == {g.output for g in netlist.gates}

    def test_copy_is_independent(self):
        netlist = build_simple()
        clone = netlist.copy()
        clone.add_gate("extra", GateType.OR, ("a", "b"))
        assert netlist.gate_for("extra") is None

    def test_copy_preserves_flip_flops(self):
        netlist = Netlist()
        netlist.add_input("d")
        netlist.add_flip_flop("q", "d")
        clone = netlist.copy("renamed")
        assert clone.name == "renamed"
        assert clone.flip_flops[0].q == "q"
