"""Fluent construction API for gate-level netlists.

:class:`NetlistBuilder` wraps a :class:`~repro.circuits.netlist.Netlist` with
automatic net naming and convenience methods for each gate type, so that the
word-level blocks in :mod:`repro.circuits.blocks` and the benchmark generators
read like structural RTL.
"""

from __future__ import annotations

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist


class NetlistBuilder:
    """Incrementally builds a :class:`Netlist` with generated net names."""

    def __init__(self, name: str = "top") -> None:
        self.netlist = Netlist(name)
        self._counter = 0

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def input(self, name: str) -> str:
        """Declare a single primary input."""
        return self.netlist.add_input(name)

    def inputs(self, prefix: str, width: int) -> list[str]:
        """Declare a bus of ``width`` primary inputs named ``prefix[i]``."""
        return [self.netlist.add_input(f"{prefix}[{i}]") for i in range(width)]

    def output(self, net: str, name: str | None = None) -> str:
        """Mark ``net`` as a primary output, optionally buffering it under ``name``."""
        if name is not None and name != net:
            self.gate(GateType.BUF, [net], name=name)
            net = name
        self.netlist.add_output(net)
        return net

    def outputs(self, nets: list[str], prefix: str | None = None) -> list[str]:
        """Mark a list of nets as primary outputs, optionally renaming to ``prefix[i]``."""
        result = []
        for index, net in enumerate(nets):
            name = f"{prefix}[{index}]" if prefix is not None else None
            result.append(self.output(net, name=name))
        return result

    def flip_flop(self, d: str, q: str | None = None) -> str:
        """Add a D flip-flop fed by ``d`` and return its Q net."""
        q = q or self.fresh("ff_q")
        self.netlist.add_flip_flop(q, d)
        return q

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def fresh(self, hint: str = "n") -> str:
        """Return a fresh unique net name."""
        self._counter += 1
        return f"{hint}_{self._counter}"

    def gate(self, gate_type: GateType, inputs: list[str], name: str | None = None) -> str:
        """Add a gate and return its output net name."""
        output = name or self.fresh(gate_type.value.lower())
        self.netlist.add_gate(output, gate_type, inputs)
        return output

    def and_(self, *inputs: str, name: str | None = None) -> str:
        """AND of two or more nets."""
        return self._reduce(GateType.AND, list(inputs), name)

    def or_(self, *inputs: str, name: str | None = None) -> str:
        """OR of two or more nets."""
        return self._reduce(GateType.OR, list(inputs), name)

    def nor(self, *inputs: str, name: str | None = None) -> str:
        """NOR of two or more nets."""
        return self.gate(GateType.NOR, list(inputs), name)

    def xor(self, *inputs: str, name: str | None = None) -> str:
        """XOR of two or more nets."""
        return self._reduce(GateType.XOR, list(inputs), name)

    def xnor(self, *inputs: str, name: str | None = None) -> str:
        """XNOR of two or more nets."""
        return self.gate(GateType.XNOR, list(inputs), name)

    def not_(self, source: str, name: str | None = None) -> str:
        """Inverter."""
        return self.gate(GateType.NOT, [source], name)

    def buf(self, source: str, name: str | None = None) -> str:
        """Buffer."""
        return self.gate(GateType.BUF, [source], name)

    def mux2(self, select: str, when_zero: str, when_one: str, name: str | None = None) -> str:
        """2:1 multiplexer built from AND/OR/NOT gates."""
        select_n = self.not_(select)
        low = self.and_(select_n, when_zero)
        high = self.and_(select, when_one)
        return self.or_(low, high, name=name)

    def build(self) -> Netlist:
        """Return the constructed netlist."""
        return self.netlist

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reduce(self, gate_type: GateType, inputs: list[str], name: str | None) -> str:
        """Build a wide gate directly; single input degenerates to a buffer."""
        if len(inputs) == 1:
            return self.buf(inputs[0], name=name)
        return self.gate(gate_type, inputs, name)


__all__ = ["NetlistBuilder"]
