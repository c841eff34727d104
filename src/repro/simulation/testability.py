"""SCOAP testability measures (CC0, CC1, CO).

The TGRL baseline [Pan & Mishra, ASP-DAC 2021] rewards test patterns by a
combination of net *rareness* and *testability*; the standard testability
metrics are the SCOAP combinational controllabilities (CC0/CC1: how hard it is
to set a net to 0/1) and observability (CO: how hard it is to propagate the
net to an output).  This module implements the classic SCOAP recurrences for
the gate library used in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.simulation.compiled import compile_netlist


@dataclass(frozen=True)
class Testability:
    """SCOAP measures for one net."""

    cc0: float
    cc1: float
    co: float


def scoap_testability(netlist: Netlist) -> dict[str, Testability]:
    """Compute SCOAP CC0/CC1/CO for every net of a combinational netlist.

    Shares the compiled engine's cached levelised gate schedule: the forward
    controllability sweep follows the compiled evaluation order and the
    backward observability sweep follows it in reverse (levels descending),
    which is a valid (reverse) topological order.  Sequential netlists (whose
    flip-flop outputs count as sources) fall back to the netlist's own
    topological order, as the compiled engine is combinational-only.
    """
    if netlist.is_sequential:
        sources = netlist.combinational_sources()
        order = netlist.topological_gates()
    else:
        compiled = compile_netlist(netlist)
        sources = compiled.sources
        order = compiled.levelized_gates()
    cc0: dict[str, float] = {}
    cc1: dict[str, float] = {}
    for net in sources:
        cc0[net] = 1.0
        cc1[net] = 1.0
    for gate in order:
        zero, one = _controllability(gate.gate_type,
                                     [(cc0[s], cc1[s]) for s in gate.inputs])
        cc0[gate.output] = zero
        cc1[gate.output] = one

    observability: dict[str, float] = {net: float("inf") for net in cc0}
    for net in netlist.outputs:
        if net in observability:
            observability[net] = 0.0
    for gate in reversed(order):
        out_co = observability.get(gate.output, float("inf"))
        for index, source in enumerate(gate.inputs):
            side_inputs = [s for j, s in enumerate(gate.inputs) if j != index]
            propagate_cost = _propagation_cost(gate.gate_type, side_inputs, cc0, cc1)
            candidate = out_co + propagate_cost + 1.0
            if candidate < observability[source]:
                observability[source] = candidate

    return {
        net: Testability(cc0=cc0[net], cc1=cc1[net], co=observability[net])
        for net in cc0
    }


def _controllability(
    gate_type: GateType, operands: list[tuple[float, float]]
) -> tuple[float, float]:
    """SCOAP (CC0, CC1) of a gate output from its input controllabilities."""
    zeros = [z for z, _ in operands]
    ones = [o for _, o in operands]
    if gate_type is GateType.AND:
        return min(zeros) + 1.0, sum(ones) + 1.0
    if gate_type is GateType.NAND:
        return sum(ones) + 1.0, min(zeros) + 1.0
    if gate_type is GateType.OR:
        return sum(zeros) + 1.0, min(ones) + 1.0
    if gate_type is GateType.NOR:
        return min(ones) + 1.0, sum(zeros) + 1.0
    if gate_type in (GateType.XOR, GateType.XNOR):
        even, odd = _parity_controllability(operands)
        if gate_type is GateType.XOR:
            return even + 1.0, odd + 1.0
        return odd + 1.0, even + 1.0
    if gate_type is GateType.NOT:
        return ones[0] + 1.0, zeros[0] + 1.0
    if gate_type is GateType.BUF:
        return zeros[0] + 1.0, ones[0] + 1.0
    raise ValueError(f"unknown gate type {gate_type!r}")


def _parity_controllability(operands: list[tuple[float, float]]) -> tuple[float, float]:
    """Cheapest cost of achieving an even / odd number of ones across inputs."""
    even_cost, odd_cost = 0.0, float("inf")
    for zero_cost, one_cost in operands:
        new_even = min(even_cost + zero_cost, odd_cost + one_cost)
        new_odd = min(even_cost + one_cost, odd_cost + zero_cost)
        even_cost, odd_cost = new_even, new_odd
    return even_cost, odd_cost


def _propagation_cost(
    gate_type: GateType,
    side_inputs: list[str],
    cc0: dict[str, float],
    cc1: dict[str, float],
) -> float:
    """Cost of setting side inputs to the gate's non-controlling values."""
    if gate_type in (GateType.AND, GateType.NAND):
        return sum(cc1[s] for s in side_inputs)
    if gate_type in (GateType.OR, GateType.NOR):
        return sum(cc0[s] for s in side_inputs)
    if gate_type in (GateType.XOR, GateType.XNOR):
        return sum(min(cc0[s], cc1[s]) for s in side_inputs)
    return 0.0


__all__ = ["Testability", "scoap_testability"]
