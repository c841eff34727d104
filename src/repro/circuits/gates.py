"""Primitive gate types.

Gates are the only combinational primitives in the netlist model.  Sequential
elements (D flip-flops) are represented separately by the netlist and are
removed by full-scan conversion before any analysis, mirroring the full scan
access assumption of the paper (§4.1).  The Boolean semantics of each type
are implemented once, on packed words, by the compiled engine
(:mod:`repro.simulation.compiled`); the test suite checks that engine against
a scalar evaluator of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class GateType(str, Enum):
    """Supported combinational gate types."""

    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"

    @property
    def min_inputs(self) -> int:
        """Minimum legal fan-in for this gate type."""
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return 2

    @property
    def max_inputs(self) -> int | None:
        """Maximum legal fan-in, or None for unbounded."""
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return None


@dataclass(frozen=True)
class Gate:
    """A single combinational gate.

    Attributes:
        output: name of the net driven by this gate.
        gate_type: the Boolean function computed.
        inputs: names of the input nets, in order.
    """

    output: str
    gate_type: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        n_inputs = len(self.inputs)
        if n_inputs < self.gate_type.min_inputs:
            raise ValueError(
                f"{self.gate_type.value} gate driving {self.output!r} needs at "
                f"least {self.gate_type.min_inputs} inputs, got {n_inputs}"
            )
        max_inputs = self.gate_type.max_inputs
        if max_inputs is not None and n_inputs > max_inputs:
            raise ValueError(
                f"{self.gate_type.value} gate driving {self.output!r} accepts at "
                f"most {max_inputs} inputs, got {n_inputs}"
            )

    @property
    def fanin(self) -> int:
        """Number of inputs."""
        return len(self.inputs)

