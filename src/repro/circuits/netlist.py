"""The gate-level netlist container.

A :class:`Netlist` is a named collection of primary inputs, primary outputs,
combinational gates, and D flip-flops.  All analyses in the library
(simulation, SAT encoding, rare-net extraction, Trojan insertion) operate on
this class.

Nets are identified by strings.  Each net has exactly one driver: a primary
input, a gate output, or a flip-flop Q output.  Sequential circuits are
handled through full-scan conversion (:mod:`repro.circuits.scan`), which turns
flip-flop outputs into pseudo primary inputs and flip-flop inputs into pseudo
primary outputs, exactly matching the full-scan-access assumption the paper
makes for the ISCAS-89 and MIPS benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import Gate, GateType


@dataclass(frozen=True)
class FlipFlop:
    """A D flip-flop: ``q`` samples ``d`` at each (implicit) clock edge."""

    q: str
    d: str


class Netlist:
    """A gate-level circuit.

    The class maintains the invariant that every net has a single driver and
    exposes cached structural queries (topological order, fan-out, levels)
    that are recomputed lazily after mutation.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._flip_flops: dict[str, FlipFlop] = {}
        self._input_set: set[str] = set()
        self._output_set: set[str] = set()
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self._input_set:
            raise ValueError(f"duplicate primary input {name!r}")
        if self.has_driver(name):
            raise ValueError(f"net {name!r} already has a driver")
        self._inputs.append(name)
        self._input_set.add(name)
        self._invalidate()
        return name

    def add_output(self, name: str) -> str:
        """Declare a primary output net (may be driven later)."""
        if name in self._output_set:
            raise ValueError(f"duplicate primary output {name!r}")
        self._outputs.append(name)
        self._output_set.add(name)
        self._invalidate()
        return name

    def add_gate(self, output: str, gate_type: GateType, inputs: list[str] | tuple[str, ...]) -> Gate:
        """Add a combinational gate driving ``output``."""
        if self.has_driver(output):
            raise ValueError(f"net {output!r} already has a driver")
        gate = Gate(output=output, gate_type=gate_type, inputs=tuple(inputs))
        self._gates[output] = gate
        self._invalidate()
        return gate

    def add_flip_flop(self, q: str, d: str) -> FlipFlop:
        """Add a D flip-flop whose output net is ``q`` and data input is ``d``."""
        if self.has_driver(q):
            raise ValueError(f"net {q!r} already has a driver")
        ff = FlipFlop(q=q, d=d)
        self._flip_flops[q] = ff
        self._invalidate()
        return ff

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input nets, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary output nets, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """All combinational gates."""
        return tuple(self._gates.values())

    @property
    def flip_flops(self) -> tuple[FlipFlop, ...]:
        """All D flip-flops."""
        return tuple(self._flip_flops.values())

    @property
    def num_gates(self) -> int:
        """Number of combinational gates."""
        return len(self._gates)

    @property
    def is_sequential(self) -> bool:
        """True if the netlist contains flip-flops."""
        return bool(self._flip_flops)

    @property
    def nets(self) -> tuple[str, ...]:
        """All nets: inputs, flip-flop outputs, then gate outputs in topological order."""
        return tuple(self._inputs) + tuple(self._flip_flops) + tuple(
            gate.output for gate in self.topological_gates()
        )

    def is_input(self, net: str) -> bool:
        """True if ``net`` is a primary input."""
        return net in self._input_set

    def is_output(self, net: str) -> bool:
        """True if ``net`` is a primary output."""
        return net in self._output_set

    def has_driver(self, net: str) -> bool:
        """True if ``net`` is driven by an input, a gate, or a flip-flop."""
        return net in self._input_set or net in self._gates or net in self._flip_flops

    def gate_for(self, net: str) -> Gate | None:
        """Return the gate driving ``net``, or None."""
        return self._gates.get(net)

    def topological_gates(self) -> tuple[Gate, ...]:
        """Gates in a topological order (inputs before consumers).

        Raises ValueError if the combinational logic contains a cycle.
        """
        cached = self._cache.get("topo")
        if cached is None:
            cached = self._compute_topological_order()
            self._cache["topo"] = cached
        return cached  # type: ignore[return-value]

    def levels(self) -> dict[str, int]:
        """Logic level of each net (inputs and flip-flop outputs are level 0)."""
        cached = self._cache.get("levels")
        if cached is None:
            levels: dict[str, int] = {net: 0 for net in self._inputs}
            levels.update({q: 0 for q in self._flip_flops})
            for gate in self.topological_gates():
                levels[gate.output] = 1 + max(
                    (levels.get(source, 0) for source in gate.inputs), default=0
                )
            cached = levels
            self._cache["levels"] = cached
        return dict(cached)  # type: ignore[arg-type]

    @property
    def depth(self) -> int:
        """Maximum logic level over all nets."""
        levels = self.levels()
        return max(levels.values(), default=0)

    def combinational_sources(self) -> tuple[str, ...]:
        """Nets that act as sources of the combinational logic.

        Primary inputs plus flip-flop Q outputs; under full scan these are the
        controllable nets of a test pattern.
        """
        return tuple(self._inputs) + tuple(self._flip_flops)

    def memo(self, key: str, builder):
        """Return a cached derived structure, building it on first use.

        The cache is invalidated whenever the netlist mutates, so expensive
        derived views (levelised schedules, compiled simulators) stay
        consistent with the structure without explicit lifetime management.
        """
        cached = self._cache.get(key)
        if cached is None:
            cached = builder()
            self._cache[key] = cached
        return cached

    def copy(self, name: str | None = None) -> "Netlist":
        """Return a deep structural copy of the netlist."""
        clone = Netlist(name or self.name)
        for net in self._inputs:
            clone.add_input(net)
        for net in self._outputs:
            clone.add_output(net)
        for ff in self._flip_flops.values():
            clone.add_flip_flop(ff.q, ff.d)
        for gate in self._gates.values():
            clone.add_gate(gate.output, gate.gate_type, gate.inputs)
        return clone

    def __repr__(self) -> str:
        return (
            f"Netlist(name={self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={len(self._gates)}, "
            f"flip_flops={len(self._flip_flops)})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._cache.clear()

    def _compute_topological_order(self) -> tuple[Gate, ...]:
        in_degree: dict[str, int] = {}
        for gate in self._gates.values():
            in_degree[gate.output] = sum(
                1 for source in gate.inputs if source in self._gates
            )
        fanout: dict[str, list[str]] = {}
        for gate in self._gates.values():
            for source in gate.inputs:
                if source in self._gates:
                    fanout.setdefault(source, []).append(gate.output)
        ready = [net for net, degree in in_degree.items() if degree == 0]
        order: list[Gate] = []
        while ready:
            net = ready.pop()
            order.append(self._gates[net])
            for sink in fanout.get(net, ()):
                in_degree[sink] -= 1
                if in_degree[sink] == 0:
                    ready.append(sink)
        if len(order) != len(self._gates):
            unresolved = sorted(set(self._gates) - {gate.output for gate in order})
            raise ValueError(
                f"combinational cycle detected involving nets: {unresolved[:5]}"
            )
        return tuple(order)


__all__ = ["Netlist", "FlipFlop"]
