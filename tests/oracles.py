"""Test oracles: the slow, literal simulations the fast paths are checked against.

Nothing in the package runs these; they exist so that the compiled engine and
the batched Trojan evaluators have something independent to agree with.

- :func:`evaluate_gate` is the scalar semantics of one gate.
- :func:`reference_values`, :func:`reference_patterns` and
  :func:`reference_count_ones` form the per-gate interpreter: it evaluates
  one gate at a time on packed words, in topological order, and shares no
  code with the compiled engine's grouped schedule.
- :func:`run_patterns` and :func:`simulate_pattern` are per-net dict views
  of the compiled engine, for tests that need speed rather than
  independence.
- :func:`simulate_sequences` is the naive cycle loop over the full-scan core.
- :func:`sequential_trigger_coverage` and
  :func:`sequence_ground_truth_coverage` are the paper's literal
  logic-testing flow (§4.1): insert each Trojan, simulate the infected
  netlist, compare its outputs with the golden response.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.circuits.scan import ensure_combinational, sequential_interface
from repro.core.patterns import PatternSet, SequenceSet
from repro.simulation.compiled import compile_netlist, pack_patterns, unpack_matrix
from repro.trojan.evaluation import CoverageResult
from repro.trojan.insertion import insert_sequential_trojan, insert_trojan
from repro.trojan.model import SequentialTrojan, Trojan
from repro.utils.rng import RngLike, make_rng

_WORD_BITS = 64

#: ``(netlist, patterns) -> {net: 0/1 vector}``: one combinational simulation.
Simulate = Callable[[Netlist, np.ndarray], dict[str, np.ndarray]]


def evaluate_gate(gate_type: GateType, values: list[int] | tuple[int, ...]) -> int:
    """Evaluate a gate on scalar 0/1 input values."""
    if not values:
        raise ValueError("gate evaluation requires at least one input value")
    if gate_type is GateType.AND:
        return int(all(values))
    if gate_type is GateType.NAND:
        return int(not all(values))
    if gate_type is GateType.OR:
        return int(any(values))
    if gate_type is GateType.NOR:
        return int(not any(values))
    if gate_type is GateType.XOR:
        return int(sum(values) % 2)
    if gate_type is GateType.XNOR:
        return int((sum(values) + 1) % 2)
    if gate_type is GateType.NOT:
        return int(not values[0])
    if gate_type is GateType.BUF:
        return int(bool(values[0]))
    raise ValueError(f"unknown gate type: {gate_type!r}")


# ----------------------------------------------------------------------
# The per-gate interpreter
# ----------------------------------------------------------------------
def _evaluate_packed(gate_type: GateType, operands: list[np.ndarray]) -> np.ndarray:
    """Evaluate one gate on packed 64-bit words."""
    result = operands[0].copy()
    if gate_type in (GateType.AND, GateType.NAND):
        for operand in operands[1:]:
            result &= operand
    elif gate_type in (GateType.OR, GateType.NOR):
        for operand in operands[1:]:
            result |= operand
    elif gate_type in (GateType.XOR, GateType.XNOR):
        for operand in operands[1:]:
            result ^= operand
    elif gate_type is not GateType.BUF and gate_type is not GateType.NOT:
        raise ValueError(f"unknown gate type {gate_type!r}")
    if gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT):
        result = ~result
    return result


def reference_values(netlist: Netlist, packed_inputs: np.ndarray) -> dict[str, np.ndarray]:
    """Packed words of every net, one gate at a time in topological order.

    ``packed_inputs`` has one row per controllable net, in
    ``netlist.combinational_sources()`` order.  The mapping lists the sources
    first, then the gate outputs: the compiled engine's ``net_names`` order.
    """
    if netlist.is_sequential:
        raise ValueError("the per-gate interpreter needs a combinational netlist")
    values = {
        net: np.asarray(packed_inputs[index], dtype=np.uint64).copy()
        for index, net in enumerate(netlist.combinational_sources())
    }
    for gate in netlist.topological_gates():
        values[gate.output] = _evaluate_packed(
            gate.gate_type, [values[source] for source in gate.inputs]
        )
    return values


def reference_patterns(netlist: Netlist, patterns: np.ndarray) -> dict[str, np.ndarray]:
    """Per-net 0/1 responses to a ``(num_patterns, num_sources)`` array."""
    packed, num_patterns = pack_patterns(np.atleast_2d(np.asarray(patterns)))
    return {
        net: unpack_matrix(words, num_patterns)[0]
        for net, words in reference_values(netlist, packed).items()
    }


def reference_count_ones(
    netlist: Netlist, num_patterns: int, seed: RngLike = None
) -> dict[str, int]:
    """Per-net 1-counts over random patterns drawn as ``CompiledNetlist.count_ones`` draws them."""
    num_sources = len(netlist.combinational_sources())
    num_words = max(1, (num_patterns + _WORD_BITS - 1) // _WORD_BITS)
    packed = make_rng(seed).integers(
        0, 2**64 - 1, size=(num_sources, num_words), dtype=np.uint64, endpoint=True
    )
    tail_bits = num_patterns - (num_words - 1) * _WORD_BITS
    mask = np.uint64((1 << tail_bits) - 1) if 0 < tail_bits < _WORD_BITS else None
    if mask is not None:
        packed[:, -1] &= mask
    counts = {}
    for net, words in reference_values(netlist, packed).items():
        if mask is not None:
            words[-1] &= mask
        counts[net] = int(np.bitwise_count(words).sum())
    return counts


# ----------------------------------------------------------------------
# Dict views of the compiled engine
# ----------------------------------------------------------------------
def run_patterns(netlist: Netlist, patterns: np.ndarray) -> dict[str, np.ndarray]:
    """Per-net 0/1 responses to a ``(num_patterns, num_sources)`` array, compiled."""
    compiled = compile_netlist(netlist)
    matrix, num_patterns = compiled.run_patterns(patterns)
    return dict(zip(compiled.net_names, unpack_matrix(matrix, num_patterns)))


def simulate_pattern(netlist: Netlist, assignment: dict[str, int]) -> dict[str, int]:
    """Every net's value under one net-name -> 0/1 assignment of the sources."""
    sources = netlist.combinational_sources()
    missing = [net for net in sources if net not in assignment]
    if missing:
        raise KeyError(f"assignment missing controllable net {missing[0]!r}")
    vector = np.array([[1 if assignment[net] else 0 for net in sources]], dtype=np.uint8)
    return {net: int(bits[0]) for net, bits in run_patterns(netlist, vector).items()}


def simulate_sequences(
    netlist: Netlist,
    sequences: np.ndarray,
    initial_state: np.ndarray | None = None,
    simulate: Simulate = run_patterns,
) -> dict[str, np.ndarray]:
    """Naive multi-cycle simulation: clock the full-scan core one cycle at a time.

    ``sequences`` is a 0/1 array ``(num_sequences, cycles, num_inputs)`` of
    primary-input stimuli; ``initial_state`` an optional 0/1 array
    ``(num_sequences, num_state_bits)`` of flip-flop values entering cycle 0
    (default: all-zero reset).  ``simulate`` runs each cycle; pass
    :func:`reference_patterns` for a loop that shares nothing with the
    compiled engine.  Returns net -> 0/1 array ``(cycles, num_sequences)``.
    """
    interface = sequential_interface(netlist)
    sequences = np.asarray(sequences, dtype=np.uint8)
    if sequences.ndim != 3 or sequences.shape[2] != len(interface.inputs):
        raise ValueError(
            f"sequences must have shape (num_sequences, cycles, "
            f"{len(interface.inputs)}), got {sequences.shape}"
        )
    num_sequences, cycles, _ = sequences.shape
    if initial_state is None:
        state = np.zeros((num_sequences, interface.num_state_bits), dtype=np.uint8)
    else:
        state = np.asarray(initial_state, dtype=np.uint8)
    core = ensure_combinational(netlist)
    history: dict[str, list[np.ndarray]] = {}
    for cycle in range(cycles):
        values = simulate(core, np.hstack([sequences[:, cycle, :], state]))
        for net, bits in values.items():
            history.setdefault(net, []).append(bits)
        state = np.column_stack([values[d] for d in interface.next_state])
    return {net: np.stack(per_cycle) for net, per_cycle in history.items()}


# ----------------------------------------------------------------------
# Trojan coverage by simulating every infected netlist
# ----------------------------------------------------------------------
def _coverage(technique: str, test_length: int, detected: list[bool]) -> CoverageResult:
    return CoverageResult(
        technique=technique,
        num_trojans=len(detected),
        num_detected=int(sum(detected)),
        test_length=test_length,
        detected=detected,
    )


def _output_bits(
    netlist: Netlist, outputs: tuple[str, ...], patterns: np.ndarray
) -> np.ndarray:
    """0/1 responses ``[output, pattern]`` of ``netlist`` on ``patterns``."""
    compiled = compile_netlist(netlist)
    matrix, num_patterns = compiled.run_patterns(patterns)
    return unpack_matrix(matrix[[compiled.index_of(net) for net in outputs]], num_patterns)


def sequential_trigger_coverage(
    netlist: Netlist, trojans: list[Trojan], pattern_set: PatternSet
) -> CoverageResult:
    """Build and simulate every infected netlist on the whole pattern set.

    A Trojan counts as detected when any primary output differs from the
    golden response: the oracle for ``trigger_coverage``.
    """
    if tuple(pattern_set.sources) != tuple(netlist.combinational_sources()):
        raise ValueError(
            "pattern set source ordering does not match the netlist's controllable nets"
        )
    detected = [False] * len(trojans)
    if len(pattern_set) and trojans:
        patterns, outputs = pattern_set.patterns, netlist.outputs
        golden = _output_bits(netlist, outputs, patterns)
        detected = [
            not np.array_equal(
                _output_bits(insert_trojan(netlist, trojan), outputs, patterns), golden
            )
            for trojan in trojans
        ]
    return _coverage(pattern_set.technique, len(pattern_set), detected)


def sequence_ground_truth_coverage(
    netlist: Netlist, trojans: list[SequentialTrojan], sequence_set: SequenceSet
) -> CoverageResult:
    """Clock every infected sequential netlist over the whole sequence set.

    Each infected netlist carries its real shift-register or counter
    hardware; a Trojan counts as detected when any primary output differs
    from the golden response in any cycle of any sequence: the oracle for
    ``sequence_trigger_coverage``.
    """
    if tuple(sequence_set.inputs) != tuple(netlist.inputs):
        raise ValueError(
            "sequence set input ordering does not match the netlist's primary inputs"
        )
    detected = [False] * len(trojans)
    if len(sequence_set) and trojans:
        golden = simulate_sequences(netlist, sequence_set.sequences)
        detected = []
        for trojan in trojans:
            infected = simulate_sequences(
                insert_sequential_trojan(netlist, trojan), sequence_set.sequences
            )
            detected.append(
                any(not np.array_equal(infected[net], golden[net]) for net in netlist.outputs)
            )
    return _coverage(sequence_set.technique, len(sequence_set), detected)
