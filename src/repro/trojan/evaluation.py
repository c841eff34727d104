"""Trigger-coverage evaluation of test-pattern sets.

Trigger coverage (footnote 2 of the paper) is the proportion of sampled
Trojan trigger conditions that a pattern set activates.  Because a trigger is
a conjunction of internal net values, coverage can be measured on the *golden*
netlist: simulate the pattern set once, then check per Trojan whether any
pattern drives all trigger nets to their required values simultaneously.
This is exactly what simulating the HT-infected netlist and comparing outputs
against the golden response would conclude, at a fraction of the cost.

Since the compiled-engine refactor this module evaluates a whole Trojan
population in ONE batched pass: the clean netlist is simulated once on the
compiled engine (:mod:`repro.simulation.compiled`), and every trigger
conjunction is checked directly on the packed ``uint64`` value matrix —
triggers of equal width are stacked and AND-reduced together, so no value is
ever unpacked to per-pattern bits except the final per-trigger activation
rows.  The historical one-netlist-per-Trojan flow survives as
:func:`sequential_trigger_coverage`, which really inserts each Trojan and
simulates the infected netlist against the golden response; it is the slow
reference used by the parity tests and by anyone who wants to double-check
the batched shortcut end to end.

**Multi-cycle triggers.** :func:`sequence_trigger_coverage` extends the
batched trick across clock cycles: the clean *sequential* netlist is stepped
once over the whole sequence set, each cycle's per-trigger activation words
come from one packed AND-reduce (:func:`repro.simulation.compiled
.conjunction_words`), and the temporal rules are evaluated with bit-plane
accumulators — ``k`` packed planes per trigger group tracking "streak length
>= i" (consecutive) or "activation count >= i" (cumulative) per sequence
lane, i.e. O(k) word-ops per cycle and never an unpacked bit until the final
verdict.  :func:`sequence_ground_truth_coverage` is its per-Trojan oracle:
every infected netlist (with its real shift-register/counter hardware) is
clocked over the sequence set and compared against the golden response.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.netlist import Netlist
from repro.core.patterns import PatternSet, SequenceSet
from repro.simulation.compiled import (
    batched_conjunctions,
    compile_netlist,
    compile_sequential_netlist,
    conjunction_words,
    unpack_matrix,
)
from repro.simulation.logic_sim import pack_patterns, simulate_sequences
from repro.trojan.insertion import insert_sequential_trojan, insert_trojan
from repro.trojan.model import SequentialTrojan, Trojan


@dataclass
class CoverageResult:
    """Coverage of one pattern set against one Trojan population."""

    technique: str
    num_trojans: int
    num_detected: int
    test_length: int
    detected: list[bool] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Trigger coverage in [0, 1]."""
        if self.num_trojans == 0:
            return 0.0
        return self.num_detected / self.num_trojans

    @property
    def coverage_percent(self) -> float:
        """Trigger coverage in percent (as reported in the paper's tables)."""
        return 100.0 * self.coverage


def _activation_matrix(
    netlist: Netlist, trojans: list[Trojan], pattern_set: PatternSet
) -> np.ndarray:
    """Boolean matrix ``[trojan, pattern]``: does the pattern fire the trigger?

    One compiled simulation of the clean netlist answers the whole Trojan
    population: each trigger is a conjunction over rows of the packed value
    matrix, evaluated in bulk by :func:`batched_conjunctions`.
    """
    if len(pattern_set) == 0 or not trojans:
        return np.zeros((len(trojans), len(pattern_set)), dtype=bool)
    compiled = compile_netlist(netlist)
    if tuple(pattern_set.sources) != tuple(compiled.sources):
        raise ValueError(
            "pattern set source ordering does not match the netlist's controllable nets"
        )
    packed, num_patterns = pack_patterns(pattern_set.patterns)
    matrix = compiled.run_packed(packed)
    conjunctions: list[tuple[np.ndarray, np.ndarray]] = []
    for trojan in trojans:
        ids = np.empty(trojan.trigger.width, dtype=np.int64)
        required = np.empty(trojan.trigger.width, dtype=np.uint8)
        for position, (net, value) in enumerate(trojan.trigger.requirements):
            if net not in compiled:
                raise KeyError(
                    f"trigger net {net!r} does not exist in netlist {netlist.name!r}"
                )
            ids[position] = compiled.index_of(net)
            required[position] = value
        conjunctions.append((ids, required))
    return batched_conjunctions(matrix, conjunctions, num_patterns)


def trigger_coverage(
    netlist: Netlist, trojans: list[Trojan], pattern_set: PatternSet
) -> CoverageResult:
    """Fraction of Trojans whose trigger is activated by at least one pattern."""
    activations = _activation_matrix(netlist, trojans, pattern_set)
    detected = activations.any(axis=1) if activations.size else np.zeros(len(trojans), dtype=bool)
    return CoverageResult(
        technique=pattern_set.technique,
        num_trojans=len(trojans),
        num_detected=int(detected.sum()),
        test_length=len(pattern_set),
        detected=[bool(flag) for flag in detected],
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
    """Per-Trojan reference evaluation: simulate every infected netlist.

    For each Trojan the infected netlist is actually built
    (:func:`repro.trojan.insertion.insert_trojan`) and simulated on the full
    pattern set; the Trojan counts as detected when any primary output differs
    from the golden response.  This is the paper's literal logic-testing flow
    and the ground truth that :func:`trigger_coverage`'s batched shortcut is
    tested against — use it for audits, not in hot loops.
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
    return CoverageResult(
        technique=pattern_set.technique,
        num_trojans=len(trojans),
        num_detected=int(sum(detected)),
        test_length=len(pattern_set),
        detected=detected,
    )


def _sequence_conjunctions(
    compiled, trojans: list[SequentialTrojan]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-trojan (net ids, required values) on the sequential engine's rows."""
    conjunctions: list[tuple[np.ndarray, np.ndarray]] = []
    for trojan in trojans:
        requirements = trojan.trigger.condition.requirements
        ids = np.empty(len(requirements), dtype=np.int64)
        required = np.empty(len(requirements), dtype=np.uint8)
        for position, (net, value) in enumerate(requirements):
            if net not in compiled:
                raise KeyError(
                    f"trigger net {net!r} does not exist in netlist "
                    f"{compiled.netlist.name!r}"
                )
            ids[position] = compiled.index_of(net)
            required[position] = value
        conjunctions.append((ids, required))
    return conjunctions


def sequence_trigger_coverage(
    netlist: Netlist, trojans: list[SequentialTrojan], sequence_set: SequenceSet
) -> CoverageResult:
    """Batched multi-cycle trigger coverage on one clean-netlist simulation.

    The sequential netlist is stepped once across the whole sequence set;
    per-cycle trigger activations stay packed (64 sequences per word), and
    each temporal rule runs as bit-plane accumulators over the per-cycle
    activation words.  A Trojan counts as detected when its trigger fires in
    any cycle of any sequence — which, by the output-pin payload construction
    of :func:`repro.trojan.insertion.insert_sequential_trojan`, is exactly
    when the infected netlist's outputs diverge from the golden response
    (asserted by the parity tests against
    :func:`sequence_ground_truth_coverage`).
    """
    if tuple(sequence_set.inputs) != tuple(netlist.inputs):
        raise ValueError(
            "sequence set input ordering does not match the netlist's primary inputs"
        )
    num_sequences = len(sequence_set)
    if num_sequences == 0 or not trojans:
        return CoverageResult(
            technique=sequence_set.technique,
            num_trojans=len(trojans),
            num_detected=0,
            test_length=num_sequences,
            detected=[False] * len(trojans),
        )
    compiled = compile_sequential_netlist(netlist)
    tensor, num_sequences = compiled.run_sequences(sequence_set.sequences)
    cycles, _, num_words = tensor.shape
    conjunctions = _sequence_conjunctions(compiled, trojans)

    # Group by (mode, count): every group shares one set of bit-plane
    # accumulators of depth ``count``.
    groups: dict[tuple[str, int], list[int]] = {}
    for position, trojan in enumerate(trojans):
        key = (trojan.trigger.mode, trojan.trigger.count)
        groups.setdefault(key, []).append(position)

    detected_words = np.zeros((len(trojans), num_words), dtype=np.uint64)
    for (mode, count), positions in groups.items():
        group_conjunctions = [conjunctions[p] for p in positions]
        # planes[i] tracks, per packed lane, "streak >= i+1 ending at this
        # cycle" (consecutive) or "activation count >= i+1 so far" (cumulative).
        planes = np.zeros((count, len(positions), num_words), dtype=np.uint64)
        group_detected = np.zeros((len(positions), num_words), dtype=np.uint64)
        for cycle in range(cycles):
            fired = conjunction_words(tensor[cycle], group_conjunctions)
            if mode == "consecutive":
                if count > 1:
                    planes[1:] = fired & planes[:-1]
                planes[0] = fired
                group_detected |= planes[count - 1]
            else:  # cumulative
                for depth in range(count - 1, 0, -1):
                    planes[depth] |= fired & planes[depth - 1]
                planes[0] |= fired
        if mode == "cumulative":
            group_detected = planes[count - 1]
        detected_words[positions] = group_detected

    detected_bits = unpack_matrix(detected_words, num_sequences)
    detected = detected_bits.any(axis=1)
    return CoverageResult(
        technique=sequence_set.technique,
        num_trojans=len(trojans),
        num_detected=int(detected.sum()),
        test_length=num_sequences,
        detected=[bool(flag) for flag in detected],
    )


def sequence_ground_truth_coverage(
    netlist: Netlist, trojans: list[SequentialTrojan], sequence_set: SequenceSet
) -> CoverageResult:
    """Per-Trojan reference: clock every infected sequential netlist.

    Each Trojan's infected netlist — including its real shift-register or
    thermometer-counter hardware — is simulated over the full sequence set
    with the naive cycle loop; the Trojan counts as detected when any primary
    output differs from the golden response in any cycle of any sequence.
    This is the literal logic-testing flow and the ground truth the batched
    :func:`sequence_trigger_coverage` is tested against — use it for audits,
    not in hot loops.
    """
    if tuple(sequence_set.inputs) != tuple(netlist.inputs):
        raise ValueError(
            "sequence set input ordering does not match the netlist's primary inputs"
        )
    detected: list[bool] = []
    golden_outputs: dict[str, np.ndarray] | None = None
    if len(sequence_set) and trojans:
        golden = simulate_sequences(netlist, sequence_set.sequences)
        golden_outputs = {net: golden[net] for net in netlist.outputs}
    for trojan in trojans:
        if golden_outputs is None:
            detected.append(False)
            continue
        infected = insert_sequential_trojan(netlist, trojan)
        values = simulate_sequences(infected, sequence_set.sequences)
        detected.append(
            any(
                not np.array_equal(values[net], golden_outputs[net])
                for net in netlist.outputs
            )
        )
    return CoverageResult(
        technique=sequence_set.technique,
        num_trojans=len(trojans),
        num_detected=int(sum(detected)),
        test_length=len(sequence_set),
        detected=detected,
    )


def coverage_curve(
    netlist: Netlist, trojans: list[Trojan], pattern_set: PatternSet
) -> list[tuple[int, float]]:
    """Cumulative trigger coverage after each pattern (Figure 6 of the paper).

    Returns a list of ``(num_patterns, coverage_percent)`` points, one per
    pattern in the order the technique emitted them.
    """
    activations = _activation_matrix(netlist, trojans, pattern_set)
    points: list[tuple[int, float]] = []
    if not trojans:
        return points
    detected = np.zeros(len(trojans), dtype=bool)
    for pattern_index in range(len(pattern_set)):
        detected |= activations[:, pattern_index]
        points.append((pattern_index + 1, 100.0 * detected.mean()))
    return points


__all__ = [
    "CoverageResult",
    "trigger_coverage",
    "sequential_trigger_coverage",
    "sequence_trigger_coverage",
    "sequence_ground_truth_coverage",
    "coverage_curve",
]
