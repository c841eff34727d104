"""Test-pattern generation from compatible rare-net sets (and pattern containers).

A :class:`PatternSet` is the interface shared by DETERRENT and every baseline:
an ordered list of input patterns over the controllable nets of a netlist.
The Trojan evaluator consumes pattern sets; the experiments compare their
sizes and trigger coverage.

:class:`SequenceSet` is the sequential-workload counterpart: an ordered set
of multi-cycle input *sequences* over the primary inputs of a raw sequential
netlist, consumed by the multi-cycle Trojan evaluator
(:func:`repro.trojan.evaluation.sequence_trigger_coverage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.netlist import Netlist
from repro.core.compatibility import CompatibilityAnalysis
from repro.sat.justify import Justifier, greedy_maximal_subset
from repro.simulation.rare_nets import RareNet
from repro.utils.rng import RngLike, make_rng


@dataclass
class PatternSet:
    """An ordered set of test patterns for one netlist.

    Attributes:
        sources: the controllable nets, defining the column order of ``patterns``.
        patterns: 0/1 array of shape ``(num_patterns, len(sources))``.
        technique: name of the generating technique (for reports).
        metadata: free-form extra information (e.g. the compatible set sizes).
    """

    sources: tuple[str, ...]
    patterns: np.ndarray
    technique: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.patterns = np.atleast_2d(np.asarray(self.patterns, dtype=np.uint8))
        if self.patterns.size and self.patterns.shape[1] != len(self.sources):
            raise ValueError(
                f"pattern width {self.patterns.shape[1]} does not match "
                f"{len(self.sources)} source nets"
            )

    def __len__(self) -> int:
        return 0 if self.patterns.size == 0 else self.patterns.shape[0]

    @classmethod
    def empty(cls, netlist: Netlist, technique: str = "") -> "PatternSet":
        """An empty pattern set for ``netlist``."""
        sources = netlist.combinational_sources()
        return cls(sources=sources, patterns=np.zeros((0, len(sources)), dtype=np.uint8),
                   technique=technique)

    @classmethod
    def from_assignments(
        cls,
        netlist: Netlist,
        assignments: list[dict[str, int]],
        technique: str = "",
        metadata: dict | None = None,
    ) -> "PatternSet":
        """Build a pattern set from per-pattern net-name -> value mappings."""
        sources = netlist.combinational_sources()
        array = np.zeros((len(assignments), len(sources)), dtype=np.uint8)
        for row, assignment in enumerate(assignments):
            for column, net in enumerate(sources):
                array[row, column] = 1 if assignment.get(net, 0) else 0
        return cls(sources=sources, patterns=array, technique=technique,
                   metadata=metadata or {})


@dataclass
class SequenceSet:
    """An ordered set of multi-cycle test sequences for one sequential netlist.

    Attributes:
        inputs: the primary inputs, defining the last axis of ``sequences``.
        sequences: 0/1 array of shape ``(num_sequences, cycles, len(inputs))``;
            ``sequences[s, t]`` is the stimulus applied at clock cycle ``t``
            of sequence ``s``.  Every sequence starts from the reset state.
        technique: name of the generating technique (for reports).
        metadata: free-form extra information.
    """

    inputs: tuple[str, ...]
    sequences: np.ndarray
    technique: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sequences = np.asarray(self.sequences, dtype=np.uint8)
        if self.sequences.ndim != 3:
            raise ValueError(
                f"sequences must be 3-D (num_sequences, cycles, num_inputs), "
                f"got shape {self.sequences.shape}"
            )
        if self.sequences.size and self.sequences.shape[2] != len(self.inputs):
            raise ValueError(
                f"sequence width {self.sequences.shape[2]} does not match "
                f"{len(self.inputs)} input nets"
            )

    def __len__(self) -> int:
        return self.sequences.shape[0]

    @property
    def cycles(self) -> int:
        """Clock cycles per sequence."""
        return self.sequences.shape[1]

    @classmethod
    def random(
        cls,
        netlist: Netlist,
        num_sequences: int,
        cycles: int,
        seed: RngLike = None,
        technique: str = "Random",
    ) -> "SequenceSet":
        """Uniformly random stimulus — the baseline sequential workload."""
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        if num_sequences < 0:
            raise ValueError(f"num_sequences must be >= 0, got {num_sequences}")
        rng = make_rng(seed)
        inputs = netlist.inputs
        sequences = rng.integers(
            0, 2, size=(num_sequences, cycles, len(inputs)), dtype=np.uint8
        )
        return cls(inputs=inputs, sequences=sequences, technique=technique)


def pattern_witness_with_repair(
    justifier: Justifier, rare_set: tuple[RareNet, ...]
) -> tuple[dict[str, int] | None, int]:
    """Witness one compatible set, greedily repairing an unsatisfiable one.

    The first query asks for every net of ``rare_set`` in the given order.
    When that set has no witness, nets are re-added greedily rarest first,
    keeping each net only if the accumulated set stays satisfiable
    (:func:`repro.sat.justify.greedy_maximal_subset`).  This retains as many
    rare nets as possible, unlike simply truncating the set.  Returns
    ``(witness or None, number of requirements realised)``.
    """

    def requirements(rares) -> dict[str, int]:
        return {rare.net: rare.rare_value for rare in rares}

    witness = justifier.witness(requirements(rare_set))
    if witness is not None:
        return witness, len(rare_set)
    kept = greedy_maximal_subset(
        sorted(rare_set, key=lambda rare: rare.probability),
        lambda candidate: justifier.is_satisfiable(requirements(candidate)),
    )
    if not kept:
        return None, 0
    return justifier.witness(requirements(kept)), len(kept)


def generate_patterns(
    compatibility: CompatibilityAnalysis,
    compatible_sets: list[frozenset[int]],
    technique: str = "DETERRENT",
) -> PatternSet:
    """Generate one test pattern per compatible set using the SAT solver.

    Mirrors the last stage of the paper's flow: each of the ``k`` largest
    distinct sets of compatible rare nets is justified by the SAT solver,
    yielding an input pattern that drives every net in the set to its rare
    value.  Sets that turn out not to be jointly satisfiable (possible when
    the environment only used the pairwise approximation) are repaired by
    :func:`pattern_witness_with_repair`.  Every set is answered in order on
    the analysis's own incremental solver.
    """
    results = [
        pattern_witness_with_repair(
            compatibility.justifier,
            tuple(compatibility.rare_nets[index] for index in indices),
        )
        for indices in compatible_sets
    ]
    found = [(witness, realized) for witness, realized in results if witness is not None]
    return PatternSet.from_assignments(
        compatibility.netlist,
        [witness for witness, _ in found],
        technique=technique,
        metadata={"set_sizes": [realized for _, realized in found]},
    )


__all__ = ["PatternSet", "SequenceSet", "generate_patterns", "pattern_witness_with_repair"]
