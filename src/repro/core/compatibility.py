"""Pairwise compatibility of rare nets (the paper's offline phase).

Two rare nets are *compatible* when some input pattern drives both to their
rare values simultaneously.  DETERRENT precomputes the full pairwise
compatibility dictionary before training (§3.3) so that action masking and the
end-of-episode state transitions become dictionary lookups instead of SAT
calls.  The paper parallelises this over 64 processes; here the O(r²) pair
queries are answered in order on one incremental SAT solver, and the result,
like the rare nets it starts from (:func:`cached_rare_nets`), is memoised in
the on-disk artifact cache (:mod:`repro.runner.cache`) when one is
configured.  Grid cells, not pair queries, are what run in parallel
(``deterrent run --jobs``).

The same structure doubles as the compatibility *graph* used by the TARMAC
baseline's maximal-clique sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.netlist import Netlist
from repro.runner.cache import cached, netlist_fingerprint
from repro.sat.justify import Justifier
from repro.simulation.rare_nets import RareNet, extract_rare_nets


@dataclass
class CompatibilityAnalysis:
    """Rare-net compatibility data for one netlist.

    Attributes:
        netlist: the analysed (combinational) netlist.
        rare_nets: the rare nets that are individually activatable, in the
            order used for all matrix/vector indexing.
        matrix: boolean pairwise-compatibility matrix; ``matrix[i, j]`` is True
            iff rare nets ``i`` and ``j`` can take their rare values together.
        unsatisfiable: rare nets from the input list that can never take their
            rare value (redundant/constant logic) and were dropped.
    """

    netlist: Netlist
    rare_nets: list[RareNet]
    matrix: np.ndarray
    unsatisfiable: list[RareNet]
    justifier: Justifier

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_rare_nets(self) -> int:
        """Number of individually-activatable rare nets."""
        return len(self.rare_nets)

    def index_of(self, net: str) -> int:
        """Index of a rare net by name."""
        for index, rare in enumerate(self.rare_nets):
            if rare.net == net:
                return index
        raise KeyError(f"net {net!r} is not among the analysed rare nets")

    def compatible(self, index_a: int, index_b: int) -> bool:
        """Pairwise compatibility by index."""
        return bool(self.matrix[index_a, index_b])

    def compatible_with_all(self, candidate: int, selected: set[int]) -> bool:
        """True if ``candidate`` is pairwise compatible with every selected index."""
        if not selected:
            return True
        selected_indices = np.fromiter(selected, dtype=np.int64)
        return bool(self.matrix[candidate, selected_indices].all())

    def requirements(self, indices: set[int] | list[int]) -> dict[str, int]:
        """Net -> rare-value mapping for a set of rare-net indices."""
        return {
            self.rare_nets[index].net: self.rare_nets[index].rare_value
            for index in indices
        }

    def set_is_satisfiable(self, indices: set[int] | list[int]) -> bool:
        """Exact SAT check: can all indexed rare nets take their rare values at once?"""
        if not indices:
            return True
        return self.justifier.is_satisfiable(self.requirements(indices))


Requirement = tuple[str, int]


def is_activatable(justifier: Justifier, requirement: Requirement) -> bool:
    """Pre-filter verdict: can this rare net take its rare value at all?"""
    net, value = requirement
    return justifier.is_satisfiable({net: value})


def pair_is_compatible(
    justifier: Justifier, pair: tuple[Requirement, Requirement]
) -> bool:
    """Pair verdict: can both rare nets take their rare values together?"""
    (net_i, value_i), (net_j, value_j) = pair
    return justifier.are_compatible({net_i: value_i}, {net_j: value_j})


def cached_rare_nets(
    netlist: Netlist, threshold: float, num_patterns: int, seed: int
) -> list[RareNet]:
    """Rare nets of a combinational ``netlist``: the ``rare_nets`` artifact.

    The one owner of that cache kind; the pipeline and
    :func:`repro.experiments.common.prepare_benchmark` both extract through it.
    """
    return cached(
        "rare_nets",
        lambda: extract_rare_nets(
            netlist, threshold=threshold, num_patterns=num_patterns, seed=seed
        ),
        netlist=netlist_fingerprint(netlist),
        threshold=threshold,
        num_patterns=num_patterns,
        seed=seed,
    )


def compute_compatibility(
    netlist: Netlist,
    rare_nets: list[RareNet],
    *,
    justifier: Justifier | None = None,
) -> CompatibilityAnalysis:
    """Build the :class:`CompatibilityAnalysis` for ``rare_nets`` of ``netlist``.

    Args:
        netlist: combinational netlist to analyse.
        rare_nets: candidate rare nets (order defines matrix indexing of the
            activatable subset).
        justifier: optional pre-built solver stack to reuse (also attached to
            the returned analysis for downstream witness generation).

    The result is the ``compatibility`` artifact of the default cache
    (:func:`repro.runner.cache.cached`), keyed by the netlist and the
    ordered rare nets; this function is that kind's only owner.  The
    boolean matrix is the same whether it was computed or read from the
    cache.  Downstream SAT *witnesses* are not guaranteed identical across
    the two: the CDCL solver keeps learned clauses, so a justifier that
    answered the pair queries itself is in a different state than a fresh
    one (cache hit), and may return different — equally valid — models for
    the same requirements.
    """
    justifier = justifier or Justifier(netlist)

    def _build() -> dict:
        # The O(r) activatability pre-filter runs first: the O(r²) pair
        # queries are defined over the *post-filter* subset.
        verdicts = [
            is_activatable(justifier, (rare.net, rare.rare_value)) for rare in rare_nets
        ]
        activatable = [rare for rare, ok in zip(rare_nets, verdicts) if ok]
        unsatisfiable = [rare for rare, ok in zip(rare_nets, verdicts) if not ok]

        requirements = [(rare.net, rare.rare_value) for rare in activatable]
        rows, cols = np.triu_indices(len(requirements), 1)
        compatible = [
            pair_is_compatible(justifier, (requirements[i], requirements[j]))
            for i, j in zip(rows, cols)
        ]
        matrix = np.eye(len(requirements), dtype=bool)
        matrix[rows, cols] = compatible
        matrix[cols, rows] = compatible
        return {"rare_nets": activatable, "matrix": matrix, "unsatisfiable": unsatisfiable}

    # Single-flight across processes: concurrent workers that need the same
    # analysis wait on one build instead of each running the O(r²) queries.
    artifact = cached(
        "compatibility",
        _build,
        netlist=netlist_fingerprint(netlist),
        rare_nets=[(rare.net, rare.rare_value) for rare in rare_nets],
    )
    return CompatibilityAnalysis(
        netlist=netlist,
        rare_nets=artifact["rare_nets"],
        matrix=artifact["matrix"],
        unsatisfiable=artifact["unsatisfiable"],
        justifier=justifier,
    )


__all__ = [
    "CompatibilityAnalysis",
    "cached_rare_nets",
    "compute_compatibility",
    "is_activatable",
    "pair_is_compatible",
]
