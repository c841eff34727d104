"""Pairwise compatibility of rare nets (the paper's offline phase).

Two rare nets are *compatible* when some input pattern drives both to their
rare values simultaneously.  DETERRENT precomputes the full pairwise
compatibility dictionary before training (§3.3) so that action masking and the
end-of-episode state transitions become dictionary lookups instead of SAT
calls.  The paper parallelises this over 64 processes; here the O(r²) pair
queries are answered either by a single incremental SAT solver (``n_jobs=1``)
or sharded across a process pool in which every worker owns its own solver
over the shared CNF encoding (:func:`repro.runner.parallel.sharded_map`).
Both paths produce bit-identical matrices, and results are memoised in the
on-disk artifact cache (:mod:`repro.runner.cache`) when one is configured.

The same structure doubles as the compatibility *graph* used by the TARMAC
baseline's maximal-clique sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.circuits.netlist import Netlist
from repro.runner.cache import ArtifactCache, get_default_cache, netlist_fingerprint
from repro.runner.parallel import sharded_map
from repro.sat.justify import Justifier
from repro.simulation.rare_nets import RareNet


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

    def adjacency(self) -> dict[int, set[int]]:
        """Compatibility graph as an adjacency mapping (used by TARMAC)."""
        graph: dict[int, set[int]] = {i: set() for i in range(self.num_rare_nets)}
        rows, cols = np.nonzero(self.matrix)
        for row, col in zip(rows, cols):
            if row != col:
                graph[int(row)].add(int(col))
        return graph


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


#: Sentinel meaning "use the process-wide default artifact cache".
_DEFAULT_CACHE = object()


def compute_compatibility(
    netlist: Netlist,
    rare_nets: list[RareNet],
    *,
    n_jobs: int = 1,
    justifier: Justifier | None = None,
    cache: ArtifactCache | None | object = _DEFAULT_CACHE,
) -> CompatibilityAnalysis:
    """Build the :class:`CompatibilityAnalysis` for ``rare_nets`` of ``netlist``.

    Args:
        netlist: combinational netlist to analyse.
        rare_nets: candidate rare nets (order defines matrix indexing of the
            activatable subset).
        n_jobs: worker processes for the O(r) activatability pre-filter and
            the O(r²) pair queries.  ``1`` answers everything on one
            incremental solver; ``> 1`` shards both stages across a process
            pool (bit-identical verdicts); ``<= 0`` means one worker per CPU.
        justifier: optional pre-built solver stack to reuse (also attached to
            the returned analysis for downstream witness generation).
        cache: artifact cache for memoising the result on disk; defaults to
            the process-wide cache (:func:`repro.runner.cache
            .get_default_cache`), pass ``None`` to disable.

    The boolean matrix is bit-identical across all execution paths (serial,
    sharded, cache hit).  Downstream SAT *witnesses* are not guaranteed
    identical across paths: the CDCL solver keeps learned clauses, so a
    justifier that answered the pair queries itself (serial path) is in a
    different state than a fresh one (cache hit / sharded path), and may
    return different — equally valid — models for the same requirements.
    """
    if cache is _DEFAULT_CACHE:
        cache = get_default_cache()

    justifier = justifier or Justifier(netlist)

    # Workers replicate the caller's solver tuning on their private stacks.
    make_justifier = partial(Justifier, config=justifier.config)

    def _build() -> dict:
        # The O(r) activatability pre-filter and the O(r²) pair queries are
        # two sharded maps because the pairs are defined over the
        # *post-filter* subset; the duplicated per-worker init (bench parse +
        # CNF encode) is milliseconds against the O(r²) solve time.
        candidates = [(rare.net, rare.rare_value) for rare in rare_nets]
        verdicts = sharded_map(
            netlist, make_justifier, is_activatable, candidates, n_jobs,
            justifier=justifier, label="activatability-shard",
        )
        activatable = [rare for rare, ok in zip(rare_nets, verdicts) if ok]
        unsatisfiable = [rare for rare, ok in zip(rare_nets, verdicts) if not ok]

        requirements = [(rare.net, rare.rare_value) for rare in activatable]
        rows, cols = np.triu_indices(len(requirements), 1)
        compatible = sharded_map(
            netlist, make_justifier, pair_is_compatible,
            [(requirements[i], requirements[j]) for i, j in zip(rows, cols)],
            n_jobs, justifier=justifier, label="compat-shard",
        )
        matrix = np.eye(len(requirements), dtype=bool)
        matrix[rows, cols] = compatible
        matrix[cols, rows] = compatible
        return {"rare_nets": activatable, "matrix": matrix, "unsatisfiable": unsatisfiable}

    if cache is not None:
        # fetch() is single-flight across processes: concurrent workers that
        # need the same analysis serialise on a file lock instead of each
        # recomputing the O(r^2) pair queries.
        artifact = cache.fetch(
            "compatibility",
            _build,
            netlist=netlist_fingerprint(netlist),
            rare_nets=[(rare.net, rare.rare_value) for rare in rare_nets],
        )
    else:
        artifact = _build()
    return CompatibilityAnalysis(
        netlist=netlist,
        rare_nets=artifact["rare_nets"],
        matrix=artifact["matrix"],
        unsatisfiable=artifact["unsatisfiable"],
        justifier=justifier,
    )


__all__ = [
    "CompatibilityAnalysis",
    "compute_compatibility",
    "is_activatable",
    "pair_is_compatible",
]
