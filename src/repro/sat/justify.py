"""High-level SAT justification interface for circuits.

:class:`Justifier` answers the two questions the DETERRENT flow needs:

1. *Compatibility*: can a given set of (net, value) requirements be satisfied
   simultaneously by some input pattern?  (Used for the pairwise compatibility
   dictionary, the environment's exact set checks, and Trojan trigger
   validation.)
2. *Witness generation*: produce one such input pattern.  (Used to turn the
   agent's maximal compatible sets into actual test patterns.)

Both are answered incrementally on a single circuit encoding using solver
assumptions, which is what makes the offline compatibility precomputation of
the paper (§3.3) affordable here without 64-process parallelism.
"""

from __future__ import annotations

from repro.circuits.netlist import Netlist
from repro.sat.encode import CircuitEncoder
from repro.sat.solver import CdclSolver, SolverConfig, SolverStats


class Justifier:
    """Incremental SAT justification engine for one combinational netlist."""

    def __init__(
        self,
        netlist: Netlist,
        config: SolverConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.encoder = CircuitEncoder(netlist)
        self.config = config or SolverConfig()
        self._solver = CdclSolver(self.encoder.cnf, config=self.config)
        self.num_queries = 0
        self._preferred_phases: dict[int, bool] = {}

    def set_preferred_values(self, preferred_values: dict[str, int]) -> None:
        """Bias SAT witnesses toward the given net values when unconstrained.

        The DETERRENT pipeline registers the rare value of every rare net
        here, so a pattern generated for one compatible set also tends to
        activate rare nets outside the set — the same effect the paper gets
        from PicoSAT's default negative-phase heuristic on its encodings.
        """
        self._preferred_phases = {
            self.encoder.variable(net): bool(value) for net, value in preferred_values.items()
        }

    def stats(self) -> SolverStats:
        """Cumulative solver statistics across every query so far."""
        return self._solver.stats()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_satisfiable(self, requirements: dict[str, int]) -> bool:
        """True if some input pattern drives every net to its required value."""
        self.num_queries += 1
        assumptions = self.encoder.assumptions_for(requirements)
        return self._solver.solve(assumptions).satisfiable

    def witness(self, requirements: dict[str, int]) -> dict[str, int] | None:
        """Return an input pattern satisfying ``requirements``, or None if UNSAT.

        The returned mapping assigns a 0/1 value to every controllable net
        (primary inputs, plus pseudo-primary inputs after scan conversion).
        """
        self.num_queries += 1
        if self._preferred_phases:
            self._solver.set_phases(self._preferred_phases)
        assumptions = self.encoder.assumptions_for(requirements)
        result = self._solver.solve(assumptions)
        if not result.satisfiable:
            return None
        assert result.model is not None
        return self.encoder.decode_inputs(result.model)

    def are_compatible(self, requirements_a: dict[str, int], requirements_b: dict[str, int]) -> bool:
        """True if the union of two requirement sets is simultaneously satisfiable.

        Conflicting requirements on the same net short-circuit to False without
        a solver call.
        """
        merged = dict(requirements_a)
        for net, value in requirements_b.items():
            if merged.get(net, value) != value:
                return False
            merged[net] = value
        return self.is_satisfiable(merged)


def greedy_maximal_subset(items, accumulated_satisfiable):
    """Greedily keep items whose accumulated set stays satisfiable.

    The single repair policy shared by every witness path: items are scanned
    in the given order (callers pass them rarest-first) and item ``i`` is
    kept iff ``accumulated_satisfiable(kept + [i])`` holds.  The predicate
    receives the full candidate list each time, so callers decide how a
    candidate set maps to a SAT query (requirement dict, temporal trigger,
    ...), and the kept order fixes the query sequence.
    """
    kept: list = []
    for item in items:
        if accumulated_satisfiable(kept + [item]):
            kept.append(item)
    return kept


__all__ = ["Justifier", "greedy_maximal_subset"]
