"""SAT-guided sequence generation: the sequential analogue of the pattern pipeline.

The combinational DETERRENT flow turns rare nets into test patterns in three
steps: drop the nets that can never take their rare value (activatability
pre-filter), group the rest into compatible sets, and justify each set into
one SAT witness pattern.  This module mirrors that pipeline on the **raw
sequential netlist**, where "compatible" and "justifiable" are questions
about input *sequences* from reset rather than single patterns:

1. **Temporal pre-filter** — a state-dependent rare net survives only if its
   rare value is reachable under the grid cell's temporal rule
   (:class:`~repro.sat.temporal.SequentialJustifier` on the unrolled
   transition relation).  This is where the full-scan illusion dies: nets
   whose rare value requires an unreachable state are provably dropped.
2. **Greedy compatibility sets** — sets of rare nets that can *jointly* hold
   their rare values under the temporal rule, built greedily (rarest-first,
   then shuffled passes for diversity) with every candidate addition checked
   by joint unrolled justification — exact, not the pairwise approximation.
3. **Sequence witnesses** — each set's conjunction is justified as a
   :class:`~repro.trojan.model.SequentialTrigger` and the SAT model is
   decoded into a per-cycle input sequence.  A cell's witnesses are replayed
   in one batch through :class:`~repro.simulation.compiled.CompiledSequentialNetlist`
   before they are emitted, and jointly-unsatisfiable sets (possible when a
   caller passes hand-built sets) are repaired by greedily re-adding nets
   rarest-first.

The emitted :class:`~repro.core.patterns.SequenceSet` plays the same role as
the combinational flow's :class:`~repro.core.patterns.PatternSet`: any
sampled multi-cycle Trojan whose trigger nets all landed in one generated set
provably fires on that set's witness sequence.  All three steps run in
order on one incremental unrolled solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs
from repro.circuits.netlist import Netlist
from repro.core.patterns import SequenceSet
from repro.sat.justify import greedy_maximal_subset
from repro.sat.solver import SolverConfig
from repro.sat.temporal import SequentialJustifier, temporal_fire_cycles
from repro.simulation.rare_nets import RareNet
from repro.trojan.model import SequentialTrigger, TriggerCondition
from repro.utils.rng import RngLike, make_rng

OrderedRequirements = tuple[tuple[str, int], ...]

#: Consecutive duplicate greedy passes after which the set search gives up.
STALL_LIMIT = 8


@dataclass
class SequentialCompatibility:
    """Temporal-rule compatibility data for one sequential netlist.

    Attributes:
        netlist: the analysed (raw sequential) netlist.
        cycles: unroll depth / sequence length of every justification query.
        mode: temporal rule of the workload (``consecutive``/``cumulative``).
        count: the rule's cycle count ``k``.
        rare_nets: the temporally-activatable rare nets, rarest first (the
            index order used by every set).
        unreachable: rare nets whose rare value is provably not reachable
            under the rule within ``cycles`` — dropped by the pre-filter.
        justifier: the shared unrolled solver stack.
    """

    netlist: Netlist
    cycles: int
    mode: str
    count: int
    rare_nets: list[RareNet]
    unreachable: list[RareNet]
    justifier: SequentialJustifier

    @property
    def num_rare_nets(self) -> int:
        """Number of temporally-activatable rare nets."""
        return len(self.rare_nets)

    def requirements(self, indices) -> dict[str, int]:
        """Net -> rare-value mapping for a set of rare-net indices."""
        return {
            self.rare_nets[index].net: self.rare_nets[index].rare_value
            for index in indices
        }

    def ordered_requirements(self, indices) -> OrderedRequirements:
        """Rarest-first (net, value) tuple for a set of rare-net indices."""
        return tuple(
            (self.rare_nets[index].net, self.rare_nets[index].rare_value)
            for index in sorted(indices)
        )

    def trigger(self, indices) -> SequentialTrigger:
        """The set's conjunction under the analysis's temporal rule."""
        return SequentialTrigger(
            condition=TriggerCondition(self.ordered_requirements(indices)),
            mode=self.mode,
            count=self.count,
        )

    @cached_property
    def _rare_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(rare net x frame) CNF variables, and each row's rare value as a column."""
        grid = self.justifier.expansion.variables([r.net for r in self.rare_nets], self.cycles)
        return np.array(grid), np.array([[r.rare_value == 1] for r in self.rare_nets])

    def set_is_satisfiable(self, indices) -> bool:
        """Joint unrolled justification: can the whole set fire together?"""
        if not indices:
            return True
        return self.justifier.is_satisfiable(self.trigger(indices), self.cycles)

    def satisfiable_superset(self, indices) -> frozenset[int] | None:
        """One SAT call answering "can this set fire?" with a certificate.

        Returns None when the set cannot fire within the horizon.  On SAT,
        the witness model is mined for *additional* rare nets whose rare
        values it also drives under the temporal rule, and the (possibly
        much larger) jointly-fired index set is returned.  Because trigger
        satisfiability is monotone — a superset condition is strictly harder
        to fire, so SAT of a superset proves SAT of every subset — callers
        can answer any future subset query from the returned certificate
        without touching the solver (see :func:`greedy_compatible_sets`).
        """
        indices = sorted(indices)
        result = self.justifier.satisfying_model(self.trigger(indices), self.cycles)
        if result is None:
            return None
        # Per-(rare net, cycle) truth of each rare value in the model.
        grid, wants = self._rare_grid
        profile = self.justifier.expansion.values(result, grid) == wants
        # Greedy deterministic extension: add index j while the conjunction
        # of per-cycle bits still fires under (mode, count).
        mined = set(indices)
        bits = np.ones(self.cycles, dtype=bool)
        for index in indices:
            bits &= profile[index]
        for index in range(len(self.rare_nets)):
            if index in mined:
                continue
            joined = bits & profile[index]
            if temporal_fire_cycles(self.mode, self.count, joined):
                mined.add(index)
                bits = joined
        return frozenset(mined)


def temporal_activatability(
    justifier: SequentialJustifier,
    rare_nets: list[RareNet],
    mode: str,
    count: int,
    cycles: int | None = None,
) -> list[bool]:
    """Per-net temporal pre-filter: is each rare value reachable under the rule?"""
    verdicts: list[bool] = []
    for rare in rare_nets:
        trigger = SequentialTrigger(
            condition=TriggerCondition(((rare.net, rare.rare_value),)),
            mode=mode,
            count=count,
        )
        verdicts.append(justifier.is_satisfiable(trigger, cycles))
    return verdicts


def analyze_sequential_compatibility(
    netlist: Netlist,
    rare_nets: list[RareNet],
    cycles: int,
    mode: str = "consecutive",
    count: int = 1,
    justifier: SequentialJustifier | None = None,
    solver_config: SolverConfig | None = None,
) -> SequentialCompatibility:
    """Pre-filter ``rare_nets`` by temporal activatability at depth ``cycles``.

    ``solver_config`` tunes the CDCL solver behind the unrolled stack; it is
    ignored when a pre-built ``justifier`` is supplied (the justifier's own
    configuration wins).
    """
    if not netlist.is_sequential:
        raise ValueError(
            f"sequential compatibility requires flip-flops; {netlist.name!r} is "
            "combinational (use compute_compatibility)"
        )
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    # Re-sort defensively into extraction order (rarest first) so the
    # rarest-first guarantees of ordered_requirements and the greedy passes
    # hold even for callers that reordered or filtered the extraction output.
    candidates = sorted(rare_nets, key=lambda rare: (rare.probability, rare.net))
    justifier = justifier or SequentialJustifier(netlist, cycles, config=solver_config)
    justifier.extend_to(cycles)
    verdicts = temporal_activatability(justifier, candidates, mode, count, cycles)
    return SequentialCompatibility(
        netlist=netlist,
        cycles=cycles,
        mode=mode,
        count=count,
        rare_nets=[rare for rare, ok in zip(candidates, verdicts) if ok],
        unreachable=[rare for rare, ok in zip(candidates, verdicts) if not ok],
        justifier=justifier,
    )


def greedy_compatible_sets(
    compatibility: SequentialCompatibility,
    num_sets: int,
    seed: RngLike = None,
) -> list[tuple[int, ...]]:
    """Greedy maximal sets of jointly-justifiable rare nets (index tuples).

    Mirrors the combinational flow's compatible-set construction with the
    exact joint check in place of the pairwise dictionary: the first pass
    scans rarest-first, further passes scan random permutations for
    diversity, and every candidate addition must keep the accumulated
    conjunction justifiable under the analysis's temporal rule.  Duplicate
    maximal sets end a pass without yield; ``STALL_LIMIT`` consecutive
    duplicate passes end the search early (the design has run out of
    distinct maximal sets).

    Trigger satisfiability is **monotone** in the condition set (a superset
    condition is strictly harder to fire), so most candidate checks never
    reach the solver: every SAT model is mined for the maximal index set it
    jointly fires (:meth:`SequentialCompatibility.satisfiable_superset`) and
    future subsets of any mined set — or supersets of any recorded UNSAT
    set — are answered from those certificates.  Verdicts are provably
    identical to querying every candidate directly, so the chosen sets (and
    hence the emitted witnesses) do not depend on the caching.
    """
    count = compatibility.num_rare_nets
    if count == 0 or num_sets <= 0:
        return []
    rng = make_rng(seed)
    sets: list[tuple[int, ...]] = []
    # Sets are bitmasks (bit i: rare net i): ``a`` is within ``b`` iff ``a & b
    # == a``.  Singletons passed the pre-filter, so they are satisfiable.
    seen: set[int] = set()
    verdicts: dict[int, bool] = {1 << index: True for index in range(count)}
    sat_cover: list[int] = []  # mined jointly-fired sets (maximal)
    unsat_cover: list[int] = []  # sets proven unable to fire
    first_pass = True
    stall = 0
    while len(sets) < num_sets and stall < STALL_LIMIT:
        if first_pass:
            order = list(range(count))
            first_pass = False
        else:
            order = [int(index) for index in rng.permutation(count)]
        chosen: list[int] = []
        chosen_mask = 0
        for index in order:
            candidate = chosen_mask | 1 << index
            verdict = verdicts.get(candidate)
            if verdict is None:
                # Monotonicity: subset of a known-SAT set is SAT, superset
                # of a known-UNSAT set is UNSAT — no solver call needed.
                if candidate in map(candidate.__and__, sat_cover):
                    verdict = True
                elif candidate in map(candidate.__or__, unsat_cover):
                    verdict = False
                else:
                    mined = compatibility.satisfiable_superset([*chosen, index])
                    verdict = mined is not None
                    if mined is None:
                        unsat_cover.append(candidate)
                    else:
                        mask = sum(1 << member for member in mined)
                        if mask not in map(mask.__and__, sat_cover):
                            sat_cover[:] = [known for known in sat_cover if known | mask != mask]
                            sat_cover.append(mask)
                verdicts[candidate] = verdict
            if verdict:
                chosen.append(index)
                chosen_mask = candidate
        if chosen and chosen_mask not in seen:
            seen.add(chosen_mask)
            sets.append(tuple(sorted(chosen)))
            stall = 0
        else:
            stall += 1
    return sets


def sequence_witness_with_repair(
    justifier: SequentialJustifier,
    ordered_requirements: OrderedRequirements,
    mode: str,
    count: int,
    cycles: int | None = None,
) -> tuple[np.ndarray | None, int, int]:
    """Witness one requirement set under (mode, count), repairing if needed.

    ``ordered_requirements`` must be rarest-first: when the full conjunction
    cannot fire, nets are re-added greedily in that order, keeping each only
    while the accumulated conjunction stays justifiable — the sequential
    instantiation of :func:`repro.sat.justify.greedy_maximal_subset`, the
    same policy the combinational repair paths use.  Returns
    ``(sequence or None, first fire cycle or -1, requirements realised)``.
    The full set's witness is not replayed here (:func:`generate_sequences`
    replays a cell's witnesses in one batch); a repaired one is.
    """

    def _trigger(requirements: OrderedRequirements) -> SequentialTrigger:
        return SequentialTrigger(
            condition=TriggerCondition(requirements), mode=mode, count=count
        )

    witness = justifier.witness(_trigger(ordered_requirements), cycles, verify=False)
    realized = len(ordered_requirements)
    if witness is None:
        kept = greedy_maximal_subset(
            list(ordered_requirements),
            lambda candidate: justifier.is_satisfiable(_trigger(tuple(candidate)), cycles),
        )
        if not kept:
            return None, -1, 0
        witness = justifier.witness(_trigger(tuple(kept)), cycles)
        if witness is None:  # pragma: no cover - kept sets are satisfiable
            return None, -1, 0
        realized = len(kept)
    return witness.sequence, witness.fire_cycle, realized


def generate_sequences(
    netlist: Netlist,
    rare_nets: list[RareNet],
    cycles: int,
    mode: str = "consecutive",
    count: int = 2,
    num_sequences: int = 16,
    seed: RngLike = None,
    justifier: SequentialJustifier | None = None,
    technique: str = "SAT-guided",
    solver_config: SolverConfig | None = None,
) -> SequenceSet:
    """Generate SAT-guided test sequences from state-dependent rare nets.

    The full sequential pipeline: temporal pre-filter, greedy joint
    compatibility sets (at most ``num_sequences`` distinct sets — the
    sequence budget), and one replay-verified witness sequence per set.
    Every emitted sequence provably drives its whole set's rare-value
    conjunction to fire under (``mode``, ``count``) within ``cycles`` clock
    cycles from reset, so any sampled Trojan whose trigger nets are a subset
    of one set is covered by construction.

    ``solver_config`` tunes the pipeline's CDCL solver; the emitted
    metadata carries its cumulative :class:`~repro.sat.solver.SolverStats`
    under ``"solver_stats"``.  Under active telemetry the
    whole pipeline runs inside a ``solver.sequence_gen`` span, with one
    child span per phase: ``sequence_gen.activatability``,
    ``sequence_gen.greedy_sets`` and ``sequence_gen.witness``.
    """
    with obs.trace.span(
        "solver.sequence_gen",
        attrs={"cycles": cycles, "mode": mode, "rare_nets": len(rare_nets)},
    ) as gen_span:
        result = _generate_sequences(
            netlist, rare_nets, cycles, mode, count, num_sequences, seed,
            justifier, technique, solver_config,
        )
        gen_span.set_attr("sequences", int(result.sequences.shape[0]))
        return result


def _generate_sequences(
    netlist: Netlist,
    rare_nets: list[RareNet],
    cycles: int,
    mode: str,
    count: int,
    num_sequences: int,
    seed: RngLike,
    justifier: SequentialJustifier | None,
    technique: str,
    solver_config: SolverConfig | None,
) -> SequenceSet:
    inputs = netlist.inputs
    with obs.trace.span("sequence_gen.activatability"):
        compatibility = analyze_sequential_compatibility(
            netlist, rare_nets, cycles, mode, count,
            justifier=justifier, solver_config=solver_config,
        )
    metadata = {
        "cycles": cycles,
        "mode": mode,
        "count": count,
        "num_rare_nets": len(rare_nets),
        "num_activatable": compatibility.num_rare_nets,
        "sets": [],
        "set_sizes": [],
        "fire_cycles": [],
    }
    empty = np.zeros((0, cycles, len(inputs)), dtype=np.uint8)
    if compatibility.num_rare_nets == 0:
        metadata["solver_stats"] = compatibility.justifier.stats().as_dict()
        return SequenceSet(
            inputs=inputs, sequences=empty, technique=technique, metadata=metadata
        )
    compatibility.justifier.set_preferred_values(
        {rare.net: rare.rare_value for rare in compatibility.rare_nets}
    )
    with obs.trace.span("sequence_gen.greedy_sets"):
        sets = greedy_compatible_sets(compatibility, num_sequences, seed=seed)
    ordered_sets = [compatibility.ordered_requirements(indices) for indices in sets]
    with obs.trace.span("sequence_gen.witness"):
        results = [
            sequence_witness_with_repair(
                compatibility.justifier, ordered, mode, count, cycles
            )
            for ordered in ordered_sets
        ]
        full = [
            (compatibility.trigger(indices), sequence, fire_cycle)
            for indices, (sequence, fire_cycle, realized) in zip(sets, results)
            if sequence is not None and realized == len(indices)
        ]
        if full:
            triggers, replays, fire_cycles = zip(*full)
            compatibility.justifier.check_witnesses(triggers, np.stack(replays), fire_cycles)
    sequences: list[np.ndarray] = []
    for ordered, (sequence, fire_cycle, realized) in zip(ordered_sets, results):
        if sequence is None:
            continue
        sequences.append(np.asarray(sequence, dtype=np.uint8))
        # The *requested* set; on a repaired set only ``realized`` of its
        # requirements are guaranteed to hold (greedy rarest-first repair).
        metadata["sets"].append(ordered)
        metadata["set_sizes"].append(realized)
        metadata["fire_cycles"].append(int(fire_cycle))
    # Cumulative stats of the solver stack (pre-filter, greedy set
    # construction and witness extraction).
    metadata["solver_stats"] = compatibility.justifier.stats().as_dict()
    array = np.stack(sequences) if sequences else empty
    return SequenceSet(
        inputs=inputs, sequences=array, technique=technique, metadata=metadata
    )


__all__ = [
    "SequentialCompatibility",
    "analyze_sequential_compatibility",
    "generate_sequences",
    "greedy_compatible_sets",
    "sequence_witness_with_repair",
    "temporal_activatability",
]
