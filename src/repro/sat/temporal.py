"""Multi-cycle trigger justification on the unrolled transition relation.

:class:`SequentialJustifier` is the sequential analogue of
:class:`repro.sat.justify.Justifier`: where the combinational justifier asks
"is there an input *pattern* driving these nets to these values?", the
sequential justifier asks "is there an input *sequence* from reset under
which this :class:`~repro.trojan.model.SequentialTrigger` fires within k
cycles?" — and extracts the sequence when the answer is yes.

Both temporal rules are encoded as clause layers over the per-frame condition
indicators of a :class:`~repro.sat.unroll.TimeFrameExpansion`:

- ``consecutive`` count-``k`` uses **shift-chain clauses**: auxiliary
  variables ``s[i][t]`` assert "the condition held at each of cycles
  ``t - i + 1 .. t``" via ``s[i][t] <-> cond[t] AND s[i-1][t-1]`` — the CNF
  image of the shift-register trigger hardware;
- ``cumulative`` count-``k`` uses a **sequential-counter cardinality
  ladder**: ``c[i][t]`` asserts "the condition held in at least ``i`` of
  cycles ``0 .. t``" via ``c[i][t] <-> c[i][t-1] OR (cond[t] AND
  c[i-1][t-1])`` — the CNF image of the sticky thermometer counter.

Queries assert a single "fired by the horizon" variable as a solver
assumption, so one justifier instance answers arbitrarily many triggers
incrementally (encodings are definitional and cached per condition), and
deeper horizons extend the same solver via the expansion's incremental
:meth:`~repro.sat.unroll.TimeFrameExpansion.extend_to`.

**Witnesses are self-verifying.** Every witness is replayed bit-for-bit
through :class:`~repro.simulation.compiled.CompiledSequentialNetlist` before
it is returned: the claimed firing cycle must be reproduced by the real
multi-cycle engine (and, transitively, by the infected-netlist ground-truth
oracle the engine is differentially tested against).  A divergence would
indicate an encoding bug and raises immediately instead of emitting a bogus
test sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.netlist import Netlist
from repro.sat.cnf import Literal
from repro.sat.solver import SolverConfig, SolverResult, SolverStats
from repro.sat.unroll import TimeFrameExpansion

if TYPE_CHECKING:  # imported lazily at runtime to keep the sat layer cycle-free
    from repro.trojan.model import SequentialTrigger, TriggerCondition


@dataclass
class SequenceWitness:
    """A concrete input sequence that provably fires a sequential trigger.

    Attributes:
        inputs: the primary inputs, defining the column order of ``sequence``.
        sequence: 0/1 array of shape ``(cycles, len(inputs))``; row ``t`` is
            the stimulus applied at clock cycle ``t``, starting from reset.
        fire_cycle: the first clock cycle (0-based) at which the trigger's
            temporal rule is met — verified by replay through the compiled
            multi-cycle engine.
        trigger: the justified trigger.
    """

    inputs: tuple[str, ...]
    sequence: np.ndarray
    fire_cycle: int
    trigger: SequentialTrigger

    def __post_init__(self) -> None:
        self.sequence = np.atleast_2d(np.asarray(self.sequence, dtype=np.uint8))

    @property
    def cycles(self) -> int:
        """Length of the witness sequence in clock cycles."""
        return self.sequence.shape[0]


def condition_bits(
    netlist: Netlist,
    condition: TriggerCondition,
    sequence: np.ndarray,
    initial_state: dict[str, int] | None = None,
) -> np.ndarray:
    """Per-cycle truth of a trigger condition under one input sequence.

    The sequence is stepped through the compiled multi-cycle engine from
    reset (or ``initial_state``); the result is a boolean vector with one
    entry per clock cycle.
    """
    from repro.simulation.compiled import compile_sequential_netlist

    compiled = compile_sequential_netlist(netlist)
    sequence = np.atleast_2d(np.asarray(sequence, dtype=np.uint8))
    state = None
    if initial_state:
        state = np.zeros((1, compiled.num_state_bits), dtype=np.uint8)
        for position, net in enumerate(compiled.interface.state):
            state[0, position] = initial_state.get(net, 0)
    tensor, _ = compiled.run_sequences(sequence[None, :, :], initial_state=state)
    bits = np.ones(tensor.shape[0], dtype=bool)
    one = np.uint64(1)
    for net, value in condition.requirements:
        row = (tensor[:, compiled.index_of(net), 0] & one).astype(bool)
        bits &= row if value == 1 else ~row
    return bits


def temporal_fire_cycles(mode: str, count: int, bits: np.ndarray) -> list[int]:
    """Cycles at which a (mode, count) rule fires, given per-cycle condition bits.

    Matches the trigger hardware of :func:`repro.trojan.insertion
    .insert_sequential_trojan` exactly: ``consecutive`` fires at every cycle
    ending a streak of at least ``count``; ``cumulative`` fires at every
    activation cycle from the ``count``-th activation on.
    """
    fires: list[int] = []
    streak = 0
    total = 0
    for cycle, bit in enumerate(bits):
        if bit:
            streak += 1
            total += 1
        else:
            streak = 0
        if mode == "consecutive":
            if streak >= count:
                fires.append(cycle)
        elif bit and total >= count:
            fires.append(cycle)
    return fires


def replay_fire_cycles(
    netlist: Netlist,
    trigger: SequentialTrigger,
    sequence: np.ndarray,
    initial_state: dict[str, int] | None = None,
) -> list[int]:
    """All cycles at which ``trigger`` fires when ``sequence`` is replayed.

    This is the independent check every :class:`SequentialJustifier` witness
    must pass: the sequence is simulated on the compiled multi-cycle engine
    and the temporal rule is evaluated on the observed condition bits.
    """
    bits = condition_bits(netlist, trigger.condition, sequence, initial_state)
    return temporal_fire_cycles(trigger.mode, trigger.count, bits)


@dataclass
class _TemporalChain:
    """Incremental per-(condition, mode, count) encoding state.

    ``levels[i][t]`` is the literal asserting depth ``i + 1`` of the rule at
    cycle ``t`` (streak length / activation count >= i + 1), or None where
    structurally impossible; ``fired[t]`` asserts "the rule has been met at
    some cycle <= t".
    """

    levels: list[list[Literal | None]]
    fired: list[Literal | None] = field(default_factory=list)


class SequentialJustifier:
    """Incremental multi-cycle trigger justification for one sequential netlist."""

    def __init__(
        self,
        netlist: Netlist,
        cycles: int = 1,
        initial_state: dict[str, int] | None = None,
        config: SolverConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.expansion = TimeFrameExpansion(netlist, cycles, initial_state, config=config)
        self._initial_state = dict(initial_state) if initial_state else None
        self._conditions: dict[tuple, list[Literal]] = {}
        self._chains: dict[tuple, _TemporalChain] = {}
        self._preferred: dict[str, int] = {}
        # (unroll depth, variable -> phase) built from ``_preferred``.
        self._preferred_phases: tuple[int, dict[int, bool]] | None = None
        # ``_fired_by``'s block: the last auxiliary variable numbered, its clauses.
        self._next_var = 0
        self._clauses: list[list[Literal]] = []

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Current unroll depth (the default query horizon)."""
        return self.expansion.num_frames

    @property
    def initial_state(self) -> dict[str, int] | None:
        """The non-reset initial state this justifier unrolls from, if any."""
        return dict(self._initial_state) if self._initial_state else None

    @property
    def num_queries(self) -> int:
        """Number of SAT queries issued so far."""
        return self.expansion.num_queries

    @property
    def config(self) -> SolverConfig:
        """The solver configuration of the underlying expansion."""
        return self.expansion.config

    def stats(self) -> SolverStats:
        """Cumulative solver statistics across every query so far."""
        return self.expansion.stats()

    def extend_to(self, cycles: int) -> "SequentialJustifier":
        """Deepen the unroll to ``cycles`` frames (incremental; no-op if enough)."""
        self.expansion.extend_to(cycles)
        return self

    def set_preferred_values(self, preferred_values: dict[str, int]) -> None:
        """Bias witnesses toward the given net values at every cycle.

        The sequence-generation pipeline registers the rare value of every
        rare net here, mirroring :meth:`repro.sat.justify.Justifier
        .set_preferred_values`: a sequence justified for one compatible set
        then also tends to activate rare nets outside the set.
        """
        for net in preferred_values:
            self.expansion.variable(net, 0)  # raises KeyError on unknown nets
        self._preferred = {net: int(value) for net, value in preferred_values.items()}
        self._preferred_phases = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_satisfiable(self, trigger: SequentialTrigger, cycles: int | None = None) -> bool:
        """True if some input sequence from reset fires ``trigger`` within the horizon."""
        fired = self._fired_by(trigger, self._horizon(trigger, cycles))
        if fired is None:
            return False
        return self.expansion.solve([fired]).satisfiable

    def satisfying_model(
        self, trigger: SequentialTrigger, cycles: int | None = None
    ) -> SolverResult | None:
        """The SAT result of one firing query, or None if it cannot fire.

        Unlike :meth:`witness` this neither decodes nor replays the model —
        it is the cheap building block for callers that mine a model for
        *additional* rare-net activations (see
        :meth:`repro.core.sequence_gen.SequentialCompatibility
        .satisfiable_superset`).  Phase preferences are applied: they never
        change the verdict, only which model comes back, and the biased
        model is exactly the activation-rich one worth mining.
        """
        fired = self._fired_by(trigger, self._horizon(trigger, cycles))
        if fired is None:
            return None
        self._apply_preferred()
        result = self.expansion.solve([fired])
        return result if result.satisfiable else None

    def witness(
        self,
        trigger: SequentialTrigger,
        cycles: int | None = None,
        verify: bool = True,
    ) -> SequenceWitness | None:
        """A sequence firing ``trigger`` within the horizon, or None if UNSAT.

        With ``verify=True`` (the default) the witness is replayed through
        the compiled multi-cycle engine and the claimed firing cycle must be
        reproduced exactly; a divergence raises ``RuntimeError``.
        """
        horizon = self._horizon(trigger, cycles)
        fired = self._fired_by(trigger, horizon)
        if fired is None:
            return None
        self._apply_preferred()
        result = self.expansion.solve([fired])
        if not result.satisfiable:
            return None
        sequence = self.expansion.decode_inputs(result)[:horizon]
        bits = self._model_condition_bits(trigger.condition, result, horizon)
        fires = temporal_fire_cycles(trigger.mode, trigger.count, bits)
        if not fires:  # pragma: no cover - encoding guarantees at least one
            raise RuntimeError(
                "internal error: SAT model does not fire the trigger it asserts"
            )
        fire_cycle = fires[0]
        if verify:
            replayed = replay_fire_cycles(
                self.netlist, trigger, sequence, self._initial_state
            )
            if not replayed or replayed[0] != fire_cycle:
                raise RuntimeError(
                    f"witness replay diverged: model claims first firing at cycle "
                    f"{fire_cycle}, compiled engine observes {replayed}"
                )
        return SequenceWitness(
            inputs=self.expansion.inputs,
            sequence=sequence,
            fire_cycle=fire_cycle,
            trigger=trigger,
        )

    # ------------------------------------------------------------------
    # Encoding internals
    # ------------------------------------------------------------------
    def _horizon(self, trigger: SequentialTrigger, cycles: int | None) -> int:
        horizon = self.cycles if cycles is None else cycles
        if horizon < 1:
            raise ValueError(f"cycles must be >= 1, got {horizon}")
        return horizon

    def _condition_key(self, condition: TriggerCondition) -> tuple:
        return tuple(sorted(condition.requirements))

    def _new_variable(self) -> int:
        """Number one auxiliary variable of the block :meth:`_fired_by` is building."""
        self._next_var += 1
        return self._next_var

    def _condition_literals(self, condition: TriggerCondition, frames: int) -> list[Literal]:
        """Per-frame indicator literals of the condition (cached, lazily grown)."""
        key = self._condition_key(condition)
        literals = self._conditions.setdefault(key, [])
        expansion = self.expansion
        while len(literals) < frames:
            frame = len(literals)
            members = [expansion.literal(net, value, frame) for net, value in key]
            if len(members) == 1:
                literals.append(members[0])
                continue
            indicator = self._new_variable()
            self._clauses += [[-indicator, member] for member in members]
            self._clauses.append([indicator] + [-member for member in members])
            literals.append(indicator)
        return literals

    def _fired_by(self, trigger: SequentialTrigger, frames: int) -> Literal | None:
        """Literal asserting "trigger fired at some cycle < frames" (None if impossible).

        New auxiliary variables and their clauses reach the solver as one block.
        """
        if frames < trigger.count:
            return None
        self.expansion.extend_to(frames)
        self._next_var = self.expansion.num_vars
        self._clauses = []
        cond = self._condition_literals(trigger.condition, frames)
        key = (self._condition_key(trigger.condition), trigger.mode, trigger.count)
        chain = self._chains.get(key)
        if chain is None:
            chain = _TemporalChain(levels=[[] for _ in range(trigger.count)])
            self._chains[key] = chain
        build = (
            self._build_consecutive_frame
            if trigger.mode == "consecutive"
            else self._build_cumulative_frame
        )
        while len(chain.fired) < frames:
            build(chain, cond, trigger.count, len(chain.fired))
        if self._clauses:
            self.expansion.add_auxiliary(self._next_var, self._clauses)
        return chain.fired[frames - 1]

    def _build_consecutive_frame(
        self, chain: _TemporalChain, cond: list[Literal], count: int, frame: int
    ) -> None:
        """Extend the shift chain by one frame: s[i][t] <-> cond[t] AND s[i-1][t-1]."""
        chain.levels[0].append(cond[frame])
        for depth in range(1, count):
            if frame < depth:
                chain.levels[depth].append(None)
                continue
            previous = chain.levels[depth - 1][frame - 1]
            streak = self._new_variable()
            self._clauses += ([-streak, cond[frame]], [-streak, previous],
                              [streak, -cond[frame], -previous])
            chain.levels[depth].append(streak)
        self._append_fired(chain, chain.levels[count - 1][frame])

    def _build_cumulative_frame(
        self, chain: _TemporalChain, cond: list[Literal], count: int, frame: int
    ) -> None:
        """Extend the cardinality ladder: c[i][t] <-> c[i][t-1] OR (cond[t] AND c[i-1][t-1])."""
        for depth in range(count):
            if frame < depth:  # fewer than depth+1 cycles elapsed: impossible
                chain.levels[depth].append(None)
                continue
            carried = chain.levels[depth][frame - 1] if frame > 0 else None
            below = chain.levels[depth - 1][frame - 1] if depth > 0 else None
            if depth == 0:
                if carried is None:
                    chain.levels[0].append(cond[frame])
                    continue
                reached = self._new_variable()
                self._clauses += ([-carried, reached], [-cond[frame], reached],
                                  [-reached, carried, cond[frame]])
                chain.levels[0].append(reached)
                continue
            # depth >= 1: ``below`` is defined whenever this cell is reachable.
            assert below is not None
            reached = self._new_variable()
            if carried is None:  # first reachable cell: c = cond AND below
                self._clauses += ([-reached, cond[frame]], [-reached, below],
                                  [reached, -cond[frame], -below])
            else:
                self._clauses += ([-carried, reached], [-cond[frame], -below, reached],
                                  [-reached, carried, cond[frame]], [-reached, carried, below])
            chain.levels[depth].append(reached)
        # The top ladder row is already monotone in t ("count reached by t").
        chain.fired.append(chain.levels[count - 1][frame])

    def _append_fired(self, chain: _TemporalChain, fire: Literal | None) -> None:
        """Accumulate the monotone "fired by frame t" chain (consecutive mode)."""
        if fire is None:
            chain.fired.append(None)
            return
        previous = chain.fired[-1] if chain.fired else None
        if previous is None:
            chain.fired.append(fire)
            return
        fired = self._new_variable()
        self._clauses += ([-previous, fired], [-fire, fired], [-fired, previous, fire])
        chain.fired.append(fired)

    # ------------------------------------------------------------------
    # Decoding internals
    # ------------------------------------------------------------------
    def _model_condition_bits(
        self, condition: TriggerCondition, result: SolverResult, frames: int
    ) -> np.ndarray:
        """Per-frame condition truth read off the circuit variables of a SAT result."""
        bits = np.ones(frames, dtype=bool)
        for net, value in condition.requirements:
            for frame in range(frames):
                assigned = result.value(self.expansion.variable(net, frame))
                if assigned != bool(value):
                    bits[frame] = False
        return bits

    def _apply_preferred(self) -> None:
        """Re-apply the preferred phases; the map is built once per unroll depth."""
        if not self._preferred:
            return
        frames = self.expansion.num_frames
        if self._preferred_phases is None or self._preferred_phases[0] != frames:
            phases: dict[int, bool] = {}
            for net, value in self._preferred.items():
                for frame in range(frames):
                    phases[self.expansion.variable(net, frame)] = bool(value)
            self._preferred_phases = (frames, phases)
        self.expansion.set_phases(self._preferred_phases[1])


__all__ = [
    "SequenceWitness",
    "SequentialJustifier",
    "condition_bits",
    "replay_fire_cycles",
    "temporal_fire_cycles",
]
