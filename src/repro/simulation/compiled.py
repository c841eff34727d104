"""Compiled bit-parallel simulation engine.

:class:`CompiledNetlist` lowers a :class:`~repro.circuits.netlist.Netlist`
once into flat numpy index arrays and then evaluates every net on a single
``(num_nets, num_words)`` ``uint64`` value matrix:

- every net gets a dense integer id (sources first, then gate outputs);
- gates are levelised and grouped by ``(level, word-op, fan-in)``; each group
  stores one ``(fanin, group_size)`` operand-id buffer and one output-id
  vector, so a whole group evaluates as a single ``ufunc.reduce`` over a
  fancy-indexed operand block — there is no per-gate Python dispatch on the
  hot path;
- compilation results are cached on the netlist itself (via
  :meth:`Netlist.memo`), so repeated simulations of the same structure —
  signal-probability estimation, baseline pattern search, Trojan-coverage
  evaluation — share one compiled artefact that is invalidated automatically
  when the netlist mutates.

The engine also exposes the packed value matrix directly, which enables
*batched multi-Trojan evaluation*: a whole population of trigger conjunctions
is checked against one clean-netlist simulation by AND-reducing the packed
rows of the trigger nets (see :func:`batched_conjunctions` and
:mod:`repro.trojan.evaluation`), instead of simulating one infected netlist
per Trojan.

Levelised-group layout (the invariant everything above relies on):

- the schedule is a tuple of :class:`_GateGroup` sorted by ``(level,
  reduction ufunc)``; because every operand of a level-``L`` gate has level
  ``< L``, each group only reads rows that earlier groups (or the sources)
  have already written, so groups can execute strictly in schedule order with
  no further dependency tracking;
- within a group, ``operands`` is a ``(fanin, group_size)`` int64 id matrix
  padded with the hidden constant rows (``const0``/``const1`` live *after*
  the real nets at ids ``num_nets`` and ``num_nets + 1``) up to the group's
  widest gate, so one fancy-index + ``ufunc.reduce(axis=0)`` evaluates the
  whole group;
- inverting gate types are folded into a per-column XOR mask rather than
  separate groups, so a level compiles to at most one group per reduction
  family (AND, OR, XOR).

**Sequential circuits.** :class:`CompiledSequentialNetlist` extends the same
machinery across clock cycles: the flip-flop boundary is cut (the full-scan
combinational core is compiled once), a ``(num_state_bits, num_words)``
uint64 state matrix carries 64 *pattern sequences* per word, and each clock
cycle is one ``run_packed`` call whose next-state rows are gathered back into
the state matrix.  The per-cycle value matrices stack into a
``(cycles, num_nets, num_words)`` tensor that the state-dependent rare-net
extraction and the multi-cycle Trojan evaluator consume directly (see
:func:`conjunction_words` for the packed per-cycle trigger primitive).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.circuits.gates import Gate, GateType
from repro.circuits.netlist import Netlist
from repro.utils.rng import RngLike, make_rng

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_MEMO_KEY = "compiled_netlist"
_SEQUENTIAL_MEMO_KEY = "compiled_sequential_netlist"

#: Word-level reduction family implementing each gate type, plus an inversion
#: flag.  BUF/NOT join the AND family (an AND over one operand is the
#: identity), so a whole level usually compiles to at most three groups.
_OPCODES: dict[GateType, tuple[np.ufunc, bool]] = {
    GateType.AND: (np.bitwise_and, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.OR: (np.bitwise_or, False),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
    GateType.BUF: (np.bitwise_and, False),
    GateType.NOT: (np.bitwise_and, True),
}

#: Identity element of each reduction family, used to pad narrow gates up to
#: the group fan-in (AND pads with constant 1, OR/XOR with constant 0).
_PAD_WITH_ONES = {np.bitwise_and: True, np.bitwise_or: False, np.bitwise_xor: False}


@dataclass(frozen=True)
class _GateGroup:
    """One batch of same-family gates evaluated by a single numpy reduction.

    Inverting gate types (NAND/NOR/XNOR/NOT) are folded into ``invert_mask``,
    a per-gate uint64 vector XOR-ed into the reduced result, so mixed
    inverting/non-inverting gates share one group.
    """

    reduce: np.ufunc
    operands: np.ndarray  # (fanin, group_size) int64 net ids
    outputs: np.ndarray  # (group_size,) int64 net ids
    invert_mask: np.ndarray | None  # (group_size, 1) uint64, or None


class CompiledNetlist:
    """A netlist lowered to flat index buffers for matrix-at-once simulation."""

    def __init__(self, netlist: Netlist) -> None:
        if netlist.is_sequential:
            raise ValueError(
                "CompiledNetlist requires a combinational netlist; apply "
                "full-scan conversion first (repro.circuits.scan.ensure_combinational)"
            )
        self.netlist = netlist
        self._sources: tuple[str, ...] = netlist.combinational_sources()
        order = netlist.topological_gates()
        names = list(self._sources) + [gate.output for gate in order]
        self._index: dict[str, int] = {net: i for i, net in enumerate(names)}
        if len(self._index) != len(names):
            raise ValueError("netlist has duplicate net names across sources and gates")
        self.net_names: tuple[str, ...] = tuple(names)
        self.num_sources = len(self._sources)
        self.num_nets = len(names)
        # Two hidden constant rows (all-zeros / all-ones) appended after the
        # real nets serve as reduction-identity padding operands.
        self._const0_id = self.num_nets
        self._const1_id = self.num_nets + 1
        self._schedule, self._levelized = self._build_schedule(order, netlist.levels())

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def sources(self) -> tuple[str, ...]:
        """Controllable nets (primary inputs; pseudo inputs after scan)."""
        return self._sources

    def index_of(self, net: str) -> int:
        """Dense id of ``net`` (row index in the value matrix)."""
        try:
            return self._index[net]
        except KeyError:
            raise KeyError(
                f"net {net!r} does not exist in netlist {self.netlist.name!r}"
            ) from None

    def __contains__(self, net: str) -> bool:
        return net in self._index

    def levelized_gates(self) -> tuple[Gate, ...]:
        """Gates in the compiled evaluation order (levelised, group-batched)."""
        return self._levelized

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Evaluate packed input words into a ``(num_nets, num_words)`` matrix.

        ``packed_inputs`` must have shape ``(num_sources, num_words)``; row
        ``i`` of the result holds the packed values of net ``net_names[i]``.
        """
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        if packed_inputs.ndim != 2 or packed_inputs.shape[0] != self.num_sources:
            raise ValueError(
                f"packed inputs must have shape ({self.num_sources}, num_words), "
                f"got {packed_inputs.shape}"
            )
        num_words = packed_inputs.shape[1]
        values = np.empty((self.num_nets + 2, num_words), dtype=np.uint64)
        values[: self.num_sources] = packed_inputs
        values[self._const0_id] = 0
        values[self._const1_id] = _ALL_ONES
        for group in self._schedule:
            block = values[group.operands]  # (fanin, size, num_words), a copy
            out = group.reduce.reduce(block, axis=0)
            if group.invert_mask is not None:
                out ^= group.invert_mask
            values[group.outputs] = out
        return values[: self.num_nets]

    def run_patterns(self, patterns: np.ndarray) -> tuple[np.ndarray, int]:
        """Pack and simulate a ``(num_patterns, num_sources)`` 0/1 array.

        Returns ``(matrix, num_patterns)`` with ``matrix`` as in
        :meth:`run_packed`.
        """
        patterns = np.atleast_2d(np.asarray(patterns))
        if patterns.shape[1] != self.num_sources:
            raise ValueError(
                f"pattern width {patterns.shape[1]} does not match the number of "
                f"controllable nets ({self.num_sources})"
            )
        packed, num_patterns = pack_patterns(patterns)
        return self.run_packed(packed), num_patterns

    def count_ones(self, num_patterns: int, seed: RngLike = None) -> np.ndarray:
        """Per-net count of 1-values over ``num_patterns`` random patterns.

        Random input words are drawn directly in packed form; the result is an
        ``int64`` vector aligned with :attr:`net_names`.  The draw is one
        ``(num_sources, num_words)`` block of random words with the tail lanes
        masked off, so a seeded estimate depends only on the seed and the
        netlist's source order.
        """
        if num_patterns <= 0:
            return np.zeros(self.num_nets, dtype=np.int64)
        rng = make_rng(seed)
        num_words = max(1, (num_patterns + _WORD_BITS - 1) // _WORD_BITS)
        packed = rng.integers(
            0, 2**64 - 1, size=(self.num_sources, num_words),
            dtype=np.uint64, endpoint=True,
        )
        tail_bits = num_patterns - (num_words - 1) * _WORD_BITS
        if 0 < tail_bits < _WORD_BITS:
            packed[:, -1] &= np.uint64((1 << tail_bits) - 1)
        values = self.run_packed(packed)
        if 0 < tail_bits < _WORD_BITS:
            values[:, -1] &= np.uint64((1 << tail_bits) - 1)
        return np.bitwise_count(values).sum(axis=1, dtype=np.int64)

    def activations(
        self, patterns: np.ndarray, requirements: list[tuple[str, int]]
    ) -> np.ndarray:
        """Boolean matrix ``[pattern, requirement]``: net takes the required value.

        One simulation of the pattern block answers all ``(net, value)``
        requirements at once; only the requested rows are unpacked.
        """
        matrix, num_patterns = self.run_patterns(patterns)
        if not requirements:
            return np.zeros((num_patterns, 0), dtype=bool)
        ids = np.fromiter(
            (self.index_of(net) for net, _ in requirements), dtype=np.int64
        )
        rare_one = np.fromiter(
            (value == 1 for _, value in requirements), dtype=bool
        )
        words = matrix[ids]
        words[~rare_one] = ~words[~rare_one]
        return unpack_matrix(words, num_patterns).T.astype(bool)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_schedule(
        self, order: tuple[Gate, ...], levels: dict[str, int]
    ) -> tuple[tuple[_GateGroup, ...], tuple[Gate, ...]]:
        grouped: dict[tuple[int, np.ufunc], list[Gate]] = {}
        for gate in order:
            reduce, _ = _OPCODES[gate.gate_type]
            grouped.setdefault((levels[gate.output], reduce), []).append(gate)
        schedule: list[_GateGroup] = []
        levelized: list[Gate] = []
        for key in sorted(grouped, key=lambda k: (k[0], k[1].__name__)):
            gates = grouped[key]
            _, reduce = key
            fanin = max(gate.fanin for gate in gates)
            pad_id = self._const1_id if _PAD_WITH_ONES[reduce] else self._const0_id
            operands = np.full((fanin, len(gates)), pad_id, dtype=np.int64)
            outputs = np.empty(len(gates), dtype=np.int64)
            invert_mask = np.zeros((len(gates), 1), dtype=np.uint64)
            any_inverting = False
            for column, gate in enumerate(gates):
                outputs[column] = self._index[gate.output]
                if _OPCODES[gate.gate_type][1]:
                    invert_mask[column, 0] = _ALL_ONES
                    any_inverting = True
                for row, source in enumerate(gate.inputs):
                    source_id = self._index.get(source)
                    if source_id is None:
                        raise KeyError(
                            f"gate {gate.output!r} reads undriven net {source!r}"
                        )
                    operands[row, column] = source_id
            schedule.append(
                _GateGroup(
                    reduce=reduce,
                    operands=operands,
                    outputs=outputs,
                    invert_mask=invert_mask if any_inverting else None,
                )
            )
            levelized.extend(gates)
        return tuple(schedule), tuple(levelized)


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist``, reusing the cached artefact when structure allows.

    The compiled view is memoised on the netlist and dropped automatically on
    any structural mutation, so callers can invoke this freely on hot paths.
    """
    return netlist.memo(_MEMO_KEY, lambda: CompiledNetlist(netlist))


class CompiledSequentialNetlist:
    """A sequential netlist lowered for multi-cycle matrix-at-once simulation.

    The flip-flop boundary is cut once: the combinational core (identical to
    the full-scan view, so net names and ids match the combinational flow) is
    compiled to the levelised group schedule, and clocking is a state-matrix
    update.  A ``(num_state_bits, num_words)`` uint64 state matrix carries 64
    independent *pattern sequences* per word; every clock cycle evaluates the
    core once on ``[per-cycle inputs; current state]`` and gathers the
    flip-flop D rows of the result back into the state matrix.

    All sequences start from the all-zero reset state unless an explicit
    ``initial_state`` is given, and all sequences advance in lockstep — cycle
    ``t`` of every packed lane is simulated by the same ``run_packed`` call.
    """

    def __init__(self, netlist: Netlist) -> None:
        from repro.circuits.scan import ensure_combinational, sequential_interface

        if not netlist.is_sequential:
            raise ValueError(
                "CompiledSequentialNetlist requires a sequential netlist; "
                "combinational circuits have no state to step (use CompiledNetlist)"
            )
        self.netlist = netlist
        self.interface = sequential_interface(netlist)
        self._core_netlist = ensure_combinational(netlist)
        self._core = compile_netlist(self._core_netlist)
        if self._core.sources != self.interface.inputs + self.interface.state:
            raise ValueError(
                "full-scan source ordering does not match the sequential "
                "interface (inputs followed by flip-flop Q nets)"
            )
        self.net_names: tuple[str, ...] = self._core.net_names
        self.num_nets = self._core.num_nets
        self.num_inputs = len(self.interface.inputs)
        self.num_state_bits = self.interface.num_state_bits
        self._next_state_rows = np.fromiter(
            (self._core.index_of(d) for d in self.interface.next_state),
            dtype=np.int64,
            count=self.num_state_bits,
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary inputs: the per-cycle stimulus of a test sequence."""
        return self.interface.inputs

    def index_of(self, net: str) -> int:
        """Dense id of ``net`` (row index within each cycle's value matrix)."""
        return self._core.index_of(net)

    def __contains__(self, net: str) -> bool:
        return net in self._core

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run_packed_sequence(
        self, packed_inputs: np.ndarray, initial_state: np.ndarray | None = None
    ) -> np.ndarray:
        """Step packed input words across clock cycles.

        ``packed_inputs`` must have shape ``(cycles, num_inputs, num_words)``;
        bit lane ``b`` of word ``w`` across all cycles forms one input
        sequence.  ``initial_state`` is an optional packed
        ``(num_state_bits, num_words)`` state matrix (default: all-zero
        reset).  Returns a ``(cycles, num_nets, num_words)`` tensor whose
        slice ``[t]`` is the value matrix of cycle ``t``.
        """
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        if packed_inputs.ndim != 3 or packed_inputs.shape[1] != self.num_inputs:
            raise ValueError(
                f"packed sequence inputs must have shape (cycles, "
                f"{self.num_inputs}, num_words), got {packed_inputs.shape}"
            )
        cycles, _, num_words = packed_inputs.shape
        if cycles == 0:
            raise ValueError("a sequence needs at least one clock cycle")
        if initial_state is None:
            state = np.zeros((self.num_state_bits, num_words), dtype=np.uint64)
        else:
            state = np.asarray(initial_state, dtype=np.uint64)
            if state.shape != (self.num_state_bits, num_words):
                raise ValueError(
                    f"initial state must have shape ({self.num_state_bits}, "
                    f"{num_words}), got {state.shape}"
                )
        values = np.empty((cycles, self.num_nets, num_words), dtype=np.uint64)
        sources = np.empty((self.num_inputs + self.num_state_bits, num_words), dtype=np.uint64)
        with obs.trace.span("sim.sequence"):
            for cycle in range(cycles):
                sources[: self.num_inputs] = packed_inputs[cycle]
                sources[self.num_inputs:] = state
                values[cycle] = self._core.run_packed(sources)
                state = values[cycle][self._next_state_rows]
        return values

    def run_sequences(
        self, sequences: np.ndarray, initial_state: np.ndarray | None = None
    ) -> tuple[np.ndarray, int]:
        """Pack and simulate a ``(num_sequences, cycles, num_inputs)`` 0/1 array.

        ``initial_state`` is an optional unpacked ``(num_sequences,
        num_state_bits)`` 0/1 array (default: reset).  Returns
        ``(tensor, num_sequences)`` with ``tensor`` as in
        :meth:`run_packed_sequence`.
        """
        sequences = np.asarray(sequences)
        if sequences.ndim != 3 or sequences.shape[2] != self.num_inputs:
            raise ValueError(
                f"sequences must have shape (num_sequences, cycles, "
                f"{self.num_inputs}), got {sequences.shape}"
            )
        num_sequences, cycles, _ = sequences.shape
        if cycles == 0:
            raise ValueError("a sequence needs at least one clock cycle")
        packed_cycles = [pack_patterns(sequences[:, cycle, :])[0] for cycle in range(cycles)]
        packed = np.stack(packed_cycles)
        packed_state = None
        if initial_state is not None:
            initial_state = np.asarray(initial_state)
            if initial_state.shape != (num_sequences, self.num_state_bits):
                raise ValueError(
                    f"initial state must have shape ({num_sequences}, "
                    f"{self.num_state_bits}), got {initial_state.shape}"
                )
            packed_state = pack_patterns(initial_state)[0]
        return self.run_packed_sequence(packed, initial_state=packed_state), num_sequences

    def count_ones_per_cycle(
        self, num_sequences: int, cycles: int, seed: RngLike = None
    ) -> np.ndarray:
        """Per-cycle, per-net count of 1-values over random input sequences.

        Draws ``num_sequences`` random input sequences of length ``cycles``
        directly in packed form, steps them from reset, and returns an
        ``int64`` matrix of shape ``(cycles, num_nets)`` aligned with
        :attr:`net_names`.  This is the substrate of state-dependent rare-net
        extraction: activation counts are taken under the circuit's *reached*
        state distribution instead of the full-scan assumption that every
        flip-flop is directly controllable.
        """
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        if num_sequences <= 0:
            return np.zeros((cycles, self.num_nets), dtype=np.int64)
        rng = make_rng(seed)
        num_words = max(1, (num_sequences + _WORD_BITS - 1) // _WORD_BITS)
        packed = rng.integers(
            0, 2**64 - 1, size=(cycles, self.num_inputs, num_words),
            dtype=np.uint64, endpoint=True,
        )
        tail_bits = num_sequences - (num_words - 1) * _WORD_BITS
        if 0 < tail_bits < _WORD_BITS:
            packed[:, :, -1] &= np.uint64((1 << tail_bits) - 1)
        values = self.run_packed_sequence(packed)
        if 0 < tail_bits < _WORD_BITS:
            values[:, :, -1] &= np.uint64((1 << tail_bits) - 1)
        return np.bitwise_count(values).sum(axis=2, dtype=np.int64)


def compile_sequential_netlist(netlist: Netlist) -> CompiledSequentialNetlist:
    """Compile a sequential ``netlist`` for multi-cycle simulation (memoised).

    Like :func:`compile_netlist`, the artefact lives in the netlist's memo
    cache and is invalidated automatically on structural mutation.
    """
    return netlist.memo(
        _SEQUENTIAL_MEMO_KEY, lambda: CompiledSequentialNetlist(netlist)
    )


def pack_patterns(patterns: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack a ``(num_patterns, num_inputs)`` 0/1 array into uint64 words.

    Returns ``(packed, num_patterns)`` where ``packed`` has shape
    ``(num_inputs, num_words)`` and bit ``p % 64`` of word ``p // 64`` holds
    pattern ``p``'s value for that input.  Inputs are validated to be 0/1:
    any other value (e.g. a stray 2) would otherwise corrupt neighbouring
    bit lanes through the packing arithmetic.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim != 2:
        raise ValueError(f"patterns must be 2-D, got shape {patterns.shape}")
    if patterns.size and not np.all((patterns == 0) | (patterns == 1)):
        offending = patterns[(patterns != 0) & (patterns != 1)].ravel()[0]
        raise ValueError(
            f"patterns must contain only 0/1 values, found {offending!r}"
        )
    num_patterns, num_inputs = patterns.shape
    num_words = max(1, (num_patterns + _WORD_BITS - 1) // _WORD_BITS)
    padded = np.zeros((num_inputs, num_words * _WORD_BITS), dtype=np.uint8)
    if num_patterns:
        padded[:, :num_patterns] = patterns.T
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    packed = packed_bytes.view(np.dtype("<u8"))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        packed = packed.astype(np.uint64)
    return np.ascontiguousarray(packed, dtype=np.uint64), num_patterns


def unpack_matrix(words: np.ndarray, num_patterns: int) -> np.ndarray:
    """Unpack ``(rows, num_words)`` uint64 words into ``(rows, num_patterns)`` bits."""
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    if num_patterns <= 0:
        return np.zeros((words.shape[0], 0), dtype=np.uint8)
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    bits = ((words[:, :, None] >> shifts[None, None, :]) & np.uint64(1)).astype(np.uint8)
    return bits.reshape(words.shape[0], -1)[:, :num_patterns]


def batched_conjunctions(
    matrix: np.ndarray,
    conjunctions: list[tuple[np.ndarray, np.ndarray]],
    num_patterns: int,
) -> np.ndarray:
    """Evaluate many value conjunctions on one packed value matrix.

    Each conjunction is ``(net_ids, required_values)``; the result is a
    boolean ``(num_conjunctions, num_patterns)`` activation matrix.  This is
    the batched multi-Trojan primitive: conjunctions of equal width are
    stacked and AND-reduced together, so the cost of evaluating a whole
    Trojan population is a handful of numpy reductions over rows of a single
    clean-netlist simulation.
    """
    activations = np.zeros((len(conjunctions), num_patterns), dtype=bool)
    if not conjunctions or num_patterns == 0:
        return activations
    fired = conjunction_words(matrix, conjunctions)
    return unpack_matrix(fired, num_patterns).astype(bool)


def conjunction_words(
    matrix: np.ndarray, conjunctions: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Packed activation words of many conjunctions on one value matrix.

    The packed counterpart of :func:`batched_conjunctions`: the result has
    shape ``(num_conjunctions, num_words)`` and bit ``b`` of word ``w`` in row
    ``t`` is 1 iff pattern ``w * 64 + b`` fires conjunction ``t``.  The
    multi-cycle Trojan evaluator calls this once per clock cycle and combines
    the per-cycle words with bit-plane accumulators, so pattern-sequence
    lanes stay packed end to end.
    """
    num_words = matrix.shape[1]
    fired = np.zeros((len(conjunctions), num_words), dtype=np.uint64)
    by_width: dict[int, list[int]] = {}
    for position, (ids, _) in enumerate(conjunctions):
        by_width.setdefault(len(ids), []).append(position)
    for _width, positions in by_width.items():
        ids = np.stack([conjunctions[p][0] for p in positions])  # (T, width)
        required = np.stack([conjunctions[p][1] for p in positions])  # (T, width)
        words = matrix[ids]  # (T, width, num_words), a copy
        flip = required == 0
        words[flip] = ~words[flip]
        fired[positions] = np.bitwise_and.reduce(words, axis=1)  # (T, num_words)
    return fired


__all__ = [
    "CompiledNetlist",
    "CompiledSequentialNetlist",
    "compile_netlist",
    "compile_sequential_netlist",
    "batched_conjunctions",
    "conjunction_words",
    "pack_patterns",
    "unpack_matrix",
]
