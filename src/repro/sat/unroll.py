"""Time-frame expansion: the sequential transition relation as one CNF.

The combinational flow encodes the scan-cut core once
(:class:`~repro.sat.encode.CircuitEncoder`) and treats flip-flop Q nets as
free pseudo inputs.  That view answers *single-cycle* questions only: it
happily assigns the state register any value, including states the machine
can never reach from reset.  :class:`TimeFrameExpansion` removes that
assumption by unrolling the transition relation ``k`` clock cycles:

- the core's CNF template is instantiated once per *frame* (clock cycle)
  under a per-frame variable map — frame ``t``'s copy of core variable ``v``
  lives in a dedicated variable block, so every net has one CNF variable per
  cycle;
- frame 0's flip-flop Q variables are pinned to the reset state (all-zero by
  default, matching :meth:`repro.circuits.scan.SequentialInterface
  .reset_assignment`) with unit clauses;
- between consecutive frames, *state-transfer* clauses assert that frame
  ``t + 1``'s Q variable equals frame ``t``'s D variable, exactly the
  clocking rule of :class:`~repro.simulation.compiled
  .CompiledSequentialNetlist`.

A model of the unrolled formula is therefore a complete, replayable
execution: per-cycle primary-input values (:meth:`decode_inputs`) plus every
internal net's value at every cycle, all consistent with stepping the real
machine from reset.

Depth extension is **incremental**: :meth:`extend_to` appends frames to the
same :class:`~repro.sat.solver.CdclSolver`, keeping learned clauses, instead
of re-encoding from scratch — the sequential analogue of the incremental
assumption-based querying the pairwise compatibility phase relies on.
Temporal layers on top (:mod:`repro.sat.temporal`) number auxiliary
variables from :attr:`num_vars` and hand them over, with their clauses, to
:meth:`add_auxiliary`; frame blocks and auxiliaries share one numbering, so
extension and auxiliary encoding can interleave freely.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.scan import ensure_combinational, sequential_interface
from repro.sat.cnf import Literal
from repro.sat.encode import CircuitEncoder
from repro.sat.solver import CdclSolver, SolverConfig, SolverResult, SolverStats


class TimeFrameExpansion:
    """Incremental k-cycle unrolling of a sequential netlist's CNF encoding."""

    def __init__(
        self,
        netlist: Netlist,
        num_frames: int = 1,
        initial_state: dict[str, int] | None = None,
        config: SolverConfig | None = None,
    ) -> None:
        if not netlist.is_sequential:
            raise ValueError(
                "TimeFrameExpansion requires a sequential netlist; combinational "
                "circuits have no transition relation to unroll (use CircuitEncoder)"
            )
        if num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {num_frames}")
        self.netlist = netlist
        self.interface = sequential_interface(netlist)
        self._core = ensure_combinational(netlist)
        self._encoder = CircuitEncoder(self._core)
        self._template = self._encoder.cnf
        self._frame_size = self._template.num_vars
        self.config = config or SolverConfig()
        self._solver = CdclSolver(config=self.config)
        self._frame_base: list[int] = []
        self._next_var = 0
        self.num_queries = 0
        state = self.interface.reset_assignment()
        if initial_state:
            unknown = sorted(set(initial_state) - set(state))
            if unknown:
                raise KeyError(
                    f"initial state names non-state nets: {', '.join(unknown)}"
                )
            for net, value in initial_state.items():
                if value not in (0, 1):
                    raise ValueError(
                        f"initial state for {net!r} must be 0 or 1, got {value}"
                    )
                state[net] = value
        self._initial_state = state
        self.extend_to(num_frames)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of unrolled clock cycles."""
        return len(self._frame_base)

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary inputs: the per-cycle stimulus of the unrolled machine."""
        return self.interface.inputs

    def variable(self, net: str, frame: int) -> int:
        """CNF variable of ``net`` at clock cycle ``frame``."""
        if not 0 <= frame < self.num_frames:
            raise IndexError(
                f"frame {frame} out of range (expansion has {self.num_frames} frames)"
            )
        return self._frame_base[frame] + self._encoder.variable(net)

    def variables(self, nets, frames: int) -> list[list[int]]:
        """:meth:`variable` of each net (a row) at each cycle ``t < frames`` (a column)."""
        if not 0 < frames <= self.num_frames:
            raise IndexError(f"{frames} frames out of range (expansion has {self.num_frames})")
        bases = self._frame_base[:frames]
        return [[base + core for base in bases] for core in map(self._encoder.variable, nets)]

    @staticmethod
    def values(result: SolverResult, variables) -> np.ndarray:
        """Truth of every variable of a grid in a SAT result: one gather over its snapshot."""
        return np.asarray(result.values, dtype=np.int8)[np.asarray(variables, np.intp) - 1] == 1

    def literal(self, net: str, value: int, frame: int) -> Literal:
        """Literal asserting ``net`` equals ``value`` at cycle ``frame``."""
        if value not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {value}")
        variable = self.variable(net, frame)
        return variable if value == 1 else -variable

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def extend_to(self, num_frames: int) -> "TimeFrameExpansion":
        """Unroll up to ``num_frames`` cycles, reusing the existing solver.

        Already-built frames are kept (along with every learned clause); a
        request smaller than the current depth is a no-op.  Returns ``self``
        for chaining.
        """
        if num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {num_frames}")
        while self.num_frames < num_frames:
            frame = self.num_frames
            base = self._next_var
            self._next_var += self._frame_size
            self._solver.reserve_vars(self._next_var)
            self._frame_base.append(base)
            clauses = [[lit + base if lit > 0 else lit - base for lit in clause]
                       for clause in self._template.clauses]
            if frame == 0:
                clauses += ([self.literal(net, v, 0)] for net, v in self._initial_state.items())
            else:
                for q, d in zip(self.interface.state, self.interface.next_state):
                    q_var = self.variable(q, frame)
                    d_var = self.variable(d, frame - 1)
                    clauses += ([-q_var, d_var], [q_var, -d_var])
            self._solver.add_clauses(clauses)
        return self

    @property
    def num_vars(self) -> int:
        """Variables in use: every frame block and auxiliary variable so far."""
        return self._next_var

    def add_auxiliary(self, num_vars: int, clauses: list[list[Literal]]) -> None:
        """Take variables up to ``num_vars`` as auxiliaries: one growth, then ``clauses``."""
        self._next_var = max(self._next_var, num_vars)
        self._solver.reserve_vars(self._next_var)
        self._solver.add_clauses(clauses)

    def set_phases(self, phases: dict[int, bool]) -> None:
        """Set preferred decision phases (see :meth:`CdclSolver.set_phases`)."""
        self._solver.set_phases(phases)

    # ------------------------------------------------------------------
    # Solving and decoding
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[Literal] | None = None) -> SolverResult:
        """Solve the unrolled formula under optional assumption literals."""
        self.num_queries += 1
        return self._solver.solve(assumptions)

    def stats(self) -> SolverStats:
        """Cumulative solver statistics across every query so far."""
        return self._solver.stats()

    def decode_inputs(self, result: SolverResult) -> np.ndarray:
        """Per-cycle primary-input values of a SAT result's model.

        Returns a ``(num_frames, num_inputs)`` uint8 array whose row ``t`` is
        the stimulus the model applies at clock cycle ``t`` — directly usable
        as one sequence of a :class:`~repro.core.patterns.SequenceSet`.
        """
        truth = self.values(result, self.variables(self.interface.inputs, self.num_frames))
        return truth.reshape(-1, self.num_frames).T.astype(np.uint8, order="C")


__all__ = ["TimeFrameExpansion"]
