"""SAT substrate: CNF structures, a CDCL solver, and circuit encodings.

The paper uses the PicoSAT solver (via ``pycosat``) for two tasks: checking
whether a set of rare nets is *compatible* (can simultaneously take their rare
values) and generating an input pattern that witnesses a compatible set.  This
subpackage provides both capabilities on top of a from-scratch CDCL solver,
and extends them across clock cycles: :class:`TimeFrameExpansion` unrolls a
sequential netlist's transition relation k cycles into one incrementally
extendable CNF, and :class:`SequentialJustifier` justifies multi-cycle
(consecutive / cumulative count-k) triggers on it, extracting replay-verified
witness sequences.

The public solver surface is :class:`CdclSolver` configured through a frozen
:class:`SolverConfig` (EVSIDS decay, Luby/geometric restarts, clause-database
reduction) and observed through cumulative :class:`SolverStats` — every
higher-level entry point (:class:`Justifier`, :class:`SequentialJustifier`,
:class:`TimeFrameExpansion`) accepts a ``config`` and exposes ``stats()``.
"""
