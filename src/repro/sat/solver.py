"""A CDCL (conflict-driven clause learning) SAT solver.

This is the library's replacement for the PicoSAT/pycosat solver the paper
uses.  The implementation follows the MiniSat architecture with the classic
performance stack on top:

- two-watched-literal unit propagation with **blocking literals**, all
  watch lists in one pooled table,
- first-UIP conflict analysis with clause learning and LBD (literal block
  distance) tracking,
- **EVSIDS** variable activities on an indexed max-heap
  (:class:`~repro.sat.heap.ActivityHeap`): additive bumps with a growing
  increment instead of decaying every activity, lazy heap deletion on
  assignment and re-insertion on backtrack,
- phase saving, carried across restarts,
- **Luby ("reluctant doubling") restarts** (geometric scheduling remains
  available through :class:`SolverConfig`),
- **clause-database reduction**: learned clauses are periodically forgotten
  worst-half-first by (LBD, activity), pinning reason clauses, binary
  clauses, and low-LBD "glue" clauses,
- incremental solving under assumptions,
- a **native search**: each query's whole search (:meth:`CdclSolver._search`
  with propagation, analysis, learning, restarts and decisions), each block
  of clauses (:meth:`CdclSolver._add_clause` per clause) and watch removal
  run in C, one call each (``_kernel.c``, built and loaded by
  :mod:`repro.sat.native`) where a compiler is available.  The C mirrors
  the Python methods step for step on the same arrays, so the search is the
  same on both paths; the Python methods are the reference and the fallback.

The solver keeps no Python object per clause or per literal.  Every
clause's literal codes sit in one ``array('i')`` arena, after a two-int
header (size, learned index), and a clause is named by the offset of its
first literal.  Learned clauses keep their LBD and activity in typed side
tables; watch and implication lists are :class:`PairLists` pools; the value,
level, reason, phase and trail tables are typed arrays (lists where no
kernel loads: :func:`repro.sat.native.table`).  The garbage collector sees
a fixed handful of objects per solver, however large the formula grows.

Incremental assumptions matter for this reproduction: pairwise compatibility
of ``r`` rare nets requires ``O(r^2)`` satisfiability queries on the *same*
circuit encoding, so the encoder builds one CNF and the compatibility analysis
re-solves it under different assumption literals, keeping learned clauses.
Clause forgetting is what keeps that incremental reuse affordable on deep
time-frame unrolls, where the learned-clause set would otherwise grow without
bound across :meth:`~repro.sat.unroll.TimeFrameExpansion.extend_to` calls.

Configuration is a frozen :class:`SolverConfig`; cumulative counters are a
:class:`SolverStats` snapshot from :meth:`CdclSolver.stats`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace

from repro.sat import native
from repro.sat.cnf import CNF, Literal
from repro.sat.heap import ActivityHeap

#: Restart schedules :class:`SolverConfig` accepts.
RESTART_POLICIES = ("luby", "geometric")


@dataclass(frozen=True)
class SolverConfig:
    """Frozen CDCL tuning knobs (the solver's public configuration surface).

    Attributes:
        var_decay: EVSIDS decay; each conflict grows the bump increment by
            ``1 / var_decay`` (0 < var_decay < 1; higher = longer memory).
        clause_decay: the same growth rule for learned-clause activities,
            used as the tie-break when forgetting equal-LBD clauses.
        restart_policy: ``"luby"`` (reluctant doubling, the default) or
            ``"geometric"`` (the pre-overhaul schedule).
        restart_base: conflicts per restart unit — the Luby multiplier, or
            the first geometric limit.
        restart_growth: geometric limit multiplier (ignored under Luby).
        reduce_base: learned clauses tolerated before the first reduction.
        reduce_growth: limit increase after each reduction (so the database
            is allowed to grow slowly as the search matures).
        reduce_fraction: fraction of forgettable learned clauses deleted per
            reduction, worst (highest LBD, lowest activity) first.
        glue_lbd: clauses with LBD <= this are never forgotten ("glue").
        verify_models: re-check every SAT model against the full problem
            clause database before returning it.  Off by default — it costs
            O(formula) per SAT answer, and the pipelines that consume models
            replay their witnesses through the compiled simulation engines
            anyway; turn it on when debugging encodings.
    """

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_policy: str = "luby"
    restart_base: int = 100
    restart_growth: float = 1.5
    reduce_base: int = 2000
    reduce_growth: int = 300
    reduce_fraction: float = 0.5
    glue_lbd: int = 2
    verify_models: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.var_decay < 1.0:
            raise ValueError(f"var_decay must be in (0, 1), got {self.var_decay}")
        if not 0.0 < self.clause_decay < 1.0:
            raise ValueError(f"clause_decay must be in (0, 1), got {self.clause_decay}")
        if self.restart_policy not in RESTART_POLICIES:
            raise ValueError(
                f"restart_policy must be one of {RESTART_POLICIES}, "
                f"got {self.restart_policy!r}"
            )
        if self.restart_base < 1:
            raise ValueError(f"restart_base must be >= 1, got {self.restart_base}")
        if self.restart_growth <= 1.0:
            raise ValueError(f"restart_growth must be > 1, got {self.restart_growth}")
        if self.reduce_base < 1:
            raise ValueError(f"reduce_base must be >= 1, got {self.reduce_base}")
        if self.reduce_growth < 0:
            raise ValueError(f"reduce_growth must be >= 0, got {self.reduce_growth}")
        if not 0.0 < self.reduce_fraction <= 1.0:
            raise ValueError(
                f"reduce_fraction must be in (0, 1], got {self.reduce_fraction}"
            )
        if self.glue_lbd < 0:
            raise ValueError(f"glue_lbd must be >= 0, got {self.glue_lbd}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SolverConfig":
        """Build a config from a plain dict (the ``--set solver=...`` path).

        Unknown keys raise ``ValueError`` with the supported key list, so a
        typo on the CLI fails loudly instead of being silently ignored.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown SolverConfig key(s): {', '.join(unknown)}; "
                f"supported: {', '.join(sorted(known))}"
            )
        return cls(**mapping)

    def replace(self, **overrides) -> "SolverConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-ready, stable field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SolverStats:
    """Cumulative per-solver counters (monotone across queries).

    ``learned_clauses``/``deleted_clauses`` count lifetime events, not the
    current database size; ``max_trail`` is the deepest assignment stack any
    query reached.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_trail: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (JSON-ready, stable key order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Aggregate two stats snapshots (sums; ``max_trail`` takes the max)."""
        return SolverStats(
            conflicts=self.conflicts + other.conflicts,
            decisions=self.decisions + other.decisions,
            propagations=self.propagations + other.propagations,
            restarts=self.restarts + other.restarts,
            learned_clauses=self.learned_clauses + other.learned_clauses,
            deleted_clauses=self.deleted_clauses + other.deleted_clauses,
            max_trail=max(self.max_trail, other.max_trail),
        )


class SolverResult:
    """Outcome of a SAT query.

    A SAT answer of :class:`CdclSolver` keeps its variables' values in
    ``values`` (variable ``v`` at index ``v - 1``, 1 for true) and builds
    :attr:`model` only when it is first read; :meth:`value` reads the values.
    """

    __slots__ = ("satisfiable", "stats", "_model", "values")

    def __init__(
        self, satisfiable: bool, model: dict[int, bool] | None = None,
        stats: SolverStats | None = None, *, values=None,
    ) -> None:
        self.satisfiable, self._model, self.stats, self.values = satisfiable, model, stats, values

    @property
    def model(self) -> dict[int, bool] | None:
        """``{variable: value}``, or None for an UNSAT answer."""
        if self._model is None and self.values is not None:
            self._model = dict(enumerate(map((1).__eq__, self.values), 1))
        return self._model

    def value(self, variable: int) -> bool:
        """Value of ``variable`` in the model (SAT results only)."""
        values = self.values
        if values is not None:
            return 0 < variable <= len(values) and values[variable - 1] == 1
        if self._model is None:
            raise ValueError("no model available: formula was unsatisfiable")
        return self._model.get(variable, False)


class PairLists:
    """One list of int pairs per literal code, all kept in one table.

    The list of code ``c`` is ``items[start[c] : start[c] + size[c]]``, two
    ints per pair, in a segment of ``capacity[c]`` ints.  A full list moves
    to a segment twice as large at the end of ``items`` (the C kernel
    appends by the same rule), so the space left behind stays below the
    capacity in use.  A table is one GC-tracked object: one pool per kind,
    not one table per code, keeps the collector's work flat.
    """

    __slots__ = ("items", "start", "size", "capacity")

    def __init__(self) -> None:
        # Empty lists for codes 0 and 1 (variable 0, unused).
        self.items = native.table("i")
        self.start = native.table("i", [0, 0])
        self.size = native.table("i", [0, 0])
        self.capacity = native.table("i", [0, 0])

    def grow(self, extra: int) -> None:
        """Add ``extra`` empty lists."""
        for table in (self.start, self.size, self.capacity):
            native.extend(table, 0, extra)

    def append(self, code: int, first: int, second: int) -> None:
        """Append the pair ``(first, second)`` to the list of ``code``."""
        items, start, size = self.items, self.start[code], self.size[code]
        if size == self.capacity[code]:
            capacity = 2 * size if size else 4
            moved = len(items)
            items.extend(items[start:start + size])
            items.extend([0] * (capacity - size))
            self.start[code], self.capacity[code], start = moved, capacity, moved
        items[start + size] = first
        items[start + size + 1] = second
        self.size[code] = size + 2


def luby(index: int) -> int:
    """The reluctant-doubling sequence 1,1,2,1,1,2,4,... (0-based index)."""
    size, height = 1, 0
    while size < index + 1:
        height += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        height -= 1
        index %= size
    return 1 << height


#: Rescale threshold/factor for EVSIDS activities (MiniSat's constants).
_ACTIVITY_LIMIT = 1e100
_ACTIVITY_RESCALE = 1e-100
_CLAUSE_ACTIVITY_LIMIT = 1e20
_CLAUSE_ACTIVITY_RESCALE = 1e-20


class CdclSolver:
    """Incremental CDCL solver over a :class:`~repro.sat.cnf.CNF` formula.

    Public methods speak DIMACS literals.  Internally a literal is a *code*,
    ``2v`` for ``v`` and ``2v + 1`` for ``-v`` (negation is ``code ^ 1``),
    and one value table indexed by code holds 1, 0 or -1 (unassigned).  A
    clause is the offset of its first literal in the arena; -1 is no clause.
    """

    def __init__(
        self,
        cnf: CNF | None = None,
        *,
        config: SolverConfig | None = None,
    ) -> None:
        self.config = config if config is not None else SolverConfig()

        self._num_vars = 0
        # Each clause is ``[size, learned index or -1, code, code, ...]`` in
        # the arena; ``_problem`` and ``_learned`` hold offsets in the order
        # the clauses were added, and ``_lbd``/``_activity`` run parallel to
        # ``_learned``.  ``_reduce_db`` compacts the arena and the pools.
        self._arena = native.table("i")
        self._problem = native.table("i")
        self._learned = native.table("i")
        self._lbd = native.table("i")
        self._activity = native.table("d")
        # Watch lists, indexed by code, hold ``(offset, blocking code)`` pairs.
        # Binary clauses live in their own implication lists (``falsified code
        # -> (implied code, offset)``): their watches never move, so
        # propagation skips the replacement search — most Tseitin clauses are
        # binary.
        self._watches = PairLists()
        self._binary = PairLists()
        self._value = native.table("b", [-1, -1])  # codes 0 and 1 (variable 0) unused
        # Per-variable tables, index 0 unused.  ``_phase`` is the sign bit of
        # the preferred decision code.
        self._level = native.table("i", [0])
        self._reason = native.table("i", [-1])
        self._phase = native.table("b", [1])
        self._seen = bytearray(1)
        self._heap = ActivityHeap()
        self._trail = native.table("i")
        self._trail_limits = native.table("i")
        self._queue_head = 0
        self._var_inc = 1.0
        self._clause_inc = 1.0
        self._restarts_scheduled = 0
        self._reduce_limit = self.config.reduce_base
        self._stats = SolverStats()
        self._unsat = False
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def add_cnf(self, cnf: CNF) -> None:
        """Load all clauses of ``cnf`` into the solver."""
        self._ensure_vars(cnf.num_vars)
        self.add_clauses(cnf.clauses)

    def add_clause(self, literals: list[Literal]) -> None:
        """Add a clause; may only be called at decision level 0.

        Literals are any integers (``operator.index``); a literal that is not
        one raises TypeError before any solver state changes.
        """
        self.add_clauses((literals,))

    def add_clauses(self, clauses) -> None:
        """Add clauses in order, each as by :meth:`add_clause` (one that raises adds nothing)."""
        kernel = native.kernel()
        if kernel is not None:
            return kernel.add_clauses(self, clauses)
        for literals in clauses:
            self._add_clause(literals)

    def _add_clause(self, literals: list[Literal]) -> None:
        """:meth:`add_clause` in Python (C mirror: ``_kernel.add_clauses``, per clause)."""
        if self._trail_limits:
            raise RuntimeError("clauses can only be added at decision level 0")
        literals = sorted({operator.index(literal) for literal in literals}, key=abs)
        # Sorted by variable, so 0 can only come first and a tautology shows
        # as two adjacent literals on the same variable.
        if literals and literals[0] == 0:
            raise ValueError("0 is not a valid DIMACS literal")
        previous = 0
        for literal in literals:
            if literal == -previous:
                return  # tautology
            previous = literal
        self._ensure_vars(abs(previous))
        # At level 0 every assignment is permanent: drop false literals and
        # skip the clause if one is already true.
        value = self._value
        clause = []
        for literal in literals:
            code = literal << 1 if literal > 0 else (-literal << 1) | 1
            state = value[code]
            if state == -1:
                clause.append(code)
            elif state == 1:
                return
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            self._enqueue(clause[0])  # unassigned: always succeeds
            if self._propagate() >= 0:
                self._unsat = True
            return
        offset = self._store(clause, -1)
        self._problem.append(offset)
        self._watch_clause(offset)

    def reserve_vars(self, num_vars: int) -> None:
        """Grow the variable space to at least ``num_vars`` (idempotent).

        Callers that allocate variables externally — e.g. the time-frame
        expansion handing out per-frame blocks and temporal auxiliary
        variables — must reserve them before using them in assumptions or
        :meth:`set_phases`; :meth:`add_clause` grows the space implicitly.
        """
        num_vars = operator.index(num_vars)
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        self._ensure_vars(num_vars)

    def set_phases(self, phases: dict[int, bool]) -> None:
        """Set the preferred decision phase of selected variables.

        The solver picks this polarity the next time it branches on the
        variable (phase saving later overrides it as assignments happen).
        Callers that want a persistent bias re-apply the phases before each
        query; :class:`repro.sat.justify.Justifier` does this for rare-net
        values so that SAT witnesses opportunistically activate additional
        rare nets beyond the ones explicitly constrained.

        One min/max test checks every variable before any phase changes, so
        an unknown one raises ValueError naming it and leaves all phases as they were.
        """
        if phases and not (1 <= min(phases) and max(phases) <= self._num_vars):
            unknown = next(v for v in phases if not 1 <= v <= self._num_vars)
            raise ValueError(f"unknown variable {unknown}")
        phase = self._phase
        for variable, value in phases.items():
            phase[variable] = 0 if value else 1

    def stats(self) -> SolverStats:
        """Snapshot of the cumulative solver counters (an independent copy)."""
        return SolverStats(**vars(self._stats))

    def _ensure_vars(self, num_vars: int) -> None:
        extra = num_vars - self._num_vars
        if extra <= 0:
            return
        native.extend(self._value, -1, 2 * extra)
        native.extend(self._level, 0, extra)
        native.extend(self._reason, -1, extra)
        native.extend(self._phase, 1, extra)
        self._seen.extend(bytes(extra))
        self._watches.grow(2 * extra)
        self._binary.grow(2 * extra)
        self._heap.grow(num_vars)
        self._num_vars = num_vars  # last, so a failed growth leaves the count as it was

    def _store(self, codes, learned_index: int) -> int:
        """Append a clause to the arena; returns its offset."""
        arena = self._arena
        arena.append(len(codes))
        arena.append(learned_index)
        offset = len(arena)
        arena.extend(codes)
        return offset

    def _clause(self, offset: int) -> list[int]:
        """The literal codes of the clause at ``offset``, in their current order."""
        return list(self._arena[offset:offset + self._arena[offset - 2]])

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[Literal] | None = None) -> SolverResult:
        """Solve the formula under optional assumption literals.

        An assumption of 0 or of an unknown variable raises ValueError, and
        one that is not an integer (``operator.index``) TypeError, before any
        solver state changes.
        """
        codes = native.table("i")
        for literal in assumptions or ():
            literal = operator.index(literal)
            if not 1 <= abs(literal) <= self._num_vars:
                raise ValueError(
                    f"assumption literal {literal} is not a DIMACS literal over "
                    f"variables 1..{self._num_vars}"
                )
            codes.append(literal << 1 if literal > 0 else (-literal << 1) | 1)
        if self._unsat:
            return self._result(False)
        # The C kernel where it builds, else the Python search it mirrors.
        kernel = native.kernel()
        values = self._search(codes) if kernel is None else kernel.solve(self, codes)
        if values is None:
            return self._result(False)
        if self.config.verify_models:
            self._verify_model(values)
        return SolverResult(True, stats=self.stats(), values=values)

    def _search(self, codes: list[int]):
        """Search under the assumption ``codes``: a model's values (``value[2::2]``,
        taken before the last backtrack), or None (C mirror: ``_kernel.solve``)."""
        propagate, backtrack, analyze = self._propagate, self._backtrack, self._analyze
        backtrack(0)
        if propagate() >= 0:
            self._unsat = True
            return None

        config = self.config
        stats = self._stats
        value = self._value
        trail = self._trail
        num_vars = self._num_vars
        heap = self._heap
        self._restarts_scheduled = 0  # each query restarts the schedule
        restart_limit = self._next_restart_limit()
        conflicts_since_restart = 0
        while True:
            conflict = propagate()
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_limits:
                    self._unsat = True
                    return None
                learned, backjump, lbd = analyze(conflict)
                backtrack(backjump)
                if not self._handle_learned(learned, lbd):
                    backtrack(0)
                    return None
                self._var_inc *= 1.0 / config.var_decay
                self._clause_inc *= 1.0 / config.clause_decay
                if conflicts_since_restart >= restart_limit:
                    stats.restarts += 1
                    conflicts_since_restart = 0
                    restart_limit = self._next_restart_limit()
                    backtrack(0)
                    if len(self._learned) >= self._reduce_limit:
                        self._reduce_db()
                continue

            # Re-establish assumptions after any backtracking: the first one
            # not yet true is decided next, or proves the query UNSAT.
            state = 1
            for code in codes:
                state = value[code]
                if state != 1:
                    break
            if state == 0:
                backtrack(0)
                return None
            if state == -1:
                self._trail_limits.append(len(trail))
                self._enqueue(code)
                continue

            if len(trail) == num_vars:
                # Every variable is assigned, so popping would only drain the
                # heap entry by entry; clearing it leaves the same state.
                heap.clear()
                variable = None
            else:
                variable = heap.pop_unassigned(value)
            if variable is None:
                if len(trail) > stats.max_trail:
                    stats.max_trail = len(trail)
                values = value[2::2]
                backtrack(0)
                return values
            stats.decisions += 1
            if len(trail) > stats.max_trail:
                stats.max_trail = len(trail)
            self._trail_limits.append(len(trail))
            self._enqueue((variable << 1) | self._phase[variable])

    def _next_restart_limit(self) -> int:
        """Conflicts allowed before the next restart, per the active policy."""
        config = self.config
        index = self._restarts_scheduled
        self._restarts_scheduled += 1
        if config.restart_policy == "luby":
            return config.restart_base * luby(index)
        return int(config.restart_base * config.restart_growth ** index)

    # ------------------------------------------------------------------
    # Internals: assignment and propagation
    # ------------------------------------------------------------------
    def _enqueue(self, code: int, reason: int = -1) -> bool:
        """Assign the literal ``code``; returns False iff it is already false."""
        value = self._value
        state = value[code]
        if state != -1:
            return state == 1
        value[code] = 1
        value[code ^ 1] = 0
        variable = code >> 1
        self._level[variable] = len(self._trail_limits)
        self._reason[variable] = reason
        self._phase[variable] = code & 1
        self._trail.append(code)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause's offset, or -1.

        Binary clauses propagate through dedicated implication lists (no
        watch maintenance at all); longer clauses use blocking literals so
        the common case — the visited clause is already satisfied elsewhere
        — is a single table lookup with no clause access, and an in-place
        two-pointer sweep compacts each watch list.  Unit enqueues are
        inlined: the watched literal is known to be unassigned at that
        point.  ``_kernel.solve`` runs its C mirror.
        """
        trail = self._trail
        value = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        arena = self._arena
        watches = self._watches
        watch_items, watch_start, watch_size = watches.items, watches.start, watches.size
        watch_capacity = watches.capacity
        binary = self._binary
        binary_items, binary_start, binary_size = binary.items, binary.start, binary.size
        # Propagation never opens a decision level, so this is loop-invariant.
        current_level = len(self._trail_limits)
        head = self._queue_head
        start = head
        try:
            while head < len(trail):
                falsified = trail[head] ^ 1
                head += 1
                begin = binary_start[falsified]
                index = begin - 1  # the clause of the entry being visited
                for implied in binary_items[begin:begin + binary_size[falsified]:2]:
                    index += 2
                    state = value[implied]
                    if state == 1:
                        continue
                    if state == 0:
                        return binary_items[index]
                    value[implied] = 1
                    value[implied ^ 1] = 0
                    variable = implied >> 1
                    level[variable] = current_level
                    reason[variable] = binary_items[index]
                    phase[variable] = implied & 1
                    trail.append(implied)
                # Compacted in place to ``[begin, keep)``: the entry at
                # ``keep + moved`` is the one being visited.  A moved watch
                # goes to a non-falsified literal's list, so this list never
                # grows mid-sweep.
                size = watch_size[falsified]
                if not size:
                    continue
                begin = keep = watch_start[falsified]
                moved = 0
                for index in range(begin + 1, begin + size, 2):
                    # Blocking literal already true: clause satisfied, keep as-is.
                    blocker = watch_items[index]
                    if value[blocker] == 1:
                        if moved:
                            watch_items[keep] = watch_items[index - 1]
                            watch_items[keep + 1] = blocker
                        keep += 2
                        continue
                    clause = watch_items[index - 1]
                    # Ensure the falsified literal sits at position 1.
                    first = arena[clause]
                    if first == falsified:
                        first = arena[clause + 1]
                        arena[clause] = first
                        arena[clause + 1] = falsified
                    state = value[first]
                    if state == 1:
                        watch_items[keep] = clause
                        watch_items[keep + 1] = first
                        keep += 2
                        continue
                    # Watch the first non-false literal past the two watches.
                    # No clause repeats a literal, so ``index`` finds its slot.
                    for alternative in arena[clause + 2:clause + arena[clause - 2]]:
                        if value[alternative] != 0:
                            arena[arena.index(alternative, clause + 2)] = falsified
                            arena[clause + 1] = alternative
                            # PairLists.append, inlined unless the list must move.
                            end = watch_size[alternative]
                            if end == watch_capacity[alternative]:
                                watches.append(alternative, clause, first)
                            else:
                                watch_size[alternative] = end + 2
                                end += watch_start[alternative]
                                watch_items[end] = clause
                                watch_items[end + 1] = first
                            moved += 2
                            break
                    else:
                        watch_items[keep] = clause
                        watch_items[keep + 1] = first
                        keep += 2
                        if state == 0:
                            # Conflict: slide the unvisited tail down and stop.
                            end = begin + size
                            watch_items[keep:end - moved] = watch_items[keep + moved:end]
                            watch_size[falsified] = size - moved
                            return clause
                        # Unit: ``first`` is unassigned — inline the enqueue.
                        value[first] = 1
                        value[first ^ 1] = 0
                        variable = first >> 1
                        level[variable] = current_level
                        reason[variable] = clause
                        phase[variable] = first & 1
                        trail.append(first)
                watch_size[falsified] = size - moved
        finally:
            self._queue_head = head
            self._stats.propagations += head - start
        return -1

    def _watch_clause(self, clause: int) -> None:
        """Watch the first two literals (binary clauses: implication lists)."""
        arena = self._arena
        first, second = arena[clause], arena[clause + 1]
        if arena[clause - 2] == 2:
            self._binary.append(first, second, clause)
            self._binary.append(second, first, clause)
        else:
            self._watches.append(first, clause, second)
            self._watches.append(second, clause, first)

    def _unwatch(self, code: int, clause: int) -> None:
        """Swap-remove ``clause`` from the watch list of ``code`` (C mirror:
        ``_kernel.unwatch``)."""
        watches = self._watches
        items = watches.items
        begin = watches.start[code]
        last = begin + watches.size[code] - 2
        for index in range(begin, last + 2, 2):
            if items[index] == clause:
                items[index] = items[last]
                items[index + 1] = items[last + 1]
                watches.size[code] -= 2
                return
        raise RuntimeError("internal solver error: clause missing from watch list")

    # ------------------------------------------------------------------
    # Internals: conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple[list[int], int, int]:
        """First-UIP analysis: returns (learned clause, backjump level, LBD).

        The asserting literal comes first, then the first literal of the
        backjump level.  EVSIDS bumps are inlined (heap sift-up included).
        ``_kernel.solve`` runs its C mirror.
        """
        current_level = len(self._trail_limits)
        arena = self._arena
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        heap = self._heap
        order, pos, act = heap._heap, heap._pos, heap._act
        var_inc = self._var_inc
        learned: list[int] = []
        counter = 0
        clause = conflict
        trail_index = len(trail) - 1

        while True:
            assert clause >= 0
            learned_index = arena[clause - 1]
            if learned_index >= 0:
                activities = self._activity
                activities[learned_index] += self._clause_inc
                if activities[learned_index] > _CLAUSE_ACTIVITY_LIMIT:
                    for index in range(len(activities)):
                        activities[index] *= _CLAUSE_ACTIVITY_RESCALE
                    self._clause_inc *= _CLAUSE_ACTIVITY_RESCALE
            for code in arena[clause:clause + arena[clause - 2]]:
                variable = code >> 1
                if seen[variable]:
                    continue
                variable_level = level[variable]
                if variable_level == 0:
                    continue
                seen[variable] = 1
                activity = act[variable] + var_inc
                act[variable] = activity
                position = pos[variable]
                while position > 0:
                    parent_position = (position - 1) >> 1
                    parent = order[parent_position]
                    if act[parent] >= activity:
                        break
                    order[position] = parent
                    pos[parent] = position
                    position = parent_position
                if position >= 0:
                    order[position] = variable
                    pos[variable] = position
                if activity > _ACTIVITY_LIMIT:
                    heap.rescale(_ACTIVITY_RESCALE)
                    var_inc *= _ACTIVITY_RESCALE
                if variable_level == current_level:
                    counter += 1
                else:
                    learned.append(code)
            # Find the next marked literal on the trail to resolve.  Variables
            # stay marked in ``seen`` once visited so a later reason clause
            # cannot re-introduce (and re-count) an already-resolved variable.
            while True:
                code = trail[trail_index]
                trail_index -= 1
                variable = code >> 1
                if seen[variable] and level[variable] == current_level:
                    break
            counter -= 1
            if counter == 0:
                break
            clause = reason[variable]

        self._var_inc = var_inc
        # Every marked variable is in the learned clause or on the trail
        # from the first UIP up.
        for marked in learned:
            seen[marked >> 1] = 0
        for marked in trail[trail_index + 1:]:
            seen[marked >> 1] = 0
        learned.insert(0, code ^ 1)
        if len(learned) == 1:
            return learned, 0, 1
        levels = [level[code >> 1] for code in learned]
        backjump = max(levels[1:])
        deepest = levels.index(backjump, 1)
        learned[1], learned[deepest] = learned[deepest], learned[1]
        return learned, backjump, len(set(levels))

    def _handle_learned(self, learned: list[int], lbd: int) -> bool:
        """Install the learned clause and assert its first literal.

        Called once the solver has backjumped.  The second watch is a literal
        of the backjump level, so un-assigning it later re-triggers a visit
        of this clause.
        """
        self._stats.learned_clauses += 1
        if len(learned) == 1:
            return self._enqueue(learned[0])
        offset = self._store(learned, len(self._learned))
        self._learned.append(offset)
        self._lbd.append(lbd)
        self._activity.append(self._clause_inc)
        self._watch_clause(offset)
        return self._enqueue(learned[0], offset)

    def _reduce_db(self) -> int:
        """Forget the worst learned clauses; returns how many were deleted.

        Called at restart points (so the trail is short), this removes
        ``reduce_fraction`` of the *forgettable* learned clauses, worst
        first — highest LBD, then lowest activity.  Three classes are
        pinned and never deleted:

        - **reason clauses** of any currently-assigned variable (deleting
          one would orphan the implication graph),
        - **glue clauses** (LBD <= ``glue_lbd``), which encode tight
          cross-level dependencies and are cheap to keep,
        - **binary clauses**, whose watch cost is negligible.
        """
        locked = set(self._reason)
        config = self.config
        arena, learned, lbd, activity = self._arena, self._learned, self._lbd, self._activity
        forgettable = [
            index
            for index, offset in enumerate(learned)
            if offset not in locked and lbd[index] > config.glue_lbd and arena[offset - 2] > 2
        ]
        victims = int(len(forgettable) * config.reduce_fraction)
        if victims == 0:
            self._reduce_limit += config.reduce_growth
            return 0
        forgettable.sort(key=lambda index: (-lbd[index], activity[index]))
        doomed = set(forgettable[:victims])
        kernel = native.kernel()
        unwatch = CdclSolver._unwatch if kernel is None else kernel.unwatch
        for index in forgettable[:victims]:
            offset = learned[index]
            unwatch(self, arena[offset], offset)
            unwatch(self, arena[offset + 1], offset)
        survivors = [index for index in range(len(learned)) if index not in doomed]
        for table in (learned, lbd, activity):
            kept = [table[index] for index in survivors]
            del table[:]
            table.extend(kept)
        for index, offset in enumerate(learned):
            arena[offset - 1] = index
        self._compact()
        self._stats.deleted_clauses += victims
        self._reduce_limit += config.reduce_growth
        return victims

    def _compact(self) -> None:
        """Rebuild the arena and both pools from the live clauses, keeping every order;
        each list's capacity shrinks to its size.  Slices keep a table's type."""
        arena = self._arena
        # ``moved[old offset]`` is the new offset.  The arena's last slot holds
        # a literal, never an offset, so it maps the reason -1 to itself.
        moved = arena[:]
        moved[-1] = -1
        kept, run, end = arena[:0], 0, 0  # arena[run:end] is live and not yet kept
        for offset in sorted([*self._problem, *self._learned]):
            if offset - 2 != end:
                kept.extend(arena[run:end])
                run = offset - 2
            moved[offset] = len(kept) + offset - run
            end = offset + arena[offset - 2]
        kept.extend(arena[run:end])
        self._arena = kept

        def remapped(table):
            offsets = table[:0]
            offsets.extend(map(moved.__getitem__, table))
            return offsets

        for table in (self._problem, self._learned, self._reason):
            table[:] = remapped(table)
        for lists, column in ((self._watches, 0), (self._binary, 1)):
            items, start = lists.items[:0], lists.start[:0]
            for begin, size in zip(lists.start, lists.size):
                start.append(len(items))
                items.extend(lists.items[begin:begin + size])
            items[column::2] = remapped(items[column::2])
            lists.items, lists.start, lists.capacity = items, start, lists.size[:]

    def _verify_model(self, values) -> None:
        """Sanity check: every problem clause must be satisfied by the model (``value[2::2]``)."""
        for clause in self._problem:
            if not any(values[(code >> 1) - 1] == 1 - (code & 1) for code in self._clause(clause)):
                raise RuntimeError(
                    "internal solver error: model does not satisfy a clause"
                )

    # ------------------------------------------------------------------
    # Internals: decisions, backtracking
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        """Undo every assignment above ``level`` (``_kernel.solve`` runs its C mirror)."""
        if len(self._trail_limits) <= level:
            return
        limit = self._trail_limits[level]
        value = self._value
        reason = self._reason
        tail = self._trail[limit:]
        for code in tail:
            value[code] = -1
            value[code ^ 1] = -1
            reason[code >> 1] = -1
        self._heap.push_many(tail)
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._queue_head = min(self._queue_head, len(self._trail))

    def _result(self, satisfiable: bool) -> SolverResult:
        return SolverResult(satisfiable, stats=self.stats())


def solve_cnf(
    cnf: CNF,
    assumptions: list[Literal] | None = None,
    config: SolverConfig | None = None,
) -> SolverResult:
    """One-shot convenience wrapper: build a solver, load ``cnf``, solve."""
    return CdclSolver(cnf, config=config).solve(assumptions)


__all__ = [
    "RESTART_POLICIES",
    "CdclSolver",
    "PairLists",
    "SolverConfig",
    "SolverResult",
    "SolverStats",
    "luby",
    "solve_cnf",
]
