"""A CDCL (conflict-driven clause learning) SAT solver.

This is the library's replacement for the PicoSAT/pycosat solver the paper
uses.  The implementation follows the MiniSat architecture with the classic
performance stack on top:

- two-watched-literal unit propagation with **blocking literals** and flat
  per-literal watch arrays,
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
- a **native inner loop**: propagation, backtracking, the decision pop,
  conflict analysis, clause ingestion and watch removal run in C
  (``_kernel.c``, built and loaded by :mod:`repro.sat.native`) where a
  compiler is available.  The C functions mirror
  :meth:`CdclSolver._propagate`, :meth:`CdclSolver._backtrack`,
  :meth:`ActivityHeap.pop_unassigned`, :meth:`CdclSolver._analyze`,
  :meth:`CdclSolver._add_clause` and :meth:`CdclSolver._unwatch` step for
  step, on the same lists, so the search is the same on both paths; the
  Python methods are the reference and the fallback.

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
from functools import partial
from time import perf_counter

from repro.obs.profile import hot_path
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

    A SAT answer of :class:`CdclSolver` keeps its variables' values (variable
    ``v`` at index ``v - 1``, 1 for true) and builds :attr:`model` only when
    it is first read; :meth:`value` reads the values directly.
    """

    __slots__ = ("satisfiable", "stats", "_model", "_values")

    def __init__(
        self, satisfiable: bool, model: dict[int, bool] | None = None,
        stats: SolverStats | None = None, *, values: list[int] | None = None,
    ) -> None:
        self.satisfiable, self._model, self.stats, self._values = satisfiable, model, stats, values

    @property
    def model(self) -> dict[int, bool] | None:
        """``{variable: value}``, or None for an UNSAT answer."""
        if self._model is None and self._values is not None:
            self._model = dict(enumerate(map((1).__eq__, self._values), 1))
        return self._model

    def value(self, variable: int) -> bool:
        """Value of ``variable`` in the model (SAT results only)."""
        values = self._values
        if values is not None:
            return 0 < variable <= len(values) and values[variable - 1] == 1
        if self._model is None:
            raise ValueError("no model available: formula was unsatisfiable")
        return self._model.get(variable, False)


class Clause(list):
    """A problem clause: a literal list whose learned-clause fields are class defaults.

    Subclassing ``list`` keeps literal access as fast as the raw lists the
    propagation loop indexes (``clause[0]``/``clause[1]`` are the watched
    literals), and building one runs no Python code.
    """

    __slots__ = ()
    learned, lbd, activity = False, 0, 0.0


class LearnedClause(Clause):
    """A learned clause, with the LBD and activity that clause-database reduction ranks."""

    __slots__ = ("lbd", "activity")
    learned = True


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
    and one value table indexed by code holds 1, 0 or -1 (unassigned).
    """

    def __init__(
        self,
        cnf: CNF | None = None,
        *,
        config: SolverConfig | None = None,
    ) -> None:
        self.config = config if config is not None else SolverConfig()

        self._num_vars = 0
        self._learned: list[Clause] = []
        self._problem: list[Clause] = []
        # Watch lists, indexed by code, hold ``(clause, blocking code)`` pairs.
        # Binary clauses live in their own implication lists (``falsified code
        # -> (implied code, clause)``): their watches never move, so propagation
        # skips the replacement search — most Tseitin clauses are binary.
        self._watches: list[list[tuple[Clause, int]]] = [[], []]
        self._binary: list[list[tuple[int, Clause]]] = [[], []]
        self._value: list[int] = [-1, -1]  # codes 0 and 1 (variable 0) unused
        # Per-variable tables, index 0 unused.  ``_phase`` is the sign bit of
        # the preferred decision code.
        self._level: list[int] = [0]
        self._reason: list[Clause | None] = [None]
        self._phase: list[int] = [1]
        self._seen = bytearray(1)
        self._heap = ActivityHeap()
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
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
        """Add clauses in order, each as by :meth:`add_clause`."""
        kernel = native.kernel()
        add = self._add_clause if kernel is None else partial(kernel.add_clause, self)
        for literals in clauses:
            add(literals)

    def _add_clause(self, literals: list[Literal]) -> None:
        """:meth:`add_clause` in Python (C mirror: ``_kernel.add_clause``)."""
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
            self._enqueue(clause[0], reason=None)  # unassigned: always succeeds
            if self._propagate() is not None:
                self._unsat = True
            return
        stored = Clause(clause)
        self._problem.append(stored)
        self._watch_clause(stored)

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

        Every variable is checked before any phase changes, so an unknown
        one raises ValueError and leaves all phases as they were.
        """
        for variable in phases:
            if not 1 <= variable <= self._num_vars:
                raise ValueError(f"unknown variable {variable}")
        for variable, value in phases.items():
            self._phase[variable] = 0 if value else 1

    def stats(self) -> SolverStats:
        """Snapshot of the cumulative solver counters (an independent copy)."""
        return SolverStats(**vars(self._stats))

    def _ensure_vars(self, num_vars: int) -> None:
        extra = num_vars - self._num_vars
        if extra <= 0:
            return
        self._value.extend([-1] * (2 * extra))
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._phase.extend([1] * extra)
        self._seen.extend(bytes(extra))
        self._watches.extend([] for _ in range(2 * extra))
        self._binary.extend([] for _ in range(2 * extra))
        self._heap.grow(num_vars)
        self._num_vars = num_vars  # last, so a failed growth leaves the count as it was

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[Literal] | None = None) -> SolverResult:
        """Solve the formula under optional assumption literals.

        An assumption of 0 or of an unknown variable raises ValueError, and
        one that is not an integer (``operator.index``) TypeError, before any
        solver state changes.
        """
        codes = []
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
        # The C kernel where it builds, else the Python methods it mirrors.
        kernel = native.kernel()
        if kernel is None:
            propagate, backtrack = CdclSolver._propagate, CdclSolver._backtrack
            pop_unassigned, analyze = ActivityHeap.pop_unassigned, CdclSolver._analyze
        else:
            propagate, backtrack = kernel.propagate, kernel.backtrack
            pop_unassigned, analyze = kernel.pop_unassigned, kernel.analyze
        backtrack(self, 0)
        if propagate(self) is not None:
            self._unsat = True
            return self._result(False)

        config = self.config
        stats = self._stats
        value = self._value
        trail = self._trail
        num_vars = self._num_vars
        heap = self._heap
        # Fetch-once profiling probes: None while telemetry is off, so the
        # loop below pays a single `is None` branch per iteration.
        propagate_probe = hot_path("sat.propagate", every=64)
        decide_probe = hot_path("sat.decide", every=16)
        self._restarts_scheduled = 0  # each query restarts the schedule
        restart_limit = self._next_restart_limit()
        conflicts_since_restart = 0
        while True:
            if propagate_probe is not None and propagate_probe.sample():
                probe_start = perf_counter()
                conflict = propagate(self)
                propagate_probe.observe(perf_counter() - probe_start)
            else:
                conflict = propagate(self)
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_limits:
                    self._unsat = True
                    return self._result(False)
                learned, backjump, lbd = analyze(self, conflict)
                backtrack(self, backjump)
                if not self._handle_learned(learned, lbd):
                    backtrack(self, 0)
                    return self._result(False)
                self._var_inc *= 1.0 / config.var_decay
                self._clause_inc *= 1.0 / config.clause_decay
                if conflicts_since_restart >= restart_limit:
                    stats.restarts += 1
                    conflicts_since_restart = 0
                    restart_limit = self._next_restart_limit()
                    backtrack(self, 0)
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
                backtrack(self, 0)
                return self._result(False)
            if state == -1:
                self._trail_limits.append(len(trail))
                self._enqueue(code, reason=None)
                continue

            if len(trail) == num_vars:
                # Every variable is assigned, so popping would only drain the
                # heap entry by entry; clearing it leaves the same state.
                heap.clear()
                variable = None
            elif decide_probe is not None and decide_probe.sample():
                probe_start = perf_counter()
                variable = pop_unassigned(heap, value)
                decide_probe.observe(perf_counter() - probe_start)
            else:
                variable = pop_unassigned(heap, value)
            if variable is None:
                if len(trail) > stats.max_trail:
                    stats.max_trail = len(trail)
                values = value[2::2]
                if config.verify_models:
                    self._verify_model(values)
                result = SolverResult(True, stats=self.stats(), values=values)
                backtrack(self, 0)
                return result
            stats.decisions += 1
            if len(trail) > stats.max_trail:
                stats.max_trail = len(trail)
            self._trail_limits.append(len(trail))
            self._enqueue((variable << 1) | self._phase[variable], reason=None)

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
    def _enqueue(self, code: int, reason: Clause | None) -> bool:
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

    def _propagate(self) -> Clause | None:
        """Unit propagation; returns a conflicting clause or None.

        Binary clauses propagate through dedicated implication lists (no
        watch maintenance at all); longer clauses use blocking literals so
        the common case — the visited clause is already satisfied elsewhere
        — is a single list lookup with no clause access, and an in-place
        two-pointer sweep compacts each watch list without allocating a
        replacement.  Unit enqueues are inlined: the watched literal is
        known to be unassigned at that point.  ``_kernel.propagate`` is the
        C mirror of this method.
        """
        trail = self._trail
        value = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        binary = self._binary
        # Propagation never opens a decision level, so this is loop-invariant.
        current_level = len(self._trail_limits)
        head = self._queue_head
        start = head
        try:
            while head < len(trail):
                falsified = trail[head] ^ 1
                head += 1
                for implied, clause in binary[falsified]:
                    state = value[implied]
                    if state == 1:
                        continue
                    if state == 0:
                        return clause
                    value[implied] = 1
                    value[implied ^ 1] = 0
                    variable = implied >> 1
                    level[variable] = current_level
                    reason[variable] = clause
                    phase[variable] = implied & 1
                    trail.append(implied)
                # Compacted in place to ``watch_list[:keep]``.  A moved watch goes to
                # a non-falsified literal's list, so this list never grows mid-sweep.
                watch_list = watches[falsified]
                if not watch_list:
                    continue
                keep = 0
                moved = 0
                for entry in watch_list:
                    # Blocking literal already true: clause satisfied, keep as-is.
                    if value[entry[1]] == 1:
                        watch_list[keep] = entry
                        keep += 1
                        continue
                    clause = entry[0]
                    # Ensure the falsified literal sits at position 1.
                    first = clause[0]
                    if first == falsified:
                        first = clause[1]
                        clause[0] = first
                        clause[1] = falsified
                    state = value[first]
                    if state == 1:
                        watch_list[keep] = (clause, first)
                        keep += 1
                        continue
                    # Watch the first non-false literal past the two watches.
                    # No clause repeats a literal, so ``index`` finds its slot.
                    for alternative in clause[2:]:
                        if value[alternative] != 0:
                            clause[clause.index(alternative, 2)] = falsified
                            clause[1] = alternative
                            watches[alternative].append((clause, first))
                            break
                    else:
                        watch_list[keep] = (clause, first)
                        keep += 1
                        if state == 0:
                            # Conflict: slide the unvisited tail down and stop.
                            watch_list[keep:] = watch_list[keep + moved:]
                            return clause
                        # Unit: ``first`` is unassigned — inline the enqueue.
                        value[first] = 1
                        value[first ^ 1] = 0
                        variable = first >> 1
                        level[variable] = current_level
                        reason[variable] = clause
                        phase[variable] = first & 1
                        trail.append(first)
                        continue
                    moved += 1
                del watch_list[keep:]
        finally:
            self._queue_head = head
            self._stats.propagations += head - start
        return None

    def _watch_clause(self, clause: Clause) -> None:
        """Watch the first two literals (binary clauses: implication lists)."""
        first, second = clause[0], clause[1]
        if len(clause) == 2:
            self._binary[first].append((second, clause))
            self._binary[second].append((first, clause))
        else:
            self._watches[first].append((clause, second))
            self._watches[second].append((clause, first))

    def _unwatch(self, code: int, clause: Clause) -> None:
        """Swap-remove ``clause`` from the watch list of ``code`` (C mirror:
        ``_kernel.unwatch``)."""
        watch_list = self._watches[code]
        for index, (watched, _) in enumerate(watch_list):
            if watched is clause:
                watch_list[index] = watch_list[-1]
                watch_list.pop()
                return
        raise RuntimeError("internal solver error: clause missing from watch list")

    # ------------------------------------------------------------------
    # Internals: conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: Clause) -> tuple[list[int], int, int]:
        """First-UIP analysis: returns (learned clause, backjump level, LBD).

        The asserting literal comes first, then the first literal of the
        backjump level.  EVSIDS bumps are inlined (heap sift-up included).
        ``_kernel.analyze`` is the C mirror of this method.
        """
        current_level = len(self._trail_limits)
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        heap = self._heap
        order, pos, act = heap._heap, heap._pos, heap._act
        var_inc = self._var_inc
        learned: list[int] = []
        counter = 0
        clause: Clause | None = conflict
        trail_index = len(trail) - 1

        while True:
            assert clause is not None
            if clause.learned:
                clause.activity += self._clause_inc
                if clause.activity > _CLAUSE_ACTIVITY_LIMIT:
                    for stored in self._learned:
                        stored.activity *= _CLAUSE_ACTIVITY_RESCALE
                    self._clause_inc *= _CLAUSE_ACTIVITY_RESCALE
            for code in clause:
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
            return self._enqueue(learned[0], reason=None)
        stored = LearnedClause(learned)
        stored.lbd = lbd
        stored.activity = self._clause_inc
        self._learned.append(stored)
        self._watch_clause(stored)
        return self._enqueue(stored[0], reason=stored)

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
        locked = {
            id(reason) for reason in self._reason if reason is not None and reason.learned
        }
        config = self.config
        forgettable = [
            clause
            for clause in self._learned
            if id(clause) not in locked
            and clause.lbd > config.glue_lbd
            and len(clause) > 2
        ]
        victims = int(len(forgettable) * config.reduce_fraction)
        if victims == 0:
            self._reduce_limit += config.reduce_growth
            return 0
        forgettable.sort(key=lambda clause: (-clause.lbd, clause.activity))
        doomed = {id(clause) for clause in forgettable[:victims]}
        kernel = native.kernel()
        unwatch = CdclSolver._unwatch if kernel is None else kernel.unwatch
        for clause in forgettable[:victims]:
            unwatch(self, clause[0], clause)
            unwatch(self, clause[1], clause)
        self._learned = [clause for clause in self._learned if id(clause) not in doomed]
        self._stats.deleted_clauses += victims
        self._reduce_limit += config.reduce_growth
        return victims

    def _verify_model(self, values: list[int]) -> None:
        """Sanity check: every problem clause must be satisfied by the model (``value[2::2]``)."""
        for clause in self._problem:
            if not any(values[(code >> 1) - 1] == 1 - (code & 1) for code in clause):
                raise RuntimeError(
                    "internal solver error: model does not satisfy a clause"
                )

    # ------------------------------------------------------------------
    # Internals: decisions, backtracking
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        """Undo every assignment above ``level`` (C mirror: ``_kernel.backtrack``)."""
        if len(self._trail_limits) <= level:
            return
        limit = self._trail_limits[level]
        value = self._value
        reason = self._reason
        tail = self._trail[limit:]
        for code in tail:
            value[code] = -1
            value[code ^ 1] = -1
            reason[code >> 1] = None
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
    "SolverConfig",
    "SolverResult",
    "SolverStats",
    "luby",
    "solve_cnf",
]
