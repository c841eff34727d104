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
- incremental solving under assumptions.

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

from dataclasses import dataclass, field, fields, replace
from time import perf_counter

from repro.obs.profile import hot_path
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


@dataclass
class SolverResult:
    """Outcome of a SAT query."""

    satisfiable: bool
    model: dict[int, bool] | None = None
    stats: SolverStats | None = None

    def value(self, variable: int) -> bool:
        """Value of ``variable`` in the model (SAT results only)."""
        if self.model is None:
            raise ValueError("no model available: formula was unsatisfiable")
        return self.model.get(variable, False)


class Clause(list):
    """A clause: a literal list with learned-clause metadata riding along.

    Subclassing ``list`` keeps literal access as fast as the raw lists the
    propagation loop indexes (``clause[0]``/``clause[1]`` are the watched
    literals) while giving the clause database a place for LBD and activity.
    """

    __slots__ = ("learned", "lbd", "activity")

    def __init__(self, literals, learned: bool = False, lbd: int = 0) -> None:
        list.__init__(self, literals)
        self.learned = learned
        self.lbd = lbd
        self.activity = 0.0


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


_UNASSIGNED = -1

#: Rescale threshold/factor for EVSIDS activities (MiniSat's constants).
_ACTIVITY_LIMIT = 1e100
_ACTIVITY_RESCALE = 1e-100
_CLAUSE_ACTIVITY_LIMIT = 1e20
_CLAUSE_ACTIVITY_RESCALE = 1e-20


class CdclSolver:
    """Incremental CDCL solver over a :class:`~repro.sat.cnf.CNF` formula."""

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
        # Watch lists are flat arrays indexed by literal code
        # ``(var << 1) | sign`` holding ``(clause, blocking literal)`` pairs.
        # Binary clauses live in their own per-literal implication lists
        # (``falsified literal -> (implied literal, clause)``): their watches
        # never move, so propagation skips the whole replacement-search dance
        # — on Tseitin circuit encodings most clauses are binary.
        self._watches: list[list[tuple[Clause, Literal]]] = [[], []]
        self._binary: list[list[tuple[Literal, Clause]]] = [[], []]
        self._assign: list[int] = [_UNASSIGNED]  # index 0 unused
        self._level: list[int] = [0]
        self._reason: list[Clause | None] = [None]
        self._phase: list[bool] = [False]
        self._heap = ActivityHeap()
        self._trail: list[Literal] = []
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
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: list[Literal]) -> None:
        """Add a clause; may only be called at decision level 0."""
        if self._trail_limits:
            raise RuntimeError("clauses can only be added at decision level 0")
        literals = sorted(set(literals), key=abs)
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
        assign = self._assign
        clause = []
        for literal in literals:
            value = assign[literal if literal > 0 else -literal]
            if value == _UNASSIGNED:
                clause.append(literal)
            elif (value == 1) == (literal > 0):
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
        if len(stored) == 2:
            self._watch_binary(stored)
        else:
            self._watch(stored[0], stored, stored[1])
            self._watch(stored[1], stored, stored[0])

    def reserve_vars(self, num_vars: int) -> None:
        """Grow the variable space to at least ``num_vars`` (idempotent).

        Callers that allocate variables externally — e.g. the time-frame
        expansion handing out per-frame blocks and temporal auxiliary
        variables — must reserve them before using them in assumptions or
        :meth:`set_phases`; :meth:`add_clause` grows the space implicitly.
        """
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
        """
        for variable, value in phases.items():
            if not 1 <= variable <= self._num_vars:
                raise ValueError(f"unknown variable {variable}")
            self._phase[variable] = bool(value)

    def stats(self) -> SolverStats:
        """Snapshot of the cumulative solver counters (an independent copy)."""
        return replace(self._stats)

    def _ensure_vars(self, num_vars: int) -> None:
        extra = num_vars - self._num_vars
        if extra <= 0:
            return
        self._num_vars = num_vars
        self._assign.extend([_UNASSIGNED] * extra)
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._phase.extend([False] * extra)
        self._watches.extend([] for _ in range(2 * extra))
        self._binary.extend([] for _ in range(2 * extra))
        self._heap.grow(num_vars)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[Literal] | None = None) -> SolverResult:
        """Solve the formula under optional assumption literals."""
        assumptions = list(assumptions or [])
        if self._unsat:
            return self._result(False)
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return self._result(False)

        config = self.config
        stats = self._stats
        assign = self._assign
        pop_unassigned = self._heap.pop_unassigned
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
                conflict = self._propagate()
                propagate_probe.observe(perf_counter() - probe_start)
            else:
                conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_limits:
                    self._unsat = True
                    return self._result(False)
                learned, backjump, lbd = self._analyze(conflict)
                if not self._handle_learned(learned, backjump, lbd):
                    self._backtrack(0)
                    return self._result(False)
                self._var_inc *= 1.0 / config.var_decay
                self._clause_inc *= 1.0 / config.clause_decay
                if conflicts_since_restart >= restart_limit:
                    stats.restarts += 1
                    conflicts_since_restart = 0
                    restart_limit = self._next_restart_limit()
                    self._backtrack(0)
                    if len(self._learned) >= self._reduce_limit:
                        self._reduce_db()
                continue

            # Re-establish assumptions after any backtracking.
            status = self._enqueue_assumptions(assumptions)
            if status == "conflict":
                self._backtrack(0)
                return self._result(False)
            if status == "enqueued":
                continue

            if decide_probe is not None and decide_probe.sample():
                probe_start = perf_counter()
                variable = pop_unassigned(assign)
                decide_probe.observe(perf_counter() - probe_start)
            else:
                variable = pop_unassigned(assign)
            if variable is None:
                if len(self._trail) > stats.max_trail:
                    stats.max_trail = len(self._trail)
                model = dict(zip(range(1, self._num_vars + 1), map((1).__eq__, assign[1:])))
                if config.verify_models:
                    self._verify_model(model)
                result = self._result(True, model)
                self._backtrack(0)
                return result
            stats.decisions += 1
            if len(self._trail) > stats.max_trail:
                stats.max_trail = len(self._trail)
            self._trail_limits.append(len(self._trail))
            literal = variable if self._phase[variable] else -variable
            self._enqueue(literal, reason=None)

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
    def _enqueue_assumptions(self, assumptions: list[Literal]) -> str:
        """Ensure all assumptions are decided; returns 'done'/'enqueued'/'conflict'."""
        assign = self._assign
        for literal in assumptions:
            value = assign[literal if literal > 0 else -literal]
            if value == _UNASSIGNED:
                self._trail_limits.append(len(self._trail))
                self._enqueue(literal, reason=None)
                return "enqueued"
            if (value == 1) != (literal > 0):
                return "conflict"
        return "done"

    def _enqueue(self, literal: Literal, reason: Clause | None) -> bool:
        """Assign ``literal``; returns False iff it is already false."""
        variable = literal if literal > 0 else -literal
        value = self._assign[variable]
        if value != _UNASSIGNED:
            return (value == 1) == (literal > 0)
        self._assign[variable] = 1 if literal > 0 else 0
        self._level[variable] = len(self._trail_limits)
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        return True

    def _propagate(self) -> Clause | None:
        """Unit propagation; returns a conflicting clause or None.

        Binary clauses propagate through dedicated implication lists (no
        watch maintenance at all); longer clauses use blocking literals so
        the common case — the visited clause is already satisfied elsewhere
        — is a single list lookup with no clause access, and an in-place
        two-pointer sweep compacts each watch list without allocating a
        replacement.  Unit enqueues are inlined: the watched literal is
        known to be unassigned at that point.
        """
        trail = self._trail
        assign = self._assign
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
                literal = trail[head]
                head += 1
                if literal > 0:
                    falsified = -literal
                    code = (literal << 1) | 1
                else:
                    falsified = -literal
                    code = falsified << 1
                for implied, clause in binary[code]:
                    if implied > 0:
                        value = assign[implied]
                        if value == 1:
                            continue
                        if value == 0:
                            return clause
                        assign[implied] = 1
                        level[implied] = current_level
                        reason[implied] = clause
                        phase[implied] = True
                    else:
                        variable = -implied
                        value = assign[variable]
                        if value == 0:
                            continue
                        if value == 1:
                            return clause
                        assign[variable] = 0
                        level[variable] = current_level
                        reason[variable] = clause
                        phase[variable] = False
                    trail.append(implied)
                # Compacted in place to ``watch_list[:keep]``.  A moved watch goes to
                # a non-falsified literal's list, so this list never grows mid-sweep.
                watch_list = watches[code]
                if not watch_list:
                    continue
                keep = 0
                moved = 0
                for entry in watch_list:
                    # Blocking literal already true: clause satisfied, keep as-is.
                    blocker = entry[1]
                    if blocker > 0:
                        if assign[blocker] == 1:
                            watch_list[keep] = entry
                            keep += 1
                            continue
                    elif assign[-blocker] == 0:
                        watch_list[keep] = entry
                        keep += 1
                        continue
                    clause = entry[0]
                    # Ensure the falsified literal sits at position 1.
                    if clause[0] == falsified:
                        clause[0] = clause[1]
                        clause[1] = falsified
                    first = clause[0]
                    if first > 0:
                        first_variable = first
                        first_value = assign[first]
                        first_true = first_value == 1
                    else:
                        first_variable = -first
                        first_value = assign[first_variable]
                        first_true = first_value == 0
                    if first_true:
                        watch_list[keep] = (clause, first)
                        keep += 1
                        continue
                    for alt_index in range(2, len(clause)):
                        alternative = clause[alt_index]
                        if alternative > 0:
                            if assign[alternative] != 0:
                                clause[1] = alternative
                                clause[alt_index] = falsified
                                watches[alternative << 1].append((clause, first))
                                break
                        elif assign[-alternative] != 1:
                            clause[1] = alternative
                            clause[alt_index] = falsified
                            watches[(-alternative << 1) | 1].append((clause, first))
                            break
                    else:
                        watch_list[keep] = (clause, first)
                        keep += 1
                        if first_value != _UNASSIGNED:
                            # Conflict: slide the unvisited tail down and stop.
                            watch_list[keep:] = watch_list[keep + moved:]
                            return clause
                        # Unit: ``first`` is unassigned — inline the enqueue.
                        assign[first_variable] = 1 if first > 0 else 0
                        level[first_variable] = current_level
                        reason[first_variable] = clause
                        phase[first_variable] = first > 0
                        trail.append(first)
                        continue
                    moved += 1
                del watch_list[keep:]
        finally:
            self._queue_head = head
            self._stats.propagations += head - start
        return None

    def _watch(self, literal: Literal, clause: Clause, blocker: Literal) -> None:
        if literal > 0:
            self._watches[literal << 1].append((clause, blocker))
        else:
            self._watches[(-literal << 1) | 1].append((clause, blocker))

    def _watch_binary(self, clause: Clause) -> None:
        """Register a two-literal clause in both implication lists."""
        first, second = clause
        binary = self._binary
        binary[first << 1 if first > 0 else (-first << 1) | 1].append((second, clause))
        binary[second << 1 if second > 0 else (-second << 1) | 1].append((first, clause))

    def _unwatch(self, literal: Literal, clause: Clause) -> None:
        watch_list = (
            self._watches[literal << 1]
            if literal > 0
            else self._watches[(-literal << 1) | 1]
        )
        for index, (watched, _) in enumerate(watch_list):
            if watched is clause:
                watch_list[index] = watch_list[-1]
                watch_list.pop()
                return
        raise RuntimeError("internal solver error: clause missing from watch list")

    # ------------------------------------------------------------------
    # Internals: conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: Clause) -> tuple[list[Literal], int, int]:
        """First-UIP analysis: returns (learned clause, backjump level, LBD)."""
        current_level = len(self._trail_limits)
        level = self._level
        trail = self._trail
        bump = self._heap.bump
        learned: list[Literal] = []
        seen: set[int] = set()
        counter = 0
        clause: Clause | None = conflict
        trail_index = len(trail) - 1
        asserting_literal: Literal | None = None

        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            for literal in clause:
                variable = literal if literal > 0 else -literal
                if variable in seen:
                    continue
                variable_level = level[variable]
                if variable_level == 0:
                    continue
                seen.add(variable)
                if bump(variable, self._var_inc) > _ACTIVITY_LIMIT:
                    self._heap.rescale(_ACTIVITY_RESCALE)
                    self._var_inc *= _ACTIVITY_RESCALE
                if variable_level == current_level:
                    counter += 1
                else:
                    learned.append(literal)
            # Find the next marked literal on the trail to resolve.  Variables
            # stay marked in ``seen`` once visited so a later reason clause
            # cannot re-introduce (and re-count) an already-resolved variable.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                variable = literal if literal > 0 else -literal
                if variable in seen and level[variable] == current_level:
                    break
            counter -= 1
            if counter == 0:
                asserting_literal = -literal
                break
            clause = self._reason[variable]

        learned.insert(0, asserting_literal)
        if len(learned) == 1:
            backjump = 0
        else:
            backjump = max(self._level[abs(lit)] for lit in learned[1:])
        lbd = len({self._level[abs(lit)] for lit in learned})
        return learned, backjump, lbd

    def _handle_learned(self, learned: list[Literal], backjump: int, lbd: int) -> bool:
        """Backjump, install the learned clause, and assert its first literal."""
        self._backtrack(backjump)
        self._stats.learned_clauses += 1
        if len(learned) == 1:
            return self._enqueue(learned[0], reason=None)
        # Keep the two-watched-literal invariant: the second watcher must be a
        # literal assigned at the backjump level so that un-assigning it later
        # re-triggers a visit of this clause.
        deepest = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[deepest] = learned[deepest], learned[1]
        stored = Clause(learned, learned=True, lbd=lbd)
        stored.activity = self._clause_inc
        self._learned.append(stored)
        if len(stored) == 2:
            self._watch_binary(stored)
        else:
            self._watch(stored[0], stored, stored[1])
            self._watch(stored[1], stored, stored[0])
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
        for clause in forgettable[:victims]:
            self._unwatch(clause[0], clause)
            self._unwatch(clause[1], clause)
        self._learned = [clause for clause in self._learned if id(clause) not in doomed]
        self._stats.deleted_clauses += victims
        self._reduce_limit += config.reduce_growth
        return victims

    def _verify_model(self, model: dict[int, bool]) -> None:
        """Sanity check: every problem clause must be satisfied by the model."""
        for clause in self._problem:
            if not any(model[abs(lit)] == (lit > 0) for lit in clause):
                raise RuntimeError(
                    "internal solver error: model does not satisfy a clause"
                )

    def _bump_clause(self, clause: Clause) -> None:
        clause.activity += self._clause_inc
        if clause.activity > _CLAUSE_ACTIVITY_LIMIT:
            for learned in self._learned:
                learned.activity *= _CLAUSE_ACTIVITY_RESCALE
            self._clause_inc *= _CLAUSE_ACTIVITY_RESCALE

    # ------------------------------------------------------------------
    # Internals: decisions, backtracking
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        if len(self._trail_limits) <= level:
            return
        limit = self._trail_limits[level]
        assign = self._assign
        reason = self._reason
        tail = self._trail[limit:]
        for literal in tail:
            variable = literal if literal > 0 else -literal
            assign[variable] = _UNASSIGNED
            reason[variable] = None
        self._heap.push_many(tail)
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._queue_head = min(self._queue_head, len(self._trail))

    def _result(self, satisfiable: bool, model: dict[int, bool] | None = None) -> SolverResult:
        return SolverResult(satisfiable=satisfiable, model=model, stats=self.stats())


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
