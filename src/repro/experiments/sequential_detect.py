"""SAT-guided sequential detection: temporal justification vs random sequences.

The ``sequential`` harness established the problem: random input sequences
from reset achieve near-zero coverage of multi-cycle (count-k) triggers on
raw sequential netlists.  This harness evaluates the answer — the temporal
SAT subsystem.  For each grid cell it

1. loads the raw sequential benchmark and its *state-dependent* rare nets
   (shared with the ``sequential`` harness through the artifact cache),
2. samples the same multi-cycle Trojan population (``mode``/``count``
   temporal rules over the rare nets),
3. generates a **SAT-guided sequence set**
   (:func:`repro.core.sequence_gen.generate_sequences`): rare nets are
   pre-filtered by temporal activatability on the unrolled transition
   relation, grouped into greedy jointly-justifiable sets, and each set is
   turned into one replay-verified witness sequence,
4. measures trigger coverage of the SAT-guided set **and** of a random
   sequence baseline at the same sequence budget, with the batched
   multi-cycle evaluator.

The SAT-guided column should strictly dominate the random column wherever
any sampled trigger is temporally reachable at all; the "viable" column
(rare nets surviving the temporal pre-filter) quantifies how much of the
full-scan rare-net space is actually exercisable from reset.

Generated sequence sets are cached per (netlist, rare nets, rule, budget)
in the artifact cache (kind ``sat_sequences``), so the harness is shard-safe
under ``--jobs N`` and a second run is served entirely from disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.core.patterns import SequenceSet
from repro.core.sequence_gen import generate_sequences
from repro.experiments.common import ExperimentProfile
from repro.experiments.reporting import format_table
from repro.experiments.sequential import _rare_nets, _trojans
from repro.experiments.sequential import cells as _sequential_cells
from repro.runner.cache import get_default_cache, netlist_fingerprint
from repro.sat.solver import SolverConfig
from repro.simulation.rare_nets import RareNet
from repro.trojan.evaluation import sequence_trigger_coverage

#: Option keys this harness accepts (validated by the runner).  ``solver``
#: takes a :meth:`repro.sat.solver.SolverConfig.from_mapping` dict, e.g.
#: ``--set 'solver={"restart_policy": "geometric", "var_decay": 0.9}'``.
OPTIONS = ("designs", "cycles", "modes", "counts", "solver")


@dataclass
class SequentialDetectCellResult:
    """SAT-guided vs random coverage of one (design, cycles, rule) grid cell."""

    design: str
    cycles: int
    mode: str
    count: int
    num_rare_nets: int
    num_viable: int
    num_trojans: int
    budget: int
    num_sat_sequences: int
    sat_coverage_percent: float
    random_coverage_percent: float
    solver_stats: dict | None = None


def cells(profile: ExperimentProfile, options: dict):
    """Same grid shape as the ``sequential`` harness (designs × cycles × rule).

    A ``solver`` option (SolverConfig mapping) is validated once here and
    attached to every cell, so grid-cell workers rebuild the exact same
    configuration from the cell params alone.
    """
    grid = _sequential_cells(profile, options)
    solver = options.get("solver")
    if solver is not None:
        if not isinstance(solver, dict):
            raise ValueError(
                f"solver option must be a mapping of SolverConfig fields, got {solver!r}"
            )
        SolverConfig.from_mapping(solver)  # validate keys and ranges up front
        for cell in grid:
            cell.params["solver"] = dict(solver)
    return grid


def _guided_sequences(
    netlist: Netlist,
    rare_nets: list[RareNet],
    cycles: int,
    mode: str,
    count: int,
    budget: int,
    profile: ExperimentProfile,
    solver_config: SolverConfig | None = None,
) -> SequenceSet:
    """SAT-guided sequence set, shared through the artifact cache.

    The solver configuration is part of the cache key: a tuned solver may
    produce different (equally valid) witnesses, so sets generated under one
    configuration are never served for another.
    """

    def _generate() -> SequenceSet:
        return generate_sequences(
            netlist,
            rare_nets,
            cycles,
            mode=mode,
            count=count,
            num_sequences=budget,
            seed=profile.seed + 3,
            solver_config=solver_config,
        )

    cache = get_default_cache()
    if cache is None:
        return _generate()
    return cache.fetch(
        "sat_sequences",
        _generate,
        netlist=netlist_fingerprint(netlist),
        rare_nets=[(rare.net, rare.rare_value) for rare in rare_nets],
        cycles=cycles,
        mode=mode,
        count=count,
        budget=budget,
        seed=profile.seed + 3,
        solver=sorted((solver_config or SolverConfig()).as_dict().items()),
    )


def run_cell(params: dict, profile: ExperimentProfile) -> SequentialDetectCellResult | None:
    """Evaluate one (design, cycles, mode, count) cell (None if no Trojans fit)."""
    design = params["design"]
    cycles = params["cycles"]
    mode = params["mode"]
    count = params["count"]
    solver_config = (
        SolverConfig.from_mapping(params["solver"]) if "solver" in params else None
    )
    netlist = load_benchmark(design, combinational_view=False)
    rare_nets = _rare_nets(netlist, cycles, profile)
    trojans = _trojans(netlist, rare_nets, mode, count, profile)
    if not trojans:
        return None
    budget = profile.k_patterns
    guided = _guided_sequences(
        netlist, rare_nets, cycles, mode, count, budget, profile,
        solver_config=solver_config,
    )
    random_sequences = SequenceSet.random(
        netlist,
        num_sequences=budget,
        cycles=cycles,
        seed=profile.seed + 2,
        technique="Random sequences",
    )
    sat_coverage = sequence_trigger_coverage(netlist, trojans, guided)
    random_coverage = sequence_trigger_coverage(netlist, trojans, random_sequences)
    return SequentialDetectCellResult(
        design=design,
        cycles=cycles,
        mode=mode,
        count=count,
        num_rare_nets=len(rare_nets),
        num_viable=int(guided.metadata.get("num_activatable", 0)),
        num_trojans=len(trojans),
        budget=budget,
        num_sat_sequences=len(guided),
        sat_coverage_percent=sat_coverage.coverage_percent,
        random_coverage_percent=random_coverage.coverage_percent,
        solver_stats=guided.metadata.get("solver_stats"),
    )


def test_set(params: dict, profile: ExperimentProfile) -> SequenceSet:
    """The SAT-guided sequence set a cell produced (detection-service hook).

    Re-derives the cell's guided set through the same artifact-cache key
    ``run_cell`` used, so right after a cell has run this is a cache load,
    not a recomputation.  The service serialises the returned set into the
    job record — the "submit a netlist, get its test set back" payload.
    """
    design = params["design"]
    cycles = params["cycles"]
    solver_config = (
        SolverConfig.from_mapping(params["solver"]) if "solver" in params else None
    )
    netlist = load_benchmark(design, combinational_view=False)
    rare_nets = _rare_nets(netlist, cycles, profile)
    return _guided_sequences(
        netlist, rare_nets, cycles, params["mode"], params["count"],
        profile.k_patterns, profile, solver_config=solver_config,
    )


def collect(
    results: list[SequentialDetectCellResult | None],
) -> list[SequentialDetectCellResult]:
    """Drop skipped cells, keeping grid order."""
    return [result for result in results if result is not None]


def report(results: list[SequentialDetectCellResult]) -> str:
    """Render the SAT-guided vs random coverage table."""
    headers = [
        "Design", "Cycles", "Mode", "k", "#rare", "#viable", "#HT",
        "Budget", "SAT seqs", "SAT cov (%)", "Random cov (%)",
    ]
    rows = [
        [
            result.design, result.cycles, result.mode, result.count,
            result.num_rare_nets, result.num_viable, result.num_trojans,
            result.budget, result.num_sat_sequences,
            round(result.sat_coverage_percent, 1),
            round(result.random_coverage_percent, 1),
        ]
        for result in results
    ]
    table = format_table(headers, rows)
    note = (
        "SAT-guided sequences justify greedy sets of state-dependent rare nets on\n"
        "the unrolled transition relation (consecutive: shift-chain clauses;\n"
        "cumulative: cardinality ladder) and replay every witness through the\n"
        "compiled multi-cycle engine.  '#viable' counts rare nets whose rare value\n"
        "is provably reachable under the temporal rule; the random column is the\n"
        "same budget of uniform sequences from reset (the 'sequential' harness\n"
        "baseline)."
    )
    aggregate = _aggregate_solver_stats(results)
    if aggregate is not None:
        summary = ", ".join(f"{key}={value}" for key, value in aggregate.items())
        note += f"\n\nAggregate solver stats (fresh cells only): {summary}"
    return f"{table}\n\n{note}"


def _aggregate_solver_stats(
    results: list[SequentialDetectCellResult],
) -> dict | None:
    """Merge per-cell solver stats (None when every cell was cache-served)."""
    from repro.sat.solver import SolverStats

    merged: SolverStats | None = None
    for result in results:
        if not result.solver_stats:
            continue
        snapshot = SolverStats(**result.solver_stats)
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged.as_dict() if merged is not None else None
