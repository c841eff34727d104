"""Table 2: trigger coverage and test length of all techniques on all designs.

For every benchmark the harness runs Random, the TestMAX-style ATPG proxy,
TARMAC, TGRL and DETERRENT, evaluates their pattern sets against the same
population of randomly inserted width-4 Trojans, and prints the measured
coverage / test-length rows next to the paper's reported numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.atpg import atpg_pattern_set
from repro.baselines.random_patterns import random_pattern_set
from repro.baselines.tarmac import TarmacConfig, tarmac_pattern_set
from repro.baselines.tgrl import TgrlConfig, tgrl_pattern_set
from repro.circuits.library import TABLE2_BENCHMARKS, benchmark_entry
from repro.core.agent import DeterrentAgent
from repro.core.patterns import PatternSet, generate_patterns
from repro.experiments.common import (
    QUICK,
    BenchmarkContext,
    ExperimentProfile,
    PAPER_TABLE2,
    as_tuple,
    prepare_benchmark,
)
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell
from repro.trojan.evaluation import trigger_coverage

#: Benchmarks used by default outside the full profile (one per class).
QUICK_DESIGNS = ("c2670_like", "c6288_like", "s13207_like", "mips16_like")

#: Canonical technique ordering (matches the paper's column order).
ALL_TECHNIQUES = ("Random", "ATPG", "TARMAC", "TGRL", "DETERRENT")

#: Techniques that must run in the same grid cell: the paper sizes the random
#: budget to TGRL's test length, so Random depends on TGRL's output.
TECHNIQUE_GROUPS = (("TGRL", "Random"), ("ATPG",), ("TARMAC",), ("DETERRENT",))


@dataclass
class TechniqueOutcome:
    """Coverage and test length of one technique on one design."""

    technique: str
    test_length: int
    coverage_percent: float


@dataclass
class Table2Row:
    """All techniques' outcomes on one design."""

    design: str
    paper_design: str
    num_rare_nets: int
    num_gates: int
    outcomes: dict[str, TechniqueOutcome] = field(default_factory=dict)


def _technique_outcomes(
    context: BenchmarkContext,
    profile: ExperimentProfile,
    techniques: tuple[str, ...],
) -> dict[str, TechniqueOutcome]:
    """Build and evaluate the pattern sets of the requested techniques."""
    pattern_sets: dict[str, PatternSet] = {}
    if "TGRL" in techniques:
        pattern_sets["TGRL"] = tgrl_pattern_set(
            context.netlist,
            context.compatibility.rare_nets,
            TgrlConfig(
                total_training_steps=profile.tgrl_training_steps,
                num_envs=profile.num_envs,
                seed=profile.seed,
            ),
        )
    if "Random" in techniques:
        # The paper sizes the random budget to TGRL's test length.
        budget = len(pattern_sets.get("TGRL", [])) or profile.tgrl_training_steps
        pattern_sets["Random"] = random_pattern_set(context.netlist, budget, seed=profile.seed)
    if "ATPG" in techniques:
        pattern_sets["ATPG"] = atpg_pattern_set(context.netlist, context.compatibility.rare_nets)
    if "TARMAC" in techniques:
        pattern_sets["TARMAC"] = tarmac_pattern_set(
            context.compatibility,
            TarmacConfig(num_cliques=profile.num_cliques, seed=profile.seed),
        )
    if "DETERRENT" in techniques:
        agent = DeterrentAgent(context.compatibility, profile.deterrent_config())
        agent_result = agent.train()
        selected = agent_result.largest_sets(profile.k_patterns)
        pattern_sets["DETERRENT"] = generate_patterns(
            context.compatibility, selected, technique="DETERRENT"
        )

    outcomes: dict[str, TechniqueOutcome] = {}
    for technique, pattern_set in pattern_sets.items():
        coverage = trigger_coverage(context.netlist, context.trojans, pattern_set)
        outcomes[technique] = TechniqueOutcome(
            technique=technique,
            test_length=len(pattern_set),
            coverage_percent=coverage.coverage_percent,
        )
    return outcomes


def run_design(
    context: BenchmarkContext,
    profile: ExperimentProfile = QUICK,
    techniques: tuple[str, ...] = ALL_TECHNIQUES,
) -> Table2Row:
    """Run the requested techniques on one prepared benchmark."""
    entry = benchmark_entry(context.name)
    row = Table2Row(
        design=context.name,
        paper_design=entry.paper_name,
        num_rare_nets=context.num_rare_nets,
        num_gates=context.netlist.num_gates,
    )
    row.outcomes = _technique_outcomes(context, profile, techniques)
    return row


@dataclass
class DesignGroupCell:
    """One technique group evaluated on one design (one grid cell)."""

    design: str
    num_rare_nets: int
    num_gates: int
    outcomes: dict[str, TechniqueOutcome]


def default_designs(profile: ExperimentProfile) -> tuple[str, ...]:
    """The designs Table 2 runs on when none are requested explicitly."""
    return TABLE2_BENCHMARKS if profile.name == "full" else QUICK_DESIGNS


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("designs", "techniques")


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per (design, technique group)."""
    designs = as_tuple(options.get("designs") or default_designs(profile))
    techniques = as_tuple(options.get("techniques", ALL_TECHNIQUES))
    grid: list[GridCell] = []
    for design in designs:
        for group in TECHNIQUE_GROUPS:
            members = tuple(t for t in group if t in techniques)
            if not members:
                continue
            grid.append(
                GridCell(
                    name=f"{design}-{'+'.join(members)}",
                    params={"design": design, "techniques": members},
                )
            )
    return grid


def run_cell(params: dict, profile: ExperimentProfile) -> DesignGroupCell:
    """Evaluate one technique group on one design."""
    context = prepare_benchmark(params["design"], profile)
    return DesignGroupCell(
        design=params["design"],
        num_rare_nets=context.num_rare_nets,
        num_gates=context.netlist.num_gates,
        outcomes=_technique_outcomes(context, profile, tuple(params["techniques"])),
    )


def collect(results: list[DesignGroupCell]) -> list[Table2Row]:
    """Merge the group cells into one row per design (canonical column order)."""
    merged: dict[str, DesignGroupCell] = {}
    outcomes: dict[str, dict[str, TechniqueOutcome]] = {}
    order: list[str] = []
    for cell in results:
        if cell.design not in merged:
            merged[cell.design] = cell
            outcomes[cell.design] = {}
            order.append(cell.design)
        outcomes[cell.design].update(cell.outcomes)
    rows: list[Table2Row] = []
    for design in order:
        entry = benchmark_entry(design)
        row = Table2Row(
            design=design,
            paper_design=entry.paper_name,
            num_rare_nets=merged[design].num_rare_nets,
            num_gates=merged[design].num_gates,
        )
        row.outcomes = {
            technique: outcomes[design][technique]
            for technique in ALL_TECHNIQUES
            if technique in outcomes[design]
        }
        rows.append(row)
    return rows


def run(
    designs: tuple[str, ...] | None = None,
    profile: ExperimentProfile = QUICK,
    techniques: tuple[str, ...] = ALL_TECHNIQUES,
) -> list[Table2Row]:
    """Run the Table 2 comparison over the requested designs."""
    from repro.runner.execution import run_experiment

    options = {"techniques": tuple(techniques)}
    if designs is not None:
        options["designs"] = tuple(designs)
    return run_experiment("table2", profile=profile, options=options).collected


def report(rows: list[Table2Row]) -> str:
    """Format measured rows next to the paper's Table 2 values."""
    headers = ["Design", "#rare", "Technique", "Test len", "Cov (%)",
               "Paper len", "Paper cov (%)"]
    table_rows: list[list[object]] = []
    for row in rows:
        paper = PAPER_TABLE2.get(row.paper_design, {})
        for technique, outcome in row.outcomes.items():
            paper_key = "TestMAX" if technique == "ATPG" else technique
            paper_len, paper_cov = paper.get(paper_key, (None, None))
            table_rows.append([
                row.design, row.num_rare_nets, technique,
                outcome.test_length, outcome.coverage_percent,
                paper_len, paper_cov,
            ])
    return format_table(headers, table_rows)


def reduction_vs_baselines(rows: list[Table2Row]) -> float:
    """Average test-length reduction of DETERRENT vs TARMAC and TGRL.

    Mirrors the paper's headline "169x fewer patterns" metric (computed over
    designs where all three techniques produced patterns).
    """
    ratios: list[float] = []
    for row in rows:
        deterrent = row.outcomes.get("DETERRENT")
        if deterrent is None or deterrent.test_length == 0:
            continue
        for baseline in ("TARMAC", "TGRL"):
            outcome = row.outcomes.get(baseline)
            if outcome is not None and outcome.test_length > 0:
                ratios.append(outcome.test_length / deterrent.test_length)
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


def main(profile_name: str = "quick") -> None:
    """Command-line entry point: ``python -m repro.experiments.table2 [quick|full]``."""
    from repro.experiments.common import profile_by_name

    profile = profile_by_name(profile_name)
    rows = run(profile=profile)
    print(report(rows))
    print(f"\nAverage test-length reduction of DETERRENT vs TARMAC/TGRL: "
          f"{reduction_vs_baselines(rows):.1f}x (paper: 169x)")


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else "quick")
