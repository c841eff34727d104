"""Figure 6: trigger coverage vs number of test patterns (c2670 and c6288).

The paper plots, for DETERRENT and TGRL, the cumulative trigger coverage as a
function of how many of each technique's patterns have been applied; DETERRENT
saturates with very few patterns.  The harness produces the same cumulative
curves on the analogues.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.tgrl import TgrlConfig, tgrl_pattern_set
from repro.core.agent import DeterrentAgent
from repro.core.patterns import generate_patterns
from repro.experiments.common import ExperimentProfile, as_tuple, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell
from repro.trojan.evaluation import coverage_curve

#: Designs shown in the paper's Figure 6.
DEFAULT_DESIGNS = ("c2670_like", "c6288_like")


@dataclass
class CurveResult:
    """Coverage curves for one design."""

    design: str
    deterrent_curve: list[tuple[int, float]]
    tgrl_curve: list[tuple[int, float]]


@dataclass
class CurveCell:
    """One technique's cumulative coverage curve on one design (one cell)."""

    design: str
    technique: str
    curve: list[tuple[int, float]]


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("designs",)


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per (design, technique)."""
    designs = as_tuple(options.get("designs", DEFAULT_DESIGNS))
    return [
        GridCell(name=f"{design}-{technique}",
                 params={"design": design, "technique": technique})
        for design in designs
        for technique in ("DETERRENT", "TGRL")
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> CurveCell:
    """Build one technique's pattern set and its cumulative coverage curve."""
    context = prepare_benchmark(params["design"], profile)
    if params["technique"] == "DETERRENT":
        agent = DeterrentAgent(context.compatibility, profile.deterrent_config())
        agent_result = agent.train()
        patterns = generate_patterns(
            context.compatibility,
            agent_result.largest_sets(profile.k_patterns),
            technique="DETERRENT",
        )
    else:
        patterns = tgrl_pattern_set(
            context.netlist,
            context.compatibility.rare_nets,
            TgrlConfig(
                total_training_steps=profile.tgrl_training_steps,
                num_envs=profile.num_envs,
                seed=profile.seed,
            ),
        )
    return CurveCell(
        design=params["design"],
        technique=params["technique"],
        curve=coverage_curve(context.netlist, context.trojans, patterns),
    )


def collect(results: list[CurveCell]) -> list[CurveResult]:
    """Merge per-technique curves into one :class:`CurveResult` per design."""
    curves: dict[str, dict[str, list[tuple[int, float]]]] = {}
    order: list[str] = []
    for cell in results:
        if cell.design not in curves:
            curves[cell.design] = {}
            order.append(cell.design)
        curves[cell.design][cell.technique] = cell.curve
    return [
        CurveResult(
            design=design,
            deterrent_curve=curves[design].get("DETERRENT", []),
            tgrl_curve=curves[design].get("TGRL", []),
        )
        for design in order
    ]


def report(results: list[CurveResult]) -> str:
    """Summarise the curves: final coverage and patterns needed for 90% of it."""
    headers = [
        "Design", "Technique", "Test len", "Final cov (%)", "Patterns to 90% of final",
    ]
    rows: list[list[object]] = []
    for result in results:
        for technique, curve in (("DETERRENT", result.deterrent_curve),
                                 ("TGRL", result.tgrl_curve)):
            if not curve:
                rows.append([result.design, technique, 0, 0.0, None])
                continue
            final = curve[-1][1]
            target = 0.9 * final
            reached = next((n for n, c in curve if c >= target), None)
            rows.append([result.design, technique, curve[-1][0], final, reached])
    return format_table(headers, rows)
