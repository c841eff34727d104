"""Ablations of DETERRENT's design choices (DESIGN.md §5).

Beyond the comparisons the paper reports, this harness quantifies the effect
of three design choices on one benchmark:

1. reward shape — linear vs squared set size (the paper argues for convexity);
2. exact vs pairwise-only set verification in the reward;
3. the number of kept sets ``k`` — pattern count vs coverage trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import DeterrentAgent
from repro.core.patterns import generate_patterns
from repro.experiments.common import ExperimentProfile, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell
from repro.trojan.evaluation import trigger_coverage


@dataclass
class AblationPoint:
    """One ablation configuration and its outcome."""

    label: str
    max_compatible: int
    test_length: int
    coverage_percent: float


def _evaluate(context, agent_result, profile, k_patterns) -> tuple[int, float]:
    patterns = generate_patterns(
        context.compatibility, agent_result.largest_sets(k_patterns), technique="DETERRENT"
    )
    coverage = trigger_coverage(context.netlist, context.trojans, patterns)
    return len(patterns), coverage.coverage_percent


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design",)


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per ablated configuration (the k sweep shares one agent)."""
    design = options.get("design", "c6288_like")
    return [
        GridCell(name="reward-linear",
                 params={"design": design, "kind": "reward_power", "power": 1.0,
                         "label": "reward |s| (linear)"}),
        GridCell(name="reward-squared",
                 params={"design": design, "kind": "reward_power", "power": 2.0,
                         "label": "reward |s|^2 (paper)"}),
        GridCell(name="pairwise-only",
                 params={"design": design, "kind": "pairwise_only",
                         "label": "pairwise-only compatibility"}),
        GridCell(name="k-sweep", params={"design": design, "kind": "k_sweep"}),
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> list[AblationPoint]:
    """Run one ablated configuration (the k sweep yields several points)."""
    context = prepare_benchmark(params["design"], profile)
    kind = params["kind"]
    if kind == "reward_power":
        config = profile.deterrent_config(reward_power=params["power"])
    elif kind == "pairwise_only":
        config = profile.deterrent_config(exact_set_reward=False)
    elif kind == "k_sweep":
        config = profile.deterrent_config()
    else:
        raise ValueError(f"unknown ablation kind {kind!r}")
    agent_result = DeterrentAgent(context.compatibility, config).train()

    if kind == "k_sweep":
        points: list[AblationPoint] = []
        for k in (profile.k_patterns // 4, profile.k_patterns // 2, profile.k_patterns):
            if k <= 0:
                continue
            length, coverage = _evaluate(context, agent_result, profile, k)
            points.append(AblationPoint(
                f"k = {k}", agent_result.max_compatible_set_size, length, coverage
            ))
        return points
    length, coverage = _evaluate(context, agent_result, profile, profile.k_patterns)
    return [AblationPoint(
        params["label"], agent_result.max_compatible_set_size, length, coverage
    )]


def collect(results: list[list[AblationPoint]]) -> list[AblationPoint]:
    """Flatten cell results, preserving grid order."""
    return [point for cell_points in results for point in cell_points]


def report(points: list[AblationPoint]) -> str:
    """Format the ablation grid."""
    headers = ["Configuration", "Max #compat", "Test length", "Coverage (%)"]
    rows = [[p.label, p.max_compatible, p.test_length, p.coverage_percent] for p in points]
    return format_table(headers, rows)
