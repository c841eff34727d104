"""Figure 7: impact of the rareness threshold on rare nets and coverage (c6288).

Raising the rareness threshold increases the number of rare nets (and hence
the number of potential trigger combinations) combinatorially; the paper shows
that DETERRENT's trigger coverage stays within 2% across thresholds 0.10-0.14.
The harness sweeps the same thresholds on the c6288 analogue, re-running the
offline phase and the agent at each threshold and evaluating against Trojans
sampled from that threshold's rare-net population.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import DeterrentAgent
from repro.core.patterns import generate_patterns
from repro.experiments.common import ExperimentProfile, as_tuple, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell
from repro.trojan.evaluation import trigger_coverage

#: Thresholds from the paper's Figure 7.
DEFAULT_THRESHOLDS = (0.10, 0.11, 0.12, 0.13, 0.14)


@dataclass
class ThresholdPoint:
    """Rare-net count and DETERRENT coverage at one rareness threshold."""

    threshold: float
    num_rare_nets: int
    coverage_percent: float
    test_length: int


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design", "thresholds")


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per rareness threshold."""
    design = options.get("design", "c6288_like")
    thresholds = as_tuple(options.get("thresholds", DEFAULT_THRESHOLDS))
    return [
        GridCell(name=f"threshold-{threshold}", params={"design": design,
                                                        "threshold": threshold})
        for threshold in thresholds
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> ThresholdPoint | None:
    """Run DETERRENT at one rareness threshold (None if no Trojans fit)."""
    threshold = params["threshold"]
    context = prepare_benchmark(params["design"], profile, threshold=threshold)
    if not context.trojans:
        return None
    agent = DeterrentAgent(
        context.compatibility,
        profile.deterrent_config(rareness_threshold=threshold),
    )
    agent_result = agent.train()
    patterns = generate_patterns(
        context.compatibility,
        agent_result.largest_sets(profile.k_patterns),
        technique="DETERRENT",
    )
    coverage = trigger_coverage(context.netlist, context.trojans, patterns)
    return ThresholdPoint(
        threshold=threshold,
        num_rare_nets=context.num_rare_nets,
        coverage_percent=coverage.coverage_percent,
        test_length=len(patterns),
    )


def collect(results: list[ThresholdPoint | None]) -> list[ThresholdPoint]:
    """Drop skipped thresholds, keeping sweep order."""
    return [point for point in results if point is not None]


def report(points: list[ThresholdPoint]) -> str:
    """Format the threshold sweep (the paper plots nets and coverage together)."""
    headers = ["Threshold", "#rare nets", "Test length", "DETERRENT cov (%)"]
    rows = [[p.threshold, p.num_rare_nets, p.test_length, p.coverage_percent] for p in points]
    return format_table(headers, rows)
