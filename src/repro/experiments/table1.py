"""Table 1: per-step vs end-of-episode reward computation on the MIPS analogue.

The paper reports, for the MIPS benchmark, the maximum number of compatible
rare nets found, the training rate in steps/minute and in episodes/minute for
both reward-computation strategies, and the relative improvement.  The harness
reproduces those three rows on the ``mips16_like`` analogue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import DeterrentAgent
from repro.experiments.common import ExperimentProfile, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell

#: Paper values for Table 1 (MIPS).
PAPER_TABLE1 = {
    "per_step": {"max_compatible": 53, "steps_per_min": 108, "episodes_per_min": 0.72},
    "end_of_episode": {"max_compatible": 50, "steps_per_min": 9387, "episodes_per_min": 63},
}


@dataclass
class RewardModeResult:
    """Training statistics of one reward-computation mode."""

    reward_mode: str
    max_compatible: int
    steps_per_minute: float
    episodes_per_minute: float
    reward_checks: int


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design",)


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per reward-computation mode."""
    design = options.get("design", "mips16_like")
    return [
        GridCell(name=reward_mode, params={"design": design, "reward_mode": reward_mode})
        for reward_mode in ("per_step", "end_of_episode")
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> RewardModeResult:
    """Train one agent with one reward mode and collect its metrics."""
    context = prepare_benchmark(params["design"], profile)
    config = profile.deterrent_config(reward_mode=params["reward_mode"])
    agent = DeterrentAgent(context.compatibility, config)
    agent_result = agent.train()
    summary = agent_result.summary
    return RewardModeResult(
        reward_mode=params["reward_mode"],
        max_compatible=agent_result.max_compatible_set_size,
        steps_per_minute=summary.steps_per_minute,
        episodes_per_minute=summary.episodes_per_minute,
        reward_checks=agent.total_reward_checks,
    )


def collect(results: list[RewardModeResult]) -> dict[str, RewardModeResult]:
    """Key the cell results by reward mode."""
    return {result.reward_mode: result for result in results}


def report(results: dict[str, RewardModeResult]) -> str:
    """Format the measured Table 1 next to the paper's values."""
    headers = ["Method", "Max #compat", "Steps/min", "Eps/min",
               "Paper max", "Paper steps/min", "Paper eps/min"]
    rows = []
    labels = {"per_step": "Reward at all steps", "end_of_episode": "End-of-episode reward"}
    for mode, result in results.items():
        paper = PAPER_TABLE1[mode]
        rows.append([
            labels[mode], result.max_compatible,
            round(result.steps_per_minute), round(result.episodes_per_minute, 2),
            paper["max_compatible"], paper["steps_per_min"], paper["episodes_per_min"],
        ])
    per_step = results["per_step"]
    end_of_episode = results["end_of_episode"]
    if per_step.max_compatible > 0 and per_step.steps_per_minute > 0:
        quality_change = 100.0 * (
            end_of_episode.max_compatible - per_step.max_compatible
        ) / per_step.max_compatible
        speedup = end_of_episode.steps_per_minute / per_step.steps_per_minute
        rows.append([
            "Improvement", f"{quality_change:+.1f}%", f"{speedup:.1f}x",
            f"{end_of_episode.episodes_per_minute / max(per_step.episodes_per_minute, 1e-9):.1f}x",
            "-5.6%", "86.91x", "87.5x",
        ])
    return format_table(headers, rows)
