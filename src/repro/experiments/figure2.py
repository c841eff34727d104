"""Figure 2: reward-timing × masking combinations on the MIPS analogue.

The paper compares four agent architectures — {reward at all steps,
end-of-episode reward} × {masking, no masking} — on two axes: training rate in
episodes/minute and the maximum number of compatible rare nets found.  The
conclusion (replicated here) is that masking always helps, per-step rewards
find the largest sets, and end-of-episode rewards train fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import DeterrentAgent
from repro.experiments.common import ExperimentProfile, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell

#: Approximate values read from the paper's Figure 2 bar chart (MIPS).
PAPER_FIGURE2 = {
    ("per_step", False): {"episodes_per_min": 1, "max_compatible": 52},
    ("per_step", True): {"episodes_per_min": 1, "max_compatible": 60},
    ("end_of_episode", False): {"episodes_per_min": 55, "max_compatible": 50},
    ("end_of_episode", True): {"episodes_per_min": 63, "max_compatible": 55},
}


@dataclass
class ComboResult:
    """Metrics of one (reward mode, masking) combination."""

    reward_mode: str
    masking: bool
    episodes_per_minute: float
    max_compatible: int


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design",)


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per (reward mode, masking) combination."""
    design = options.get("design", "mips16_like")
    return [
        GridCell(
            name=f"{reward_mode}-{'masked' if masking else 'unmasked'}",
            params={"design": design, "reward_mode": reward_mode, "masking": masking},
        )
        for reward_mode in ("per_step", "end_of_episode")
        for masking in (False, True)
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> ComboResult:
    """Train one agent for one combination and collect its metrics."""
    context = prepare_benchmark(params["design"], profile)
    config = profile.deterrent_config(
        reward_mode=params["reward_mode"], masking=params["masking"]
    )
    agent = DeterrentAgent(context.compatibility, config)
    agent_result = agent.train()
    return ComboResult(
        reward_mode=params["reward_mode"],
        masking=params["masking"],
        episodes_per_minute=agent_result.summary.episodes_per_minute,
        max_compatible=agent_result.max_compatible_set_size,
    )


def collect(results: list[ComboResult]) -> list[ComboResult]:
    """Cell results, in grid order."""
    return results


def report(results: list[ComboResult]) -> str:
    """Format the four combinations next to the paper's Figure 2 values."""
    headers = ["Combination", "Eps/min", "Max #compat", "Paper eps/min", "Paper max"]
    labels = {"per_step": "All rew", "end_of_episode": "Eoe rew"}
    rows = []
    for result in results:
        label = f"{labels[result.reward_mode]} + {'M' if result.masking else 'NM'}"
        paper = PAPER_FIGURE2[(result.reward_mode, result.masking)]
        rows.append([
            label, round(result.episodes_per_minute, 2), result.max_compatible,
            paper["episodes_per_min"], paper["max_compatible"],
        ])
    return format_table(headers, rows)
