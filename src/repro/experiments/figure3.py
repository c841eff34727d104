"""Figure 3: total-loss trend with default vs boosted exploration (c2670).

The paper shows that with the default PPO settings the total loss collapses
quickly (the agent commits to a sub-optimal policy), whereas with the boosted
exploration configuration (entropy coefficient 1.0 and GAE λ = 0.99) the loss
stays non-zero for much longer, keeping the policy stochastic and the set
diversity high.  The harness records both loss curves and the resulting set
diversity on the c2670 analogue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agent import DeterrentAgent
from repro.experiments.common import ExperimentProfile, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell


@dataclass
class ExplorationResult:
    """Loss trajectory and diversity statistics for one exploration setting."""

    label: str
    loss_history: list[float]
    num_distinct_sets: int
    max_compatible: int

    @property
    def mean_late_loss(self) -> float:
        """Mean |total loss| over the last quarter of training (0 when converged)."""
        if not self.loss_history:
            return 0.0
        tail = self.loss_history[-max(1, len(self.loss_history) // 4):]
        return float(np.mean(np.abs(tail)))


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design",)


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per exploration setting."""
    design = options.get("design", "c2670_like")
    return [
        GridCell(name=label, params={"design": design, "label": label, "boosted": boosted})
        for label, boosted in (("default", False), ("boosted", True))
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> ExplorationResult:
    """Train one agent with one exploration setting."""
    context = prepare_benchmark(params["design"], profile)
    config = profile.deterrent_config(boosted_exploration=params["boosted"])
    agent = DeterrentAgent(context.compatibility, config)
    agent_result = agent.train()
    return ExplorationResult(
        label=params["label"],
        loss_history=list(agent_result.summary.loss_history),
        num_distinct_sets=len(agent_result.distinct_sets),
        max_compatible=agent_result.max_compatible_set_size,
    )


def collect(results: list[ExplorationResult]) -> dict[str, ExplorationResult]:
    """Key the cell results by exploration label."""
    return {result.label: result for result in results}


def report(results: dict[str, ExplorationResult]) -> str:
    """Summarise both loss trajectories (the paper plots the full curves)."""
    headers = ["Exploration", "Updates", "Mean |loss| (late)", "#distinct sets", "Max #compat"]
    rows = []
    for label, result in results.items():
        rows.append([
            label, len(result.loss_history), result.mean_late_loss,
            result.num_distinct_sets, result.max_compatible,
        ])
    return format_table(headers, rows)
