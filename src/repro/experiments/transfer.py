"""§4.5 threshold-transfer experiment.

The paper trains the agent on the rare nets of a *larger* threshold (0.14) and
evaluates the generated test patterns against Trojans built from the rare nets
of the *smaller* threshold (0.1), observing 99% coverage — evidence that one
agent trained on a superset of rare nets transfers to subsets.  The harness
repeats the experiment on the c6288 analogue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import DeterrentAgent
from repro.core.patterns import generate_patterns
from repro.experiments.common import ExperimentProfile, prepare_benchmark
from repro.runner.registry import GridCell
from repro.trojan.evaluation import trigger_coverage


@dataclass
class TransferResult:
    """Outcome of training at one threshold and evaluating at another."""

    design: str
    train_threshold: float
    eval_threshold: float
    train_rare_nets: int
    eval_rare_nets: int
    test_length: int
    coverage_percent: float


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design", "train_threshold", "eval_threshold")


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """A single grid cell: the train→evaluate threshold pair."""
    params = {
        "design": options.get("design", "c6288_like"),
        "train_threshold": options.get("train_threshold", 0.14),
        "eval_threshold": options.get("eval_threshold", 0.10),
    }
    return [GridCell(name=f"{params['train_threshold']}-to-{params['eval_threshold']}",
                     params=params)]


def run_cell(params: dict, profile: ExperimentProfile) -> TransferResult:
    """Train at one threshold; evaluate on Trojans from the other."""
    return _run_transfer(
        params["design"], params["train_threshold"], params["eval_threshold"], profile
    )


def collect(results: list[TransferResult]) -> TransferResult:
    """The single cell result."""
    return results[0]


def _run_transfer(
    design: str,
    train_threshold: float,
    eval_threshold: float,
    profile: ExperimentProfile,
) -> TransferResult:
    train_context = prepare_benchmark(design, profile, threshold=train_threshold)
    eval_context = prepare_benchmark(design, profile, threshold=eval_threshold)

    agent = DeterrentAgent(
        train_context.compatibility,
        profile.deterrent_config(rareness_threshold=train_threshold),
    )
    agent_result = agent.train()
    patterns = generate_patterns(
        train_context.compatibility,
        agent_result.largest_sets(profile.k_patterns),
        technique="DETERRENT",
    )
    coverage = trigger_coverage(eval_context.netlist, eval_context.trojans, patterns)
    return TransferResult(
        design=design,
        train_threshold=train_threshold,
        eval_threshold=eval_threshold,
        train_rare_nets=train_context.num_rare_nets,
        eval_rare_nets=eval_context.num_rare_nets,
        test_length=len(patterns),
        coverage_percent=coverage.coverage_percent,
    )


def report(result: TransferResult) -> str:
    """One-line paper-vs-measured summary."""
    return (
        f"{result.design}: trained on {result.train_rare_nets} rare nets "
        f"(threshold {result.train_threshold}), evaluated on Trojans from "
        f"{result.eval_rare_nets} rare nets (threshold {result.eval_threshold}): "
        f"coverage {result.coverage_percent:.1f}% with {result.test_length} patterns "
        f"(paper: 99%)"
    )
