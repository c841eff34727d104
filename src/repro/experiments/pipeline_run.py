"""End-to-end pipeline experiment: the full Figure-4 flow on one design.

Runs :class:`repro.core.pipeline.DeterrentPipeline` (rare-net extraction →
compatibility → PPO training → SAT pattern generation) and evaluates the
generated pattern set against the design's sampled Trojan population.  This is
the "does the whole system work" experiment the CLI exposes as ``pipeline``;
the other harnesses measure individual figures/tables of the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.pipeline import DeterrentPipeline
from repro.experiments.common import ExperimentProfile, as_tuple, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell
from repro.trojan.evaluation import trigger_coverage


@dataclass
class PipelineSummary:
    """Headline metrics of one end-to-end pipeline run."""

    design: str
    num_rare_nets: int
    max_compatible_set_size: int
    test_length: int
    coverage_percent: float
    #: Seconds per phase: ``preparation`` (``prepare_benchmark``: loading the
    #: design, its rare nets, compatibility and Trojans) first, then the
    #: pipeline's own phases.
    timings: dict[str, float] = field(default_factory=dict)


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design", "designs")


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per requested design."""
    designs = as_tuple(options.get("designs") or options.get("design", "c6288_like"))
    return [GridCell(name=design, params={"design": design}) for design in designs]


def run_cell(params: dict, profile: ExperimentProfile) -> PipelineSummary:
    """Run the full pipeline on one design and score its patterns."""
    design = params["design"]
    started = time.perf_counter()
    context = prepare_benchmark(design, profile)
    preparation = time.perf_counter() - started
    pipeline = DeterrentPipeline(profile.deterrent_config(rareness_threshold=context.threshold))
    result = pipeline.run(
        context.netlist, rare_nets=context.rare_nets, compatibility=context.compatibility
    )
    coverage = trigger_coverage(context.netlist, context.trojans, result.pattern_set)
    return PipelineSummary(
        design=design,
        num_rare_nets=result.compatibility.num_rare_nets,
        max_compatible_set_size=result.max_compatible_set_size,
        test_length=result.test_length,
        coverage_percent=coverage.coverage_percent,
        timings={
            "preparation": round(preparation, 3),
            **{name: round(value, 3) for name, value in result.timings.items()},
        },
    )


def collect(results: list[PipelineSummary]) -> list[PipelineSummary]:
    """Cell results, in design order."""
    return results


def report(results: list[PipelineSummary]) -> str:
    """Summarise each pipeline run as one table row."""
    headers = ["Design", "#rare", "Max #compat", "Test len", "Coverage (%)", "Total (s)"]
    rows = [
        [
            summary.design,
            summary.num_rare_nets,
            summary.max_compatible_set_size,
            summary.test_length,
            summary.coverage_percent,
            round(sum(summary.timings.values()), 3),
        ]
        for summary in results
    ]
    return format_table(headers, rows)
