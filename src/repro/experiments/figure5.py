"""Figure 5: impact of the trigger width on trigger coverage (c6288).

The paper sweeps the trigger width from 2 to 12 on c6288 and shows that
TGRL's coverage collapses as the width grows while DETERRENT stays steady.
The harness repeats the sweep on the c6288 analogue: both techniques generate
their pattern sets once (trigger-width agnostic) and are evaluated against
Trojan populations of each width.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.tgrl import TgrlConfig, tgrl_pattern_set
from repro.core.agent import DeterrentAgent
from repro.core.patterns import generate_patterns
from repro.experiments.common import ExperimentProfile, as_tuple, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.runner.registry import GridCell
from repro.trojan.evaluation import trigger_coverage
from repro.trojan.insertion import sample_trojans

#: Default trigger widths from the paper's Figure 5.
DEFAULT_WIDTHS = (2, 4, 6, 8, 10, 12)


@dataclass
class WidthPoint:
    """Coverage of both techniques for one trigger width."""

    width: int
    num_trojans: int
    deterrent_coverage: float
    tgrl_coverage: float


@dataclass
class TechniqueSweep:
    """One technique's coverage across the width sweep (one grid cell)."""

    technique: str
    points: list[tuple[int, int, float]]  # (width, num_trojans, coverage %)


#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("design", "widths")


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per technique; each sweeps every trigger width."""
    design = options.get("design", "c6288_like")
    widths = as_tuple(options.get("widths", DEFAULT_WIDTHS))
    return [
        GridCell(name=technique, params={"design": design, "widths": widths,
                                         "technique": technique})
        for technique in ("DETERRENT", "TGRL")
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> TechniqueSweep:
    """Build one technique's pattern set and evaluate it at every width.

    Trojan populations are sampled with a per-width seed derived only from
    ``(profile.seed, width)``, so both technique cells evaluate against the
    same populations even when they run in different worker processes.
    """
    context = prepare_benchmark(params["design"], profile)
    technique = params["technique"]
    if technique == "DETERRENT":
        agent = DeterrentAgent(context.compatibility, profile.deterrent_config())
        agent_result = agent.train()
        patterns = generate_patterns(
            context.compatibility, agent_result.largest_sets(profile.k_patterns),
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

    points: list[tuple[int, int, float]] = []
    for width in params["widths"]:
        if width > context.num_rare_nets:
            continue
        trojans = sample_trojans(
            context.netlist,
            context.compatibility.rare_nets,
            num_trojans=profile.num_trojans,
            trigger_width=width,
            seed=profile.seed + width,
            justifier=context.compatibility.justifier,
        )
        if not trojans:
            continue
        coverage = trigger_coverage(context.netlist, trojans, patterns)
        points.append((width, len(trojans), coverage.coverage_percent))
    return TechniqueSweep(technique=technique, points=points)


def collect(results: list[TechniqueSweep]) -> list[WidthPoint]:
    """Merge the per-technique sweeps into joint width points."""
    by_technique = {sweep.technique: dict() for sweep in results}
    counts: dict[int, int] = {}
    for sweep in results:
        for width, num_trojans, coverage in sweep.points:
            by_technique[sweep.technique][width] = coverage
            counts[width] = num_trojans
    deterrent = by_technique.get("DETERRENT", {})
    tgrl = by_technique.get("TGRL", {})
    return [
        WidthPoint(
            width=width,
            num_trojans=counts[width],
            deterrent_coverage=deterrent[width],
            tgrl_coverage=tgrl[width],
        )
        for width in sorted(set(deterrent) & set(tgrl))
    ]


def report(points: list[WidthPoint]) -> str:
    """Format the width sweep (the paper plots these as two curves)."""
    headers = ["Trigger width", "#HTs", "DETERRENT cov (%)", "TGRL cov (%)"]
    rows = [[p.width, p.num_trojans, p.deterrent_coverage, p.tgrl_coverage] for p in points]
    return format_table(headers, rows)
