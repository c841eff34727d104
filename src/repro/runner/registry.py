"""Declarative registry of every experiment harness.

Each experiment registers an :class:`ExperimentSpec` naming the module that
implements the harness protocol:

- ``cells(profile, options) -> list[GridCell]`` — the declarative parameter
  grid (one cell per independently-runnable unit of work);
- ``run_cell(params, profile) -> result`` — execute one cell (must be a
  module-level function with picklable inputs/outputs so cells can run in
  worker processes);
- ``collect(results) -> collected`` — assemble cell results (in cell order)
  into the harness's native result type;
- ``report(collected) -> str`` — render the paper-vs-measured report.

The registry itself never imports the experiment modules at import time
(specs resolve their module lazily), so it stays cycle-free and cheap to load
from the CLI.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any


@dataclass(frozen=True)
class GridCell:
    """One unit of experiment work: a name plus picklable parameters."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one registered experiment."""

    name: str
    module: str
    title: str
    description: str = ""

    def resolve(self) -> ModuleType:
        """Import (lazily) and return the harness module."""
        module = importlib.import_module(self.module)
        for required in ("cells", "run_cell", "collect", "report"):
            if not hasattr(module, required):
                raise TypeError(
                    f"experiment module {self.module!r} does not define {required}()"
                )
        return module

    def build_cells(self, profile, options: dict[str, Any] | None = None) -> list[GridCell]:
        """The grid cells of this experiment for ``profile`` + ``options``."""
        return self.resolve().cells(profile, dict(options or {}))


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (name must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; available: {available}") from None


def all_experiments() -> tuple[ExperimentSpec, ...]:
    """All registered specs, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


#: The twelve experiment harnesses of the reproduction.
SPECS = tuple(
    register(spec)
    for spec in (
        ExperimentSpec(
            name="figure2",
            module="repro.experiments.figure2",
            title="Reward timing × masking combinations (Figure 2)",
            description="Four agent architectures on the MIPS analogue.",
        ),
        ExperimentSpec(
            name="figure3",
            module="repro.experiments.figure3",
            title="Loss trend, default vs boosted exploration (Figure 3)",
            description="Exploration settings and set diversity on c2670.",
        ),
        ExperimentSpec(
            name="figure5",
            module="repro.experiments.figure5",
            title="Trigger-width sweep (Figure 5)",
            description="DETERRENT vs TGRL coverage across trigger widths.",
        ),
        ExperimentSpec(
            name="figure6",
            module="repro.experiments.figure6",
            title="Coverage vs number of patterns (Figure 6)",
            description="Cumulative coverage curves on c2670 and c6288.",
        ),
        ExperimentSpec(
            name="figure7",
            module="repro.experiments.figure7",
            title="Rareness-threshold sweep (Figure 7)",
            description="Rare-net counts and coverage across thresholds.",
        ),
        ExperimentSpec(
            name="table1",
            module="repro.experiments.table1",
            title="Per-step vs end-of-episode reward (Table 1)",
            description="Training-rate and set-quality comparison on MIPS.",
        ),
        ExperimentSpec(
            name="table2",
            module="repro.experiments.table2",
            title="Coverage / test-length comparison (Table 2)",
            description="All techniques on all designs vs the paper's table.",
        ),
        ExperimentSpec(
            name="transfer",
            module="repro.experiments.transfer",
            title="Threshold-transfer experiment (§4.5)",
            description="Train at threshold 0.14, evaluate at 0.10.",
        ),
        ExperimentSpec(
            name="ablations",
            module="repro.experiments.ablations",
            title="Design-choice ablations",
            description="Reward shape, exact-set reward, and k sweeps.",
        ),
        ExperimentSpec(
            name="pipeline",
            module="repro.experiments.pipeline_run",
            title="End-to-end DETERRENT pipeline",
            description="Full Figure-4 flow plus coverage on one design.",
        ),
        ExperimentSpec(
            name="sequential",
            module="repro.experiments.sequential",
            title="Sequential workload: multi-cycle trigger coverage",
            description="Raw sequential netlists, state-dependent rare nets, "
                        "counter/shift-register triggers across cycle depths.",
        ),
        ExperimentSpec(
            name="sequential_detect",
            module="repro.experiments.sequential_detect",
            title="SAT-guided sequential detection vs random sequences",
            description="Temporal justification on the unrolled transition "
                        "relation: SAT-guided sequence sets against the "
                        "random baseline at equal budget.",
        ),
    )
)


__all__ = [
    "GridCell",
    "ExperimentSpec",
    "SPECS",
    "register",
    "get_experiment",
    "all_experiments",
]
