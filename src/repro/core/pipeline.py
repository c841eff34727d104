"""End-to-end DETERRENT pipeline.

``DeterrentPipeline.run(netlist)`` performs the full flow of Figure 4:
rare-net extraction → pairwise compatibility (offline phase) → PPO training on
the trigger-activation MDP → selection of the k largest distinct compatible
sets → SAT-based test-pattern generation, and returns everything an
experiment needs (patterns, sets, timing, training statistics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.circuits.netlist import Netlist
from repro.circuits.scan import ensure_combinational
from repro.core.agent import AgentResult, DeterrentAgent
from repro.core.compatibility import CompatibilityAnalysis, cached_rare_nets, compute_compatibility
from repro.core.config import DeterrentConfig
from repro.core.patterns import PatternSet, generate_patterns
from repro.simulation.compiled import compile_netlist
from repro.simulation.rare_nets import RareNet


@dataclass
class DeterrentResult:
    """All artefacts of one DETERRENT run on one netlist."""

    netlist: Netlist
    rare_nets: list[RareNet]
    compatibility: CompatibilityAnalysis
    agent_result: AgentResult
    pattern_set: PatternSet
    #: Wall-clock seconds of each phase (not cumulative), keyed by phase name.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def test_length(self) -> int:
        """Number of generated test patterns (the paper's "Test Length")."""
        return len(self.pattern_set)

    @property
    def max_compatible_set_size(self) -> int:
        """Largest compatible rare-net set found during training."""
        return self.agent_result.max_compatible_set_size


class DeterrentPipeline:
    """Runs the complete DETERRENT flow for a configuration."""

    def __init__(self, config: DeterrentConfig | None = None) -> None:
        self.config = config or DeterrentConfig()

    def run(
        self,
        netlist: Netlist,
        rare_nets: list[RareNet] | None = None,
        compatibility: CompatibilityAnalysis | None = None,
    ) -> DeterrentResult:
        """Execute the pipeline on ``netlist``.

        ``rare_nets`` and ``compatibility`` may be supplied to reuse a
        previously computed offline phase (as the threshold-transfer
        experiment of §4.5 does).
        """
        config = self.config
        timings: dict[str, float] = {}
        started = time.perf_counter()
        combinational = ensure_combinational(netlist)
        # Lower the netlist once up front; every downstream simulation —
        # probability estimation, baselines, coverage evaluation — reuses the
        # cached compiled engine instead of re-walking Gate objects.
        compile_netlist(combinational)
        started = _record_phase(timings, "compile", started)

        if rare_nets is None:
            rare_nets = cached_rare_nets(
                combinational,
                threshold=config.rareness_threshold,
                num_patterns=config.num_probability_patterns,
                seed=config.seed,
            )
        started = _record_phase(timings, "rare_net_extraction", started)
        if not rare_nets:
            raise ValueError(
                f"no rare nets found in {netlist.name!r} at threshold "
                f"{config.rareness_threshold}; lower the threshold or use a larger circuit"
            )

        if compatibility is None:
            # Memoised in the default artifact cache when one is configured.
            compatibility = compute_compatibility(combinational, rare_nets)
        started = _record_phase(timings, "compatibility", started)
        if compatibility.num_rare_nets == 0:
            raise ValueError(
                f"none of the {len(rare_nets)} rare nets of {netlist.name!r} is activatable"
            )
        # Bias SAT witnesses toward rare values so each generated pattern also
        # activates unconstrained rare nets opportunistically (see Justifier).
        compatibility.justifier.set_preferred_values(
            {rare.net: rare.rare_value for rare in compatibility.rare_nets}
        )

        agent = DeterrentAgent(compatibility, config)
        agent_result = agent.train()
        started = _record_phase(timings, "training", started)

        selected_sets = agent_result.largest_sets(config.k_patterns)
        pattern_set = generate_patterns(compatibility, selected_sets, technique="DETERRENT")
        _record_phase(timings, "pattern_generation", started)

        return DeterrentResult(
            netlist=combinational,
            rare_nets=list(rare_nets),
            compatibility=compatibility,
            agent_result=agent_result,
            pattern_set=pattern_set,
            timings=timings,
        )


def _record_phase(timings: dict[str, float], name: str, started: float) -> float:
    """Store the seconds since ``started`` under ``name``; return the new start."""
    now = time.perf_counter()
    timings[name] = now - started
    return now


__all__ = ["DeterrentPipeline", "DeterrentResult"]
