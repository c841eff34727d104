#!/usr/bin/env python
"""Compare DETERRENT against every baseline on one design (a mini Table 2).

For a single benchmark the script generates pattern sets with Random patterns,
the TestMAX-style ATPG proxy, MERO, TARMAC, TGRL and DETERRENT, then evaluates
all of them against the same population of randomly inserted Trojans and
prints a Table-2-style comparison of coverage vs test length.

Run with:  python examples/technique_shootout.py [benchmark-name]
"""

import sys

from repro.baselines.atpg import atpg_pattern_set
from repro.baselines.mero import MeroConfig, mero_pattern_set
from repro.baselines.random_patterns import random_pattern_set
from repro.baselines.tarmac import TarmacConfig, tarmac_pattern_set
from repro.baselines.tgrl import TgrlConfig, tgrl_pattern_set
from repro.core.agent import DeterrentAgent
from repro.core.patterns import generate_patterns
from repro.experiments.common import QUICK, prepare_benchmark
from repro.experiments.reporting import format_table
from repro.trojan.evaluation import trigger_coverage


def main(design: str = "c2670_like") -> None:
    profile = QUICK
    print(f"Preparing {design} (rare nets, compatibility, {profile.num_trojans} Trojans)...")
    context = prepare_benchmark(design, profile)
    print(f"  {context.netlist.num_gates} gates, {context.num_rare_nets} activatable rare nets")

    pattern_sets = {}
    print("Running TGRL baseline...")
    pattern_sets["TGRL"] = tgrl_pattern_set(
        context.netlist, context.compatibility.rare_nets,
        TgrlConfig(total_training_steps=profile.tgrl_training_steps, seed=0),
    )
    print("Running Random baseline...")
    pattern_sets["Random"] = random_pattern_set(
        context.netlist, len(pattern_sets["TGRL"]), seed=0
    )
    print("Running ATPG proxy...")
    pattern_sets["ATPG"] = atpg_pattern_set(context.netlist, context.compatibility.rare_nets)
    print("Running MERO...")
    pattern_sets["MERO"] = mero_pattern_set(
        context.netlist, context.compatibility.rare_nets,
        MeroConfig(num_random_patterns=256, n_detect=3, seed=0),
    )
    print("Running TARMAC...")
    pattern_sets["TARMAC"] = tarmac_pattern_set(
        context.compatibility, TarmacConfig(num_cliques=profile.num_cliques, seed=0)
    )
    print("Training DETERRENT...")
    agent = DeterrentAgent(context.compatibility, profile.deterrent_config())
    agent_result = agent.train()
    pattern_sets["DETERRENT"] = generate_patterns(
        context.compatibility, agent_result.largest_sets(profile.k_patterns),
        technique="DETERRENT",
    )

    rows = []
    for technique, pattern_set in pattern_sets.items():
        coverage = trigger_coverage(context.netlist, context.trojans, pattern_set)
        rows.append([technique, len(pattern_set), coverage.coverage_percent])
    rows.sort(key=lambda row: -row[2])
    print()
    print(format_table(["Technique", "Test length", "Trigger coverage (%)"], rows))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "c2670_like")
