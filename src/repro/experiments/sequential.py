"""Sequential-circuit workload: multi-cycle trigger coverage beyond full scan.

Every other harness evaluates on the full-scan combinational view, where any
flip-flop can be loaded directly and a Trojan trigger is a single-cycle
event.  Real Trojan triggers fire across clock cycles on the raw sequential
netlist — a counter accumulates rare activations, or a shift register demands
a streak of them — and a full-scan test set says nothing about whether random
*sequences* from reset ever exercise such a trigger.

This harness opens that axis: for each grid cell it

1. loads the **raw** sequential benchmark (flip-flops in place),
2. extracts *state-dependent* rare nets — activation counts aggregated over
   ``cycles`` clock cycles of random input sequences stepped from reset
   (:func:`repro.simulation.rare_nets.extract_rare_nets` with ``cycles=``),
3. samples multi-cycle Trojans whose per-cycle condition uses those rare nets
   and whose temporal rule is ``mode``/``count`` (consecutive streak or
   cumulative counter),
4. measures trigger coverage of a random sequence workload with the batched
   multi-cycle evaluator, alongside the fraction of bare conditions that
   fired at least once (the single-cycle view) — the gap between the two
   columns is the temporal depth a combinational flow cannot see.

The grid is cycle depth × trigger arity (mode, count); the offline phase
(state-dependent rare nets, Trojan populations) is shared through the
artifact cache, so the harness is shard-safe under ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.circuits.library import benchmark_entry, load_benchmark
from repro.circuits.netlist import Netlist
from repro.core.patterns import SequenceSet
from repro.experiments.common import ExperimentProfile, as_tuple
from repro.experiments.reporting import format_table
from repro.runner.cache import get_default_cache, netlist_fingerprint
from repro.runner.registry import GridCell
from repro.simulation.rare_nets import RareNet, extract_rare_nets
from repro.trojan.evaluation import sequence_trigger_coverage
from repro.trojan.insertion import sample_sequential_trojans
from repro.trojan.model import (
    SEQUENTIAL_TRIGGER_MODES,
    SequentialTrigger,
    SequentialTrojan,
)

#: Default grid: one mid-size sequential benchmark, two cycle depths, both
#: temporal rules at arity 2 and 3.
DEFAULT_DESIGNS = ("s13207_like",)
DEFAULT_CYCLES = (4, 8)
DEFAULT_MODES = SEQUENTIAL_TRIGGER_MODES
DEFAULT_COUNTS = (2, 3)

#: Rareness threshold for the state-dependent extraction (paper footnote 1).
RARENESS_THRESHOLD = 0.1

#: Option keys this harness accepts (validated by the runner).
OPTIONS = ("designs", "cycles", "modes", "counts")


@dataclass
class SequentialCellResult:
    """Coverage of one (design, cycle depth, temporal rule) grid cell."""

    design: str
    cycles: int
    mode: str
    count: int
    num_rare_nets: int
    num_trojans: int
    num_sequences: int
    condition_fired_percent: float
    coverage_percent: float


def cells(profile: ExperimentProfile, options: dict) -> list[GridCell]:
    """One grid cell per (design, cycle depth, mode, count) combination."""
    designs = as_tuple(options.get("designs", DEFAULT_DESIGNS))
    cycle_depths = as_tuple(options.get("cycles", DEFAULT_CYCLES))
    modes = as_tuple(options.get("modes", DEFAULT_MODES))
    counts = as_tuple(options.get("counts", DEFAULT_COUNTS))
    for design in designs:
        if not benchmark_entry(str(design)).sequential:
            raise ValueError(
                f"design {design!r} is combinational; the sequential harness "
                "needs a benchmark with flip-flops (s13207_like, s15850_like, "
                "s35932_like)"
            )
    for mode in modes:
        if mode not in SEQUENTIAL_TRIGGER_MODES:
            raise ValueError(
                f"mode must be one of {SEQUENTIAL_TRIGGER_MODES}, got {mode!r}"
            )
    grid: list[GridCell] = []
    for design in designs:
        for cycles_ in cycle_depths:
            for mode in modes:
                for count in counts:
                    if int(count) < 1:
                        raise ValueError(f"count must be >= 1, got {count}")
                    grid.append(
                        GridCell(
                            name=f"{design}-c{int(cycles_)}-{mode}-k{int(count)}",
                            params={
                                "design": str(design),
                                "cycles": int(cycles_),
                                "mode": str(mode),
                                "count": int(count),
                            },
                        )
                    )
    return grid


def _rare_nets(netlist: Netlist, cycles: int, profile: ExperimentProfile) -> list[RareNet]:
    """State-dependent rare nets, shared through the artifact cache."""

    def _extract() -> list[RareNet]:
        return extract_rare_nets(
            netlist,
            threshold=RARENESS_THRESHOLD,
            num_patterns=profile.num_probability_patterns,
            seed=profile.seed,
            cycles=cycles,
        )

    cache = get_default_cache()
    if cache is None:
        return _extract()
    return cache.fetch(
        "sequential_rare_nets",
        _extract,
        netlist=netlist_fingerprint(netlist),
        cycles=cycles,
        threshold=RARENESS_THRESHOLD,
        num_sequences=profile.num_probability_patterns,
        seed=profile.seed,
    )


def _trojans(
    netlist: Netlist,
    rare_nets: list[RareNet],
    mode: str,
    count: int,
    profile: ExperimentProfile,
) -> list[SequentialTrojan]:
    """Multi-cycle Trojan population, one per (design, cycles) in the cache.

    ``mode``/``count`` do not change the draw; the cells relabel it.
    """

    def _sample() -> list[SequentialTrojan]:
        return sample_sequential_trojans(
            netlist,
            rare_nets,
            num_trojans=profile.num_trojans,
            trigger_width=profile.trigger_width,
            mode=mode,
            count=count,
            seed=profile.seed + 1,
        )

    cache = get_default_cache()
    if cache is None:
        return _sample()
    population = cache.fetch(
        "sequential_trojans",
        _sample,
        netlist=netlist_fingerprint(netlist),
        rare_nets=[(rare.net, rare.rare_value) for rare in rare_nets],
        num_trojans=profile.num_trojans,
        trigger_width=profile.trigger_width,
        seed=profile.seed + 1,
    )
    return [
        replace(trojan, trigger=replace(trojan.trigger, mode=mode, count=count))
        for trojan in population
    ]


def run_cell(params: dict, profile: ExperimentProfile) -> SequentialCellResult | None:
    """Evaluate one (design, cycles, mode, count) cell (None if no Trojans fit)."""
    design = params["design"]
    cycles = params["cycles"]
    mode = params["mode"]
    count = params["count"]
    netlist = load_benchmark(design, combinational_view=False)
    rare_nets = _rare_nets(netlist, cycles, profile)
    trojans = _trojans(netlist, rare_nets, mode, count, profile)
    if not trojans:
        return None
    sequences = SequenceSet.random(
        netlist,
        num_sequences=profile.k_patterns,
        cycles=cycles,
        seed=profile.seed + 2,
        technique="Random sequences",
    )
    # Single-cycle view of the same conditions: did the bare conjunction fire
    # at least once?  The drop from this column to the temporal coverage is
    # what the full-scan flow cannot measure.  Both populations ride on one
    # clean-netlist simulation by evaluating them in a single batched call.
    single_cycle = [
        SequentialTrojan(
            trigger=SequentialTrigger(
                condition=trojan.trigger.condition, mode=trojan.trigger.mode, count=1
            ),
            payload_output=trojan.payload_output,
            name=trojan.name,
        )
        for trojan in trojans
    ]
    combined = sequence_trigger_coverage(netlist, trojans + single_cycle, sequences)
    detected = combined.detected[: len(trojans)]
    condition_fired = combined.detected[len(trojans):]
    return SequentialCellResult(
        design=design,
        cycles=cycles,
        mode=mode,
        count=count,
        num_rare_nets=len(rare_nets),
        num_trojans=len(trojans),
        num_sequences=len(sequences),
        condition_fired_percent=100.0 * sum(condition_fired) / len(trojans),
        coverage_percent=100.0 * sum(detected) / len(trojans),
    )


def collect(results: list[SequentialCellResult | None]) -> list[SequentialCellResult]:
    """Drop skipped cells, keeping grid order."""
    return [result for result in results if result is not None]


def report(results: list[SequentialCellResult]) -> str:
    """Render the cycle-depth × trigger-arity coverage table."""
    headers = [
        "Design", "Cycles", "Mode", "k", "#rare", "#HT",
        "Sequences", "Cond fired (%)", "Coverage (%)",
    ]
    rows = [
        [
            result.design, result.cycles, result.mode, result.count,
            result.num_rare_nets, result.num_trojans, result.num_sequences,
            round(result.condition_fired_percent, 1),
            round(result.coverage_percent, 1),
        ]
        for result in results
    ]
    table = format_table(headers, rows)
    note = (
        "Multi-cycle trigger coverage of random sequences from reset on the raw\n"
        "sequential netlist; 'Cond fired' is the single-cycle view of the same\n"
        "trigger conditions (the full-scan assumption).  The gap between the two\n"
        "columns is the temporal depth a combinational test flow cannot see."
    )
    return f"{table}\n\n{note}"
