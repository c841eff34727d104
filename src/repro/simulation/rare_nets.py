"""Rare-net extraction.

A net is *rare* at threshold ``theta`` when the probability of it taking one
of its logic values under random stimuli is below ``theta`` (footnote 1 of the
paper).  The value it is biased *against* is its **rare value** — the value a
Trojan trigger would require it to take.

Rare nets are the action space of the DETERRENT agent and the sampling space
for Trojan trigger insertion, so this module is the interface between the
circuit substrate and everything above it.  Probability estimation runs on
the compiled simulation engine (:mod:`repro.simulation.compiled`), so
repeated extractions on the same netlist reuse one compiled artefact.

Passing ``cycles=N`` switches to *state-dependent* extraction on a raw
sequential netlist: activation counts are aggregated over ``N`` clock cycles
of random input sequences stepped from reset, so rareness reflects the state
distribution the machine actually reaches rather than the full-scan
assumption that every flip-flop is uniformly random.  Flip-flop Q nets are
legitimate rare nets in this mode (state bits are exactly where sequential
Trojans hide their triggers); only primary inputs stay excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import Netlist
from repro.simulation.probability import (
    estimate_sequential_signal_probabilities,
    estimate_signal_probabilities,
)
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class RareNet:
    """A rare net: the net name, its rare value, and that value's probability."""

    net: str
    rare_value: int
    probability: float

    def __post_init__(self) -> None:
        if self.rare_value not in (0, 1):
            raise ValueError(f"rare_value must be 0 or 1, got {self.rare_value}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


def extract_rare_nets(
    netlist: Netlist,
    threshold: float = 0.1,
    num_patterns: int = 4096,
    seed: RngLike = None,
    probabilities: dict[str, float] | None = None,
    exclude_sources: bool = True,
    cycles: int | None = None,
) -> list[RareNet]:
    """Identify rare nets of ``netlist`` at ``threshold``.

    Args:
        netlist: combinational (or full-scan converted) netlist — or, with
            ``cycles`` set, a raw sequential netlist.
        threshold: rareness threshold; a net is rare if min(P(0), P(1)) < threshold.
        num_patterns: random patterns (or, with ``cycles``, random input
            *sequences*) used for probability estimation when
            ``probabilities`` is not supplied.
        seed: RNG seed for the probability estimation.
        probabilities: optional precomputed P(net = 1) mapping.
        exclude_sources: drop primary/pseudo inputs (they are trivially
            controllable and never used as trigger nets).  With ``cycles``,
            flip-flop Q nets are *kept*: state bits are not directly
            controllable in the sequential view, so state-dependent rareness
            on them is meaningful.
        cycles: when set, use state-dependent extraction — aggregate per-cycle
            activation counts over ``cycles`` clock cycles of random sequences
            stepped from reset (requires a sequential netlist).

    Returns:
        Rare nets sorted by ascending probability then name (most biased first).

    A zero estimated probability over a finite sample does not prove the rare
    value is unreachable, so such nets are kept; the SAT-based compatibility
    analysis is the authoritative filter for truly constant (redundant) nets.
    """
    if not 0.0 < threshold <= 0.5:
        raise ValueError(f"threshold must be in (0, 0.5], got {threshold}")
    if cycles is not None:
        if not netlist.is_sequential:
            raise ValueError(
                "cycles-based extraction requires a sequential netlist; "
                f"{netlist.name!r} has no flip-flops"
            )
        if probabilities is None:
            probabilities = estimate_sequential_signal_probabilities(
                netlist, cycles=cycles, num_sequences=num_patterns, seed=seed
            )
        sources = set(netlist.inputs) if exclude_sources else set()
    else:
        if probabilities is None:
            probabilities = estimate_signal_probabilities(netlist, num_patterns, seed=seed)
        sources = set(netlist.combinational_sources()) if exclude_sources else set()
    rare: list[RareNet] = []
    for net, p_one in probabilities.items():
        if net in sources:
            continue
        p_zero = 1.0 - p_one
        rare_value, rare_probability = (1, p_one) if p_one < p_zero else (0, p_zero)
        if rare_probability < threshold:
            rare.append(RareNet(net=net, rare_value=rare_value, probability=rare_probability))
    rare.sort(key=lambda item: (item.probability, item.net))
    return rare


__all__ = ["RareNet", "extract_rare_nets"]
