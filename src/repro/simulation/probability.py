"""Signal-probability estimation.

:func:`estimate_signal_probabilities` is Monte-Carlo estimation by random
logic simulation, matching the paper's flow (step ❶ in Figure 4: "logic
simulations" feed the rareness filter).

For raw sequential circuits,
:func:`estimate_sequential_signal_probabilities` replaces the full-scan
assumption (every flip-flop uniformly random) with the *reached* state
distribution: random input sequences are clocked from reset and activation
counts are aggregated across cycles, so a net that is rare only because the
state machine rarely visits the enabling states is measured as such.
"""

from __future__ import annotations

from repro.circuits.netlist import Netlist
from repro.simulation.compiled import compile_netlist, compile_sequential_netlist
from repro.utils.rng import RngLike


def estimate_signal_probabilities(
    netlist: Netlist,
    num_patterns: int = 4096,
    seed: RngLike = None,
) -> dict[str, float]:
    """Estimate P(net = 1) for every net by simulating random patterns.

    Runs on the compiled engine: the netlist is lowered once (and cached), the
    random words are evaluated matrix-at-once, and the per-net popcounts come
    back as a single vectorised ``bitwise_count``.
    """
    if num_patterns <= 0:
        raise ValueError(f"num_patterns must be positive, got {num_patterns}")
    compiled = compile_netlist(netlist)
    counts = compiled.count_ones(num_patterns, seed=seed)
    return {
        net: int(counts[index]) / num_patterns
        for index, net in enumerate(compiled.net_names)
    }


def estimate_sequential_signal_probabilities(
    netlist: Netlist,
    cycles: int,
    num_sequences: int = 4096,
    seed: RngLike = None,
) -> dict[str, float]:
    """Estimate state-dependent P(net = 1) on a raw sequential netlist.

    ``num_sequences`` random input sequences of length ``cycles`` are stepped
    from the all-zero reset state on the multi-cycle compiled engine; each
    net's probability is its 1-count aggregated over **all** cycles divided by
    ``num_sequences * cycles``.  Flip-flop Q nets therefore reflect the state
    distribution the machine actually reaches within ``cycles`` clocks of
    reset — typically far more biased than the uniform pseudo-input
    assumption of the full-scan view.
    """
    if num_sequences <= 0:
        raise ValueError(f"num_sequences must be positive, got {num_sequences}")
    compiled = compile_sequential_netlist(netlist)
    counts = compiled.count_ones_per_cycle(num_sequences, cycles, seed=seed)
    total = num_sequences * cycles
    aggregated = counts.sum(axis=0)
    return {
        net: int(aggregated[index]) / total
        for index, net in enumerate(compiled.net_names)
    }


__all__ = [
    "estimate_signal_probabilities",
    "estimate_sequential_signal_probabilities",
]
