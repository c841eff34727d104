"""TestMAX-style ATPG proxy.

The paper compares against Synopsys TestMAX running plain stuck-at ATPG
(``run_atpg`` in the default setting).  Such a tool targets *individual*
faults: it excels at setting one net to a value and propagating it, but it
never tries to satisfy several rare conditions simultaneously, which is why
its trigger coverage in Table 2 is very low.  The proxy reproduces that
behaviour: one SAT justification per rare net (targeting the rare value, which
subsumes the corresponding stuck-at fault's activation condition), followed by
simple pattern compaction.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist import Netlist
from repro.core.patterns import PatternSet
from repro.sat.justify import Justifier
from repro.simulation.compiled import compile_netlist
from repro.simulation.rare_nets import RareNet


def atpg_pattern_set(
    netlist: Netlist,
    rare_nets: list[RareNet],
    compact: bool = True,
) -> PatternSet:
    """One justification pattern per rare net, with optional compaction.

    With ``compact=True`` a new pattern is kept only if it activates at least
    one rare net that no previously kept pattern activates — mimicking the
    test-compaction step of an industrial ATPG flow and keeping the pattern
    count in the same ballpark as TestMAX's (tens to low hundreds).

    The witnesses come from a fresh solver, so the pattern set depends only
    on the netlist and the rare nets, not on queries another caller asked
    earlier.
    """
    justifier = Justifier(netlist)
    assignments: list[dict[str, int]] = []
    targeted: list[str] = []
    for rare in rare_nets:
        witness = justifier.witness({rare.net: rare.rare_value})
        if witness is None:
            continue
        assignments.append(witness)
        targeted.append(rare.net)

    pattern_set = PatternSet.from_assignments(netlist, assignments, technique="ATPG")
    if not compact or len(pattern_set) == 0:
        return pattern_set

    compiled = compile_netlist(netlist)
    # One compiled simulation answers every (pattern, rare net) activation.
    active = compiled.activations(
        pattern_set.patterns, [(rare.net, rare.rare_value) for rare in rare_nets]
    )
    covered = np.zeros(len(rare_nets), dtype=bool)
    keep: list[int] = []
    for index in range(len(pattern_set)):
        newly_covered = active[index] & ~covered
        if newly_covered.any():
            keep.append(index)
            covered |= newly_covered
    return PatternSet(
        sources=pattern_set.sources,
        patterns=pattern_set.patterns[keep],
        technique="ATPG",
        metadata={"targeted_rare_nets": len(targeted)},
    )


__all__ = ["atpg_pattern_set"]
