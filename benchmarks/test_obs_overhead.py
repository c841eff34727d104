"""Telemetry no-op overhead benchmark.

The observability hooks sit on the hottest paths in the repository — the
CDCL propagate/decide loop, the compiled simulation sweep, cache fetches —
so their *disabled* cost matters as much as their enabled fidelity.  The
design contract is that a disabled hook is one attribute load and one
branch (``hot_path`` returns ``None``; ``observe`` returns before touching
the registry; ``span`` yields a shared no-op).  This benchmark runs the solver-only workload with
the obs package imported and telemetry off, asserts the no-op contract
(nothing is recorded), and reports the throughput as
``disabled_telemetry_decisions_per_second`` so
``scripts/check_benchmark_regression.py`` tracks it against the baseline:
if instrumented-but-disabled throughput drifts from the historical
un-instrumented rate, the no-op path got more expensive.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.circuits.library import load_benchmark
from repro.sat.temporal import SequentialJustifier
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.insertion import sample_sequential_trojans

DESIGN = "s13207_like"
CYCLES = 4


@pytest.fixture(scope="module")
def workload():
    netlist = load_benchmark(DESIGN, combinational_view=False)
    rare_nets = extract_rare_nets(
        netlist, threshold=0.1, num_patterns=1024, seed=0, cycles=CYCLES
    )
    trojans = sample_sequential_trojans(
        netlist, rare_nets, num_trojans=8, trigger_width=3,
        mode="cumulative", count=2, seed=1,
    )
    assert trojans, "benchmark needs a multi-cycle Trojan population"
    return netlist, trojans


def test_solver_throughput_with_telemetry_disabled(benchmark, workload, tmp_path):
    netlist, trojans = workload
    obs.disable()
    obs.metrics.reset_registry()
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir(), after.mkdir()
    obs.trace.flush_spans(before)  # drain anything buffered earlier

    def solver_workload():
        justifier = SequentialJustifier(netlist, cycles=CYCLES)
        for trojan in trojans:
            justifier.is_satisfiable(trojan.trigger)
        return justifier.stats()

    solver_workload()  # warm-up outside the timed region
    started = time.perf_counter()
    stats = benchmark.pedantic(solver_workload, rounds=1, iterations=1)
    elapsed = max(time.perf_counter() - started, 1e-9)

    # The no-op contract: disabled telemetry records nothing at all.
    assert obs.metrics.registry().snapshot()["histograms"] == {}
    obs.trace.flush_spans(after)
    assert obs.trace.load_spans(after) == []

    assert stats.decisions > 0
    assert stats.propagations > 0
    benchmark.extra_info["design"] = DESIGN
    benchmark.extra_info["queries"] = len(trojans)
    benchmark.extra_info["decisions"] = stats.decisions
    benchmark.extra_info["disabled_telemetry_decisions_per_second"] = round(
        stats.decisions / elapsed, 1
    )
