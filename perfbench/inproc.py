"""Child-process side of the benchmark: in-process replays and SAT solving.

Run by ``run.py`` in fresh interpreters, never imported by it::

    python3 perfbench/inproc.py replay <workload> --seed N --work DIR --out FILE [--trace]
    python3 perfbench/inproc.py satsolve --order 3,0,... --out FILE
    python3 perfbench/inproc.py probe --interval SECONDS

``replay`` re-runs a workload's inputs serially in this process, optionally
with spans recorded around each layer's public functions, and writes
outputs, counters and span totals as JSON.  ``satsolve`` is the sat_random
timed path.  ``probe`` prints one ``common.spin()`` sample per line until
it is terminated (see ``common.SpeedProbe``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import workloads  # perfbench/ is on sys.path as the script directory
from common import SpanRecorder, spin


# ----------------------------------------------------------------------
# SAT solving (the sat_random timed path)
# ----------------------------------------------------------------------
def solve_pool(instances: list[dict], order: list[int],
               recorder: SpanRecorder | None = None) -> list[dict]:
    """Build and solve each pool instance with a fresh default-config ``CdclSolver``."""
    from repro.sat.solver import CdclSolver

    outcomes = []
    for index in order:
        instance = instances[index]
        started = time.perf_counter()
        if recorder is None:
            solver = CdclSolver()
            for clause in instance["clauses"]:
                solver.add_clause(clause)
            result = solver.solve()
        else:
            with recorder.span("sat.solver.build"):
                solver = CdclSolver()
                for clause in instance["clauses"]:
                    solver.add_clause(clause)
            with recorder.span("sat.solver.solve"):
                result = solver.solve()
        seconds = time.perf_counter() - started
        model = sorted(v for v, value in (result.model or {}).items() if value)
        outcomes.append({
            "index": index, "name": instance["name"], "satisfiable": result.satisfiable,
            "true_vars": model if result.satisfiable else None, "seconds": seconds,
            "stats": solver.stats().as_dict(),
        })
    return outcomes


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def _digest(array) -> str:
    import numpy as np

    data = np.ascontiguousarray(array, dtype=np.uint8)
    return hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest()


def _instrument(recorder: SpanRecorder, captured: dict) -> None:
    """Wrap each layer's public entry points with spans (and capture a few results)."""
    from repro.core import agent, compatibility, patterns, sequence_gen
    from repro.experiments import pipeline_run, sequential_detect
    from repro.sat.solver import CdclSolver
    from repro.sat.temporal import SequentialJustifier
    from repro.sat.unroll import TimeFrameExpansion
    from repro.simulation import compiled, rare_nets
    from repro.trojan import evaluation, insertion

    for function, name in (
        (rare_nets.extract_rare_nets, "simulation.rare_nets"),
        (insertion.sample_trojans, "trojan.insertion.sample"),
        (insertion.sample_sequential_trojans, "trojan.insertion.sample"),
        (evaluation.trigger_coverage, "trojan.evaluation.coverage"),
        (evaluation.sequence_trigger_coverage, "trojan.evaluation.coverage"),
        (sequence_gen.temporal_activatability, "core.sequence_gen.activatability"),
        (sequence_gen.greedy_compatible_sets, "core.sequence_gen.greedy_sets"),
        (sequence_gen.sequence_witness_with_repair, "core.sequence_gen.witness"),
        (sequential_detect.run_cell, "runner.cell"),
        (pipeline_run.run_cell, "runner.cell"),
    ):
        recorder.wrap_function(function, name)
    recorder.wrap_function(
        compatibility.compute_compatibility, "core.compatibility.build",
        on_return=captured["analyses"].append,
    )
    recorder.wrap_function(
        patterns.generate_patterns, "core.patterns.generate",
        on_return=lambda result: captured["patterns"].append(_digest(result.patterns)),
    )
    recorder.wrap_method(compiled.CompiledNetlist, "__init__", "simulation.compile")
    recorder.wrap_method(compiled.CompiledSequentialNetlist, "__init__", "simulation.compile")
    recorder.wrap_method(TimeFrameExpansion, "__init__", "sat.unroll.build")
    recorder.wrap_method(TimeFrameExpansion, "extend_to", "sat.unroll.build")
    recorder.wrap_method(CdclSolver, "solve", "sat.solver.solve")
    recorder.wrap_method(
        SequentialJustifier, "__init__", "sat.temporal.init",
        on_call=lambda args: captured["justifiers"].append(args[0]),
    )
    recorder.wrap_method(
        agent.DeterrentAgent, "train", "core.agent.train",
        on_return=lambda result: captured["episodes"].append(result.summary.total_episodes),
    )


def replay(workload: str, seed: int, work: Path, trace: bool) -> dict:
    spec = workloads.get(workload)
    inputs = spec.inputs(seed)
    recorder = SpanRecorder() if trace else None
    captured: dict = {"patterns": [], "justifiers": [], "episodes": [], "analyses": []}
    if workload == "sat_random":
        instances = spec.pool["instances"]
        started = time.perf_counter()
        outcomes = solve_pool(instances, inputs["order"], recorder)
        wall = time.perf_counter() - started
        return {"wall_s": wall, "outcomes": outcomes, **_span_summary(recorder, wall)}

    from repro.runner.execution import run_experiment

    experiment, profile, options = spec.replay_call(inputs)
    if recorder is not None:
        _instrument(recorder, captured)
    started = time.perf_counter()
    try:
        run = run_experiment(
            experiment, profile=profile, jobs=1, options=options,
            cache_dir=work / "replay-cache", results_dir=work / "replay-results",
        )
    finally:
        wall = time.perf_counter() - started
        if recorder is not None:
            recorder.restore()
    record = json.loads(json.dumps(run.record(), default=str))
    out = {"wall_s": wall, "record": record}
    if recorder is not None:
        out.update(_span_summary(recorder, wall))
        out["patterns"] = captured["patterns"]
        out["episodes"] = sum(captured["episodes"])
        out["temporal_queries"] = sum(j.num_queries for j in captured["justifiers"])
        out["compat_solver"] = workloads.sum_counters(
            analysis.justifier.stats().as_dict() for analysis in captured["analyses"]
        )
        recorder.export(work / "spans.jsonl")
    return out


def _span_summary(recorder: SpanRecorder | None, wall: float) -> dict:
    if recorder is None:
        return {}
    return {
        "span_totals": recorder.totals(),
        "unattributed_s": wall - recorder.covered(workloads.PHASE_SPANS),
        "num_spans": len(recorder.spans),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="inproc.py")
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("replay")
    rep.add_argument("workload")
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--work", type=Path, required=True)
    rep.add_argument("--out", type=Path, required=True)
    rep.add_argument("--trace", action="store_true")
    probe = sub.add_parser("probe")
    probe.add_argument("--interval", type=float, required=True)
    solve = sub.add_parser("satsolve")
    solve.add_argument("--order", required=True)
    solve.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "probe":
        while True:
            print(f"{spin():.9f}", flush=True)
            time.sleep(args.interval)
    elif args.command == "replay":
        args.out.write_text(json.dumps(replay(args.workload, args.seed, args.work, args.trace)))
    else:
        from satgen import load_pool

        order = [int(part) for part in args.order.split(",")]
        args.out.write_text(json.dumps(solve_pool(load_pool()["instances"], order)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
