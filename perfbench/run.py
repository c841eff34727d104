"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload seq_detect --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  ``--trace 0`` times the workload through
the entry points users call (``deterrent run``, ``deterrent serve`` + HTTP,
``CdclSolver``) with the package's telemetry off, and reports the
end-to-end metrics: medians over the run's passes of times scaled to a
reference CPU speed by a speed probe running beside each pass.  ``--trace 1`` makes one such pass as the reference,
replays the same inputs in fresh processes with and without spans recorded
around each layer's public functions, and reports the per-layer metrics,
the tracing overhead and the time no phase span covers.

Outputs are checked against ``golden.json`` and work counters must repeat
exactly across passes; the last line of standard output is the result
object, whose ``failed`` counts failed operations (cells, jobs, instances).  The full
result document (samples, counters, environment fingerprint) is written to
``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import workloads
from common import (
    REPO, SRC, SpanRecorder, child_env, fingerprint, median, prepare_parent_process, run_child,
    serial_cpu,
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metric -> unit; every traced run reports all of them (0 where a
#: workload does not reach the layer).
PER_LAYER = {
    "simulation.rare_nets_s": "s",
    "simulation.compile_s": "s",
    "trojan.insertion.sample_s": "s",
    "trojan.evaluation.coverage_s": "s",
    "sat.unroll.build_s": "s",
    "sat.solver.solve_s": "s",
    "sat.solver.decisions": "count",
    "sat.solver.propagations": "count",
    "sat.solver.conflicts": "count",
    "sat.solver.restarts": "count",
    "sat.solver.deleted_clauses": "count",
    "sat.temporal.queries": "count",
    "core.sequence_gen.activatability_s": "s",
    "core.sequence_gen.greedy_sets_s": "s",
    "core.sequence_gen.witness_s": "s",
    "core.sequence_gen.viable_ratio": "ratio",
    "core.sequence_gen.repaired_sets": "count",
    "core.compatibility.build_s": "s",
    "core.agent.train_s": "s",
    "core.agent.episodes": "count",
    "core.patterns.generate_s": "s",
    "runner.execution.cell_s_max": "s",
    "runner.execution.parallel_efficiency": "ratio",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "runner.cache.stores": "count",
    "service.job_latency_p50_s": "s",
    "service.server.submit_s": "s",
    "service.jobs.run_s": "s",
    "service.overhead_s": "s",
    "service.cached_latency_p50_s": "s",
    "service.queue.deliveries": "count",
    "service.queue.reclaims": "count",
    "quality.coverage_pct": "%",
    "quality.test_length": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: Span name -> per-layer time metric.
SPAN_METRICS = {
    "simulation.rare_nets": "simulation.rare_nets_s",
    "simulation.compile": "simulation.compile_s",
    "trojan.insertion.sample": "trojan.insertion.sample_s",
    "trojan.evaluation.coverage": "trojan.evaluation.coverage_s",
    "sat.unroll.build": "sat.unroll.build_s",
    "sat.solver.solve": "sat.solver.solve_s",
    "core.sequence_gen.activatability": "core.sequence_gen.activatability_s",
    "core.sequence_gen.greedy_sets": "core.sequence_gen.greedy_sets_s",
    "core.sequence_gen.witness": "core.sequence_gen.witness_s",
    "core.compatibility.build": "core.compatibility.build_s",
    "core.agent.train": "core.agent.train_s",
    "core.patterns.generate": "core.patterns.generate_s",
}

WORK_ROOT = REPO / ".perfbench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("seq_detect", "comb_flow", "service_mix", "sat_random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=WORK_ROOT / "results",
                        help="where the full result document is written")
    return parser.parse_args(argv)


def timed_run(workload, ctx, inputs, seconds: float) -> dict:
    """Timed passes while another (median-length) pass fits in ``seconds``."""
    started = time.monotonic()
    reps, costs = [], []
    while not reps or (time.monotonic() - started) + median(costs) <= seconds:
        began = time.monotonic()
        reps.append(workload.rep(ctx, inputs, len(reps)))
        costs.append(time.monotonic() - began)
        if not reps[-1].counters:  # the pass itself failed; more passes tell nothing
            break
    checks = []
    if any(rep.counters != reps[0].counters for rep in reps):
        checks.append(f"work counters differ across repeats: {[rep.counters for rep in reps]}")
    metrics = {
        "wall_s": median(rep.wall_s * rep.speed for rep in reps),
        "setup_s": median(rep.setup_s * rep.speed for rep in reps),
        "peak_rss_mb": max(rep.peak_rss_mb for rep in reps),
    }
    return {
        "metrics": metrics,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed_ops for rep in reps),
        "failures": [message for rep in reps for message in rep.failures.values()],
        "checks": checks,
        "reps": [
            {"wall_s": rep.wall_s, "setup_s": rep.setup_s, "peak_rss_mb": rep.peak_rss_mb,
             "speed": rep.speed, "op_s": rep.op_latencies, "counters": rep.counters,
             "quality": rep.quality}
            for rep in reps
        ],
    }


def _replay(ctx, name: str, seed: int, trace: bool) -> dict:
    work = ctx.work / ("replay-traced" if trace else "replay")
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out.json"
    argv = [ctx.python, str(Path(__file__).with_name("inproc.py")), "replay", name,
            "--seed", str(seed), "--work", str(work), "--out", str(out)] + (["--trace"] if trace else [])
    child = run_child(argv, ctx.env, ctx.work, work / "replay.log", cpu=serial_cpu())
    if child.returncode != 0:
        raise RuntimeError(f"replay ({'traced' if trace else 'untraced'}) failed:\n{child.stdout[-2000:]}")
    result = json.loads(out.read_text())
    result["work"] = work
    return result


def traced_run(workload, ctx, inputs, seed: int, results_dir: Path) -> dict:
    """Per-layer metrics from an untraced reference pass and two in-process replays."""
    reference = workload.rep(ctx, inputs, 0)
    failures = dict(reference.failures)
    checks = []
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update({name: value for name, value in reference.counters.items() if name in layer})
    layer["quality.coverage_pct"] = reference.quality.get("coverage_pct", 0.0)
    layer["quality.test_length"] = reference.quality.get("test_length", 0)

    if workload.name == "service_mix":
        recorder = SpanRecorder()
        traced_rep = workload.rep(ctx, inputs, 1, recorder=recorder)
        for op, message in traced_rep.failures.items():
            failures.setdefault(op, message)
        untraced_wall, traced_wall = reference.wall_s, traced_rep.wall_s
        totals = recorder.totals()
        unattributed = traced_wall - recorder.covered(workloads.PHASE_SPANS)
        recorder.export(results_dir / f"{workload.name}-s{seed}-spans.jsonl")
        extra = reference.extra
        layer.update({
            "service.job_latency_p50_s": median(reference.op_latencies),
            "service.server.submit_s": extra["submit_s"],
            "service.jobs.run_s": extra["run_s"],
            "service.overhead_s": extra["overhead_s"],
            "service.cached_latency_p50_s": extra["cached_latency_s"],
            "runner.cache.hits": extra["cache_hits"],
            "runner.cache.misses": extra["cache_misses"],
        })
        if traced_rep.counters != reference.counters:
            checks.append("traced pass work counters differ from the untraced pass")
    else:
        untraced = _replay(ctx, workload.name, seed, trace=False)
        traced = _replay(ctx, workload.name, seed, trace=True)
        untraced_wall, traced_wall = untraced["wall_s"], traced["wall_s"]
        totals, unattributed = traced["span_totals"], traced["unattributed_s"]
        if (traced["work"] / "spans.jsonl").exists():
            shutil.copy(traced["work"] / "spans.jsonl", results_dir / f"{workload.name}-s{seed}-spans.jsonl")
        if workload.name == "sat_random":
            replays = [workload.check_outcomes(ctx, r["outcomes"]) for r in (untraced, traced)]
        elif workload.name == "seq_detect":
            replays = [workload.check_record(ctx, r["record"], r["work"] / "replay-cache")
                       for r in (untraced, traced)]
            layer["sat.temporal.queries"] = traced["temporal_queries"]
            extra = replays[1].extra
            layer["core.sequence_gen.viable_ratio"] = extra["viable"] / max(1, extra["rare"])
            layer["core.sequence_gen.repaired_sets"] = extra["repaired_sets"]
        else:
            replays = [workload.check_record(ctx, r["record"]) for r in (untraced, traced)]
            layer["core.agent.episodes"] = traced["episodes"]
            layer.update(workloads.solver_counters(traced["compat_solver"]))
            golden = ctx.golden.get(workload.name, {}).get("cells", {})
            for design, digest in zip(inputs["designs"], traced["patterns"]):
                if golden.get(design, {}).get("patterns") not in (None, digest):
                    failures.setdefault(design, f"cell {design}: pattern set differs from golden")
        for replay in replays:
            for op, message in replay.failures.items():
                failures.setdefault(op, message)
            shared = set(replay.counters) & set(reference.counters)
            if any(replay.counters[key] != reference.counters[key] for key in shared):
                checks.append(f"replay work counters {replay.counters} differ from the "
                              f"timed pass's {reference.counters}")
        layer.update({name: value for name, value in replays[1].counters.items()
                      if name.startswith("sat.solver.")})
        if workload.name in ("seq_detect", "comb_flow"):
            cells = reference.op_latencies
            jobs = getattr(workload, "jobs", 1)
            layer["runner.execution.cell_s_max"] = max(cells) if cells else 0.0
            layer["runner.execution.parallel_efficiency"] = (
                sum(cells) / (jobs * (reference.wall_s - reference.setup_s)) if cells else 0.0)
    for span_name, metric in SPAN_METRICS.items():
        layer[metric] = totals.get(span_name, 0.0)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.unattributed_s"] = unattributed
    attempted = reference.attempted
    return {
        "metrics": layer,
        "attempted": attempted,
        "failed": attempted if workloads.ALL_OPS in failures else min(len(failures), attempted),
        "failures": list(failures.values()),
        "checks": checks,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "span_totals": totals,
        "setup_s": reference.setup_s,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/repro; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("DETERRENT_")]:
        del os.environ[key]
    os.environ["no_proxy"] = "127.0.0.1,localhost"  # the service client only talks to loopback
    sys.path.insert(0, str(SRC))
    prepare_parent_process()
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    args.results_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(work=work, env=child_env(work), golden=workloads.load_golden())
    workload = workloads.get(args.workload)
    inputs = workload.inputs(args.seed)
    load_start = os.getloadavg()
    try:
        if args.trace:
            result = traced_run(workload, ctx, inputs, args.seed, args.results_dir)
            units = PER_LAYER
        else:
            result = timed_run(workload, ctx, inputs, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = max(1, result["attempted"])
    correct = not result["failed"] and not result["failures"] and not result["checks"]
    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "fingerprint": fingerprint(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "correct": correct,
        **{key: value for key, value in result.items() if key != "metrics"},
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = args.results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(document, indent=1, default=str) + "\n")
    for message in (result["failures"] + result["checks"])[:20]:
        print(f"FAILED: {message}")
    print(f"full result: {path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": document["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
