"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload runs a fixed set of operations (grid cells, service jobs or
SAT instances); the seed decides only the order they are issued in.  The
amount of work is therefore the same for every seed, which is what keeps
run-to-run spread small enough to resolve a regression: fresh random
instances at the same size vary total solve time by about +-30%.  Because
the work is fixed, every work counter (solver decisions, cache hits, queue
deliveries) must repeat exactly across the passes of a run, and outputs
(coverage, test length, sequence/pattern sets, verdicts, models) can be
compared against the goldens recorded from the seed code in ``golden.json``.
Work counters are never compared with a golden: a change that does less
work for the same outputs is correct.

A failure is recorded against the operation it belongs to (a cell name, a
job key, an instance name), or against ``ALL_OPS`` when the whole pass
failed, so ``failed`` counts operations, not messages.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    HERE, Child, SpeedProbe, all_cpus, median, reap_orphans, run_child, serial_cpu,
)

GOLDEN_PATH = HERE / "golden.json"

SEQ_CYCLES = (4, 8)
SEQ_MODES = ("consecutive", "cumulative")
SEQ_COUNTS = (2, 3)
COMB_DESIGNS = ("c6288_like", "mips16_like")
SERVICE_DESIGNS = ("s13207_like", "s15850_like")
SERVICE_JOBS = tuple(
    (design, cycles, mode, count)
    for design in SERVICE_DESIGNS
    for cycles in (3, 4)
    for mode in SEQ_MODES
    for count in (2, 3)
)
#: Fresh jobs the service_mix client keeps in flight (closed loop).
SERVICE_OUTSTANDING = 2
#: Already-finished jobs resubmitted after each fresh completion.  A chosen
#: parameter, not a measured traffic mix (no record of real service traffic
#: exists): two cached answers per fresh job make the read path (cache-hit
#: answers) as visible in ``wall_s`` as the write path (enqueue, lease,
#: result store) while fresh jobs still dominate the pass's time.
SERVICE_RESUBMITS = 2
SERVICE_POLL_S = 0.02
#: A pass whose jobs have not all finished by then fails (keeps a run under 180 s).
SERVICE_DEADLINE_S = 90.0

#: Span names that count as attributed time (the phases a run is split into).
PHASE_SPANS = (
    "simulation.rare_nets", "simulation.compile", "trojan.insertion.sample",
    "trojan.evaluation.coverage", "sat.unroll.build", "sat.solver.build",
    "sat.solver.solve", "core.sequence_gen.activatability",
    "core.sequence_gen.greedy_sets", "core.sequence_gen.witness",
    "core.compatibility.build", "core.agent.train", "core.patterns.generate",
    "service.submit", "service.poll", "service.resubmit", "service.job",
)

SOLVER_COUNTERS = ("decisions", "propagations", "conflicts", "restarts", "deleted_clauses")

#: Failure key meaning "every operation of the pass failed".
ALL_OPS = "*"


@dataclass
class Context:
    """Where a run works and what it compares against."""

    work: Path
    env: dict
    golden: dict
    python: str = sys.executable


@dataclass
class Rep:
    """One timed pass over a workload's operations."""

    wall_s: float
    peak_rss_mb: float
    op_latencies: list[float]
    attempted: int
    #: Operation -> first failure message (``ALL_OPS``: the whole pass failed).
    failures: dict[str, str] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: Seconds of the timed process spent outside its operations.
    setup_s: float = 0.0
    #: Speed probe factor over the pass: multiply a measured time by it for
    #: the time at the reference speed (``common.SpeedProbe``).
    speed: float = 1.0

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, message)

    @property
    def failed_ops(self) -> int:
        return self.attempted if ALL_OPS in self.failures else min(len(self.failures), self.attempted)


def sha(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def sum_counters(dicts) -> dict:
    total: dict = {}
    for item in dicts:
        for key, value in (item or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
    return total


def solver_counters(stats: dict) -> dict:
    return {f"sat.solver.{key}": int(stats.get(key, 0)) for key in SOLVER_COUNTERS}


def compare_outputs(outputs: dict, golden: dict, what: str) -> dict[str, str]:
    """Operation -> failure, for each operation whose outputs differ from (or lack) a golden."""
    failures = {}
    for key, value in outputs.items():
        if key not in golden:
            failures[key] = f"{what} {key}: no golden output"
        elif value != golden[key]:
            diff = sorted(k for k in set(value) | set(golden[key]) if value.get(k) != golden[key].get(k))
            failures[key] = f"{what} {key}: output differs from golden in {diff}"
    return failures


def without_solver_stats(result: dict) -> dict:
    """A cell result without its solver counters (work, not output)."""
    return {key: value for key, value in result.items() if key != "solver_stats"}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


# ----------------------------------------------------------------------
# Helpers over the package (imported lazily: run.py must start without it)
# ----------------------------------------------------------------------
def sequence_outputs(cache_dir: Path, cells: list[dict]) -> dict:
    """Per-cell digest and set metadata of the emitted SAT-guided sequence sets.

    Loaded through the harness's own ``test_set`` hook from the run's
    artifact cache; a cache miss here would mean the run did not store what
    it emitted, so ``stored`` is false and the caller fails that cell.
    """
    import numpy as np

    from repro.experiments import sequential_detect
    from repro.experiments.common import TINY
    from repro.runner.cache import ArtifactCache, get_default_cache, set_default_cache

    previous = get_default_cache()
    cache = set_default_cache(ArtifactCache(cache_dir))
    try:
        out = {}
        for cell in cells:
            misses = cache.stats_snapshot()["session"].get("misses", 0)
            sequences = sequential_detect.test_set(cell["params"], TINY)
            data = np.ascontiguousarray(sequences.sequences, dtype=np.uint8)
            sets = sequences.metadata.get("sets", [])
            sizes = sequences.metadata.get("set_sizes", [])
            out[cell["cell"]] = {
                "digest": hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest(),
                "repaired_sets": sum(1 for s, n in zip(sets, sizes) if n < len(s)),
                "stored": cache.stats_snapshot()["session"].get("misses", 0) == misses,
            }
        return out
    finally:
        set_default_cache(previous)


def _cli_pass(ctx: Context, index: int, run_args: list[str], record_name: str,
              expected: int, check, serial: bool) -> Rep:
    """One timed ``deterrent run`` on a cold cache; ``check(record, cache_dir)`` scores it.

    Set-up is the process's time outside the run's own timer (the record's
    ``elapsed_seconds``): interpreter start, imports, argument parsing,
    building the grid, and writing the results at exit.  A ``serial`` run
    shares one CPU with its speed probe; otherwise every CPU is probed.
    """
    cache, results = ctx.work / f"cache-{index}", ctx.work / f"results-{index}"
    argv = [ctx.python, "-m", "repro", "run", *run_args,
            "--cache-dir", str(cache), "--results-dir", str(results)]
    cpu = serial_cpu() if serial else None
    with SpeedProbe([cpu] if serial else all_cpus(), ctx.env, ctx.work, ctx.work) as probe:
        child = run_child(argv, ctx.env, ctx.work, ctx.work / f"rep-{index}.log", cpu=cpu)
    try:
        if child.returncode != 0:
            return Rep(child.wall_s, child.peak_rss_mb, [], expected,
                       {ALL_OPS: f"deterrent run exited {child.returncode}: {child.stdout[-1500:]}"})
        record = json.loads((results / record_name).read_text())
        rep = check(record, cache)
        rep.wall_s, rep.peak_rss_mb, rep.speed = child.wall_s, child.peak_rss_mb, probe.factor
        rep.setup_s = child.wall_s - record["elapsed_seconds"]
        return rep
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(results, ignore_errors=True)


# ----------------------------------------------------------------------
# seq_detect: deterrent run sequential_detect --profile tiny --jobs 1
# ----------------------------------------------------------------------
class SeqDetect:
    name = "seq_detect"

    def __init__(self, cycles=SEQ_CYCLES, modes=SEQ_MODES, counts=SEQ_COUNTS) -> None:
        self.grid = {"cycles": list(cycles), "modes": list(modes), "counts": list(counts)}

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {key: rng.sample(values, len(values)) for key, values in self.grid.items()}

    def replay_call(self, inputs: dict):
        return "sequential_detect", "tiny", dict(inputs)

    @property
    def num_cells(self) -> int:
        return len(self.grid["cycles"]) * len(self.grid["modes"]) * len(self.grid["counts"])

    def rep(self, ctx: Context, inputs: dict, index: int) -> Rep:
        args = ["sequential_detect", "--profile", "tiny", "--jobs", "1"]
        for key, values in inputs.items():
            args += ["--set", f"{key}={json.dumps(values)}"]
        return _cli_pass(ctx, index, args, "sequential_detect-tiny.json", self.num_cells,
                         lambda record, cache: self.check_record(ctx, record, cache), serial=True)

    def check_record(self, ctx: Context, record: dict, cache: Path) -> Rep:
        """Outputs, counters and quality of one run record (CLI or replay)."""
        cells = record["cells"]
        sequences = sequence_outputs(cache, cells)
        outputs = {
            cell["cell"]: {"result": without_solver_stats(cell["result"]),
                           "sequences": sequences[cell["cell"]]["digest"]}
            for cell in cells
        }
        failures = compare_outputs(outputs, ctx.golden.get(self.name, {}).get("cells", {}), "cell")
        for cell in cells:
            if not sequences[cell["cell"]]["stored"]:
                failures.setdefault(cell["cell"], f"cell {cell['cell']}: emitted sequence set "
                                                  "not in the run's artifact cache")
        for missing in range(len(cells), self.num_cells):
            failures[f"missing-{missing}"] = "cell skipped or missing from the run record"
        solver = sum_counters(cell["result"].get("solver_stats") for cell in cells)
        counters = {**solver_counters(solver), **{
            f"runner.cache.{key}": record["cache_stats"][key] for key in ("hits", "misses", "stores")
        }}
        results = [cell["result"] for cell in cells]
        return Rep(
            wall_s=0.0, peak_rss_mb=0.0,
            op_latencies=[cell["elapsed_seconds"] for cell in cells],
            attempted=self.num_cells, failures=failures, counters=counters,
            quality={
                "coverage_pct": sum(r["sat_coverage_percent"] for r in results) / max(1, len(results)),
                "test_length": sum(r["num_sat_sequences"] for r in results),
            },
            extra={
                "outputs": outputs,
                "viable": sum(r["num_viable"] for r in results),
                "rare": sum(r["num_rare_nets"] for r in results),
                "repaired_sets": sum(sequences[c["cell"]]["repaired_sets"] for c in cells),
            },
        )


# ----------------------------------------------------------------------
# comb_flow: deterrent run pipeline --profile quick --jobs 2 (two designs)
# ----------------------------------------------------------------------
class CombFlow:
    name = "comb_flow"
    jobs = 2

    def __init__(self, designs=COMB_DESIGNS) -> None:
        self.designs = list(designs)

    def inputs(self, seed: int) -> dict:
        return {"designs": random.Random(seed).sample(self.designs, len(self.designs))}

    def replay_call(self, inputs: dict):
        return "pipeline", "quick", dict(inputs)

    def rep(self, ctx: Context, inputs: dict, index: int) -> Rep:
        args = ["pipeline", "--profile", "quick", "--jobs", str(self.jobs),
                "--set", f"designs={json.dumps(inputs['designs'])}"]
        return _cli_pass(ctx, index, args, "pipeline-quick.json", len(self.designs),
                         lambda record, cache: self.check_record(ctx, record), serial=False)

    def check_record(self, ctx: Context, record: dict) -> Rep:
        cells = record["cells"]
        outputs = {
            cell["cell"]: {"result": {k: v for k, v in cell["result"].items() if k != "timings"}}
            for cell in cells
        }
        golden = ctx.golden.get(self.name, {})
        failures = compare_outputs(
            outputs, {k: {"result": v["result"]} for k, v in golden.get("cells", {}).items()}, "cell"
        )
        for missing in range(len(cells), len(self.designs)):
            failures[f"missing-{missing}"] = "cell missing from the run record"
        counters = {f"runner.cache.{key}": record["cache_stats"][key]
                    for key in ("hits", "misses", "stores")}
        results = [cell["result"] for cell in cells]
        return Rep(
            wall_s=0.0, peak_rss_mb=0.0,
            op_latencies=[cell["elapsed_seconds"] for cell in cells],
            attempted=len(self.designs), failures=failures, counters=counters,
            quality={
                "coverage_pct": sum(r["coverage_percent"] for r in results) / max(1, len(results)),
                "test_length": sum(r["test_length"] for r in results),
            },
            extra={"outputs": outputs},
        )


# ----------------------------------------------------------------------
# service_mix: deterrent serve --workers 2 + a closed-loop HTTP client
# ----------------------------------------------------------------------
def job_key(job) -> str:
    design, cycles, mode, count = job
    return f"{design}-c{cycles}-{mode}-k{count}"


def job_payload(job, bench: str) -> dict:
    _, cycles, mode, count = job
    return {
        "experiment": "sequential_detect", "profile": "tiny", "bench": bench,
        "options": {"cycles": [cycles], "modes": [mode], "counts": [count]},
    }


def job_outputs(record: dict) -> dict:
    """The outputs of a job record (no timings, no solver counters), as digests."""
    report = record["report"].split("\n\nAggregate solver stats", 1)[0]
    return {
        "report": sha(report),
        "cells": sha([{"cell": c["cell"], "params": c["params"],
                       "result": without_solver_stats(c["result"])} for c in record["cells"]]),
        "test_sets": sha(record.get("test_sets")),
    }


class _Server:
    """``deterrent serve --workers 2`` on a fresh queue and cache directory."""

    def __init__(self, ctx: Context, tag: str) -> None:
        self.root = ctx.work / f"service-{tag}"
        self.child = Child(
            [ctx.python, "-m", "repro", "serve", "--queue-dir", str(self.root / "queue"),
             "--cache-dir", str(self.root / "cache"), "--port", "0", "--workers", "2"],
            ctx.env, ctx.work, ctx.work / f"serve-{tag}.log", new_session=True,
        )
        self.base = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until /healthz reports both workers alive."""
        from repro.service.server import http_json

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.base is None:
                for line in self.child.log.read_text().splitlines():
                    if "listening on http://" in line:
                        self.base = line.split("listening on ", 1)[1].strip()
            if self.base is not None:
                try:
                    status, body = http_json(f"{self.base}/healthz", timeout=2)
                except OSError:
                    status, body = 0, {}
                if status == 200 and body.get("workers_alive") == 2:
                    return time.monotonic() - self.child.started
            if self.child.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not become ready:\n{self.child.log.read_text()[-2000:]}")

    def stop(self) -> float:
        """Interrupt the server, wait for it and every worker; return the peak RSS (MiB)."""
        self.child.signal(signal.SIGINT)
        result = self.child.wait(15)
        peak = max(result.peak_rss_mb, reap_orphans())
        shutil.rmtree(self.root, ignore_errors=True)
        return peak


class ServiceMix:
    name = "service_mix"

    def __init__(self, jobs=SERVICE_JOBS) -> None:
        self.jobs = list(jobs)
        self._benches: dict[str, str] = {}

    def inputs(self, seed: int) -> dict:
        # Fresh jobs go out in one fixed order: with two in flight, the order
        # decides how jobs of 0.1-1.4 s pack onto the two workers, and
        # seeded orders moved the pass time by up to 10%.  The seed picks
        # the resubmitted jobs.
        return {"resubmit_seed": random.Random(seed).randrange(2**31)}

    def _bench(self, design: str) -> str:
        if design not in self._benches:
            from repro.circuits.bench_io import dumps_bench
            from repro.circuits.library import load_benchmark

            self._benches[design] = dumps_bench(load_benchmark(design, combinational_view=False))
        return self._benches[design]

    def rep(self, ctx: Context, inputs: dict, index: int, recorder=None) -> Rep:
        for design in {job[0] for job in self.jobs}:
            self._bench(design)
        server = _Server(ctx, str(index))
        try:
            # The probes end before the server stops: stopping reaps every child.
            with SpeedProbe(all_cpus(), ctx.env, ctx.work, ctx.work) as probe:
                ready = server.wait_ready()
                rep = self._traffic(ctx, server.base, inputs, recorder)
            rep.setup_s, rep.speed = ready, probe.factor
        except Exception as error:  # noqa: BLE001 - any client failure fails the pass
            rep = Rep(0.0, 0.0, [], len(self.jobs), {ALL_OPS: f"service traffic failed: {error!r}"})
        finally:
            peak = server.stop()
        rep.peak_rss_mb = peak
        return rep

    def _traffic(self, ctx: Context, base: str, inputs: dict, recorder) -> Rep:
        from repro.service.server import http_json

        def call(span_name, url, payload=None):
            if recorder is None:
                return http_json(url, payload)
            with recorder.span(span_name):
                return http_json(url, payload)

        golden = ctx.golden.get(self.name, {}).get("jobs", {})
        rng = random.Random(inputs["resubmit_seed"])
        pending = list(self.jobs)
        inflight: dict[str, tuple] = {}
        finished: list[tuple] = []
        records: dict[str, dict] = {}
        failures: dict[str, str] = {}
        latencies, cached, submits, run_s, overhead = [], [], [], [], []
        attempted = 0
        started = time.perf_counter()
        while pending or inflight:
            if time.perf_counter() - started > SERVICE_DEADLINE_S:
                raise RuntimeError(f"{len(inflight)} job(s) still in flight after {SERVICE_DEADLINE_S}s")
            while pending and len(inflight) < SERVICE_OUTSTANDING:
                job = pending.pop(0)
                attempted += 1
                sent = time.perf_counter()
                status, body = call("service.submit", f"{base}/jobs", job_payload(job, self._bench(job[0])))
                submits.append(time.perf_counter() - sent)
                if status != 202 or body.get("cached"):
                    failures[job_key(job)] = f"{job_key(job)}: fresh submit answered {status} {body.get('status')}"
                    continue
                inflight[body["job_id"]] = (job, sent)
            time.sleep(SERVICE_POLL_S)
            for job_id, (job, sent) in list(inflight.items()):
                status, body = call("service.poll", f"{base}/jobs/{job_id}")
                state = body.get("status")
                if status == 200 and state in ("queued", "leased"):
                    continue
                del inflight[job_id]
                if recorder is not None:
                    recorder.add("service.job", sent, time.perf_counter(), key=job_key(job))
                if status != 200 or state != "done":
                    failures[job_key(job)] = f"{job_key(job)}: job ended {status} {state} {body.get('error')}"
                    continue
                latency = time.perf_counter() - sent
                latencies.append(latency)
                record = body["result"]
                run_s.append(record["elapsed_seconds"])
                overhead.append(latency - record["elapsed_seconds"])
                records[job_key(job)] = record
                outputs = {job_key(job): job_outputs(record)}
                failures.update(compare_outputs(outputs, golden, "job"))
                finished.append(job)
                for again in (rng.choice(finished) for _ in range(SERVICE_RESUBMITS)):
                    attempted += 1
                    sent = time.perf_counter()
                    status, body = call("service.resubmit", f"{base}/jobs",
                                        job_payload(again, self._bench(again[0])))
                    cached.append(time.perf_counter() - sent)
                    op = f"resubmit-{len(cached)}"
                    if status != 200 or not body.get("cached"):
                        failures[op] = f"{job_key(again)}: resubmit answered {status}, not 200 cached"
                    elif body.get("result") != records[job_key(again)]:
                        failures[op] = f"{job_key(again)}: cached answer differs from the fresh record"
        wall = time.perf_counter() - started
        _, metrics = http_json(f"{base}/metrics")
        lifetime = metrics.get("cache", {}).get("lifetime", {})
        results = [cell["result"] for record in records.values() for cell in record["cells"]]
        queue = metrics.get("queue", {})
        return Rep(
            wall_s=wall, peak_rss_mb=0.0, op_latencies=latencies, attempted=attempted,
            failures=failures,
            # Cache hits and misses are left out: a status poll that lands
            # between the worker storing its record and acking the lease is
            # answered from the cache, and concurrent workers racing for one
            # artifact count their lookups differently, so both depend on
            # timing.  Stores happen once per artifact either way.
            counters={
                **solver_counters(metrics.get("solver", {})),
                "runner.cache.stores": int(lifetime.get("stores", 0)),
                "service.queue.deliveries": int(queue.get("done", 0)) + int(queue.get("reclaims", 0)),
                "service.queue.reclaims": int(queue.get("reclaims", 0)),
            },
            quality={
                "coverage_pct": sum(r["sat_coverage_percent"] for r in results) / max(1, len(results)),
                "test_length": sum(r["num_sat_sequences"] for r in results),
            },
            extra={
                "submit_s": median(submits) if submits else 0.0,
                "run_s": median(run_s) if run_s else 0.0,
                "overhead_s": median(overhead) if overhead else 0.0,
                "cached_latency_s": median(cached) if cached else 0.0,
                "cached_samples": len(cached),
                "cache_hits": int(lifetime.get("hits", 0)),
                "cache_misses": int(lifetime.get("misses", 0)),
            },
        )


# ----------------------------------------------------------------------
# sat_random: default-config CdclSolver on the committed SAT/UNSAT pool
# ----------------------------------------------------------------------
class SatRandom:
    name = "sat_random"

    def __init__(self, indices=None) -> None:
        from satgen import load_pool

        self.pool = load_pool()
        count = len(self.pool["instances"])
        self.indices = list(range(count)) if indices is None else list(indices)

    def inputs(self, seed: int) -> dict:
        return {"order": random.Random(seed).sample(self.indices, len(self.indices))}

    def rep(self, ctx: Context, inputs: dict, index: int) -> Rep:
        out = ctx.work / f"solve-{index}.json"
        cpu = serial_cpu()
        with SpeedProbe([cpu], ctx.env, ctx.work, ctx.work) as probe:
            child = run_child(
                [ctx.python, str(HERE / "inproc.py"), "satsolve",
                 "--order", ",".join(map(str, inputs["order"])), "--out", str(out)],
                ctx.env, ctx.work, ctx.work / f"rep-{index}.log", cpu=cpu,
            )
        if child.returncode != 0:
            return Rep(child.wall_s, child.peak_rss_mb, [], len(inputs["order"]),
                       {ALL_OPS: f"solver process exited {child.returncode}: {child.stdout[-1500:]}"})
        rep = self.check_outcomes(ctx, json.loads(out.read_text()))
        rep.wall_s, rep.peak_rss_mb, rep.speed = child.wall_s, child.peak_rss_mb, probe.factor
        # Interpreter start, imports, loading the pool, writing the outcomes.
        rep.setup_s = child.wall_s - sum(rep.op_latencies)
        return rep

    def check_outcomes(self, ctx: Context, outcomes: list[dict]) -> Rep:
        """Verdicts against generation labels; SAT models checked clause by clause here."""
        from satgen import satisfies

        instances = self.pool["instances"]
        failures = {}
        if ctx.golden.get(self.name, {}).get("pool_digest") not in (None, self.pool["digest"]):
            failures[ALL_OPS] = "instance pool differs from the one the goldens were recorded on"
        for outcome in outcomes:
            instance = instances[outcome["index"]]
            want_sat = instance["label"] == "sat"
            if outcome["satisfiable"] != want_sat:
                failures[instance["name"]] = f"{instance['name']}: verdict disagrees with its label"
            elif want_sat and not satisfies(instance["clauses"], set(outcome["true_vars"])):
                failures[instance["name"]] = f"{instance['name']}: SAT model violates a clause"
        counters = solver_counters(sum_counters(outcome["stats"] for outcome in outcomes))
        return Rep(
            wall_s=0.0, peak_rss_mb=0.0,
            op_latencies=[outcome["seconds"] for outcome in outcomes],
            attempted=len(outcomes), failures=failures, counters=counters,
            extra={"solve_s": sum(outcome["seconds"] for outcome in outcomes)},
        )


WORKLOADS = {
    "seq_detect": SeqDetect,
    "comb_flow": CombFlow,
    "service_mix": ServiceMix,
    "sat_random": SatRandom,
}


def get(name: str):
    return WORKLOADS[name]()
