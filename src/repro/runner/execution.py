"""The experiment runner: executes registry grid cells on a pluggable backend.

``ExperimentRunner.run("figure5")`` asks the experiment's module for its grid
cells, executes each cell on an :class:`~repro.runner.backends
.ExecutionBackend` — in-process (``backend="serial"``, the ``jobs=1``
default, sharing the in-memory benchmark-context cache), across worker
processes (``backend="process"``, the ``jobs>1`` default), or worker threads
(``backend="thread"``) — streams one structured JSON record per completed
cell through :mod:`repro.experiments.reporting`, and hands the ordered cell
results to the module's ``collect``/``report`` hooks.

Execution is fault tolerant (:mod:`repro.runner.resilience`): crashed or
hung workers are detected, their cells retried with deterministic backoff,
and after repeated backend failures the run downgrades to the serial
backend and finishes anyway — the retry/downgrade counters land in the run
record.

This replaces the per-harness orchestration loops: a harness only declares
*what* its cells are and how to run one; scheduling, parallelism, caching,
robustness, and result persistence live here.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any

from repro import obs
from repro.runner.backends import ExecutionBackend, resolve_backend
from repro.runner.cache import get_default_cache, set_default_cache
from repro.runner.faults import FaultPlan
from repro.runner.parallel import extend_sys_path, resolve_jobs
from repro.runner.registry import ExperimentSpec, GridCell, get_experiment
from repro.runner.resilience import ResiliencePolicy, policy_for_spec, run_tasks
from repro.sat import native


@dataclass
class CellOutcome:
    """One executed grid cell: its identity, result, and wall-time."""

    name: str
    params: dict[str, Any]
    result: Any
    elapsed: float


@dataclass
class ExperimentRun:
    """Everything produced by one runner invocation."""

    experiment: str
    profile: str
    jobs: int
    options: dict[str, Any]
    outcomes: list[CellOutcome]
    collected: Any
    report_text: str
    elapsed: float
    cache_stats: dict[str, int] | None = None
    results_path: Path | None = None
    backend: str = "serial"
    resilience: dict[str, Any] | None = None
    telemetry: dict[str, Any] | None = None

    def record(self) -> dict[str, Any]:
        """JSON-ready summary of the whole run (cells + rendered report)."""
        return {
            "experiment": self.experiment,
            "profile": self.profile,
            "jobs": self.jobs,
            "backend": self.backend,
            # Which CDCL inner loop this machine runs: the C kernel or the
            # Python methods it mirrors (the search is the same on both).
            "solver_kernel": "python" if native.kernel() is None else "native",
            "options": _jsonable(self.options),
            "elapsed_seconds": round(self.elapsed, 3),
            "cache_stats": self.cache_stats,
            "resilience": self.resilience,
            "telemetry": self.telemetry,
            "cells": [
                {
                    "cell": outcome.name,
                    "params": _jsonable(outcome.params),
                    "elapsed_seconds": round(outcome.elapsed, 3),
                    "result": _jsonable(outcome.result),
                }
                for outcome in self.outcomes
            ],
            "report": self.report_text,
        }


def _jsonable(value: Any) -> Any:
    """Reduce harness results (dataclasses, tuples, sets) to JSON types."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        try:
            return value.item()
        except Exception:
            pass
    return str(value)


# ----------------------------------------------------------------------
# Worker-process entry points (module level: must be picklable by name)
# ----------------------------------------------------------------------
def _init_cell_worker(search_paths: list[str], cache_dir: str | None) -> None:
    """Replay the parent's import path and cache configuration in a worker."""
    extend_sys_path(search_paths)
    if cache_dir is not None:
        from repro.runner.cache import set_default_cache as _set

        _set(cache_dir)


def _execute_cell(
    module_name: str, cell: GridCell, profile
) -> tuple[Any, float, dict[str, int] | None]:
    """Run one grid cell; return (result, elapsed, cache-stats delta).

    The stats delta is measured against this process's default cache, so
    worker processes report their own hit/miss contributions back to the
    parent for aggregation.
    """
    module = importlib.import_module(module_name)
    cache = get_default_cache()
    before = cache.stats.as_dict() if cache is not None else None
    started = time.perf_counter()
    with obs.trace.span("cell", attrs={"cell": cell.name}):
        result = module.run_cell(cell.params, profile)
    elapsed = time.perf_counter() - started
    delta = None
    if cache is not None and before is not None:
        after = cache.stats.as_dict()
        delta = {key: after[key] - before[key] for key in after}
    obs.metrics.observe("cell_seconds", elapsed)
    return result, elapsed, delta


class ExperimentRunner:
    """Executes registered experiments over a pluggable execution backend.

    Args:
        jobs: workers for grid cells (1 = in-process serial;
            <= 0 = one per CPU).
        cache_dir: artifact-cache directory installed as the process-wide
            default for this run and for every worker (None keeps the
            ambient default, e.g. from ``DETERRENT_CACHE_DIR``).
        results_dir: when set, the runner streams one JSON line per completed
            cell to ``<results_dir>/<experiment>-<profile>.jsonl`` and writes
            the full run record to ``<experiment>-<profile>.json``.
        backend: execution backend — a name (``"serial"``, ``"process"``,
            ``"thread"``) or an :class:`ExecutionBackend` instance.  None
            keeps the historical default: serial for ``jobs=1``, the
            process pool otherwise.
        resilience: retry/timeout policy for cell execution; per-spec
            ``cell_timeout``/``cell_max_attempts`` overrides are folded in
            at run time.  None uses :class:`ResiliencePolicy` defaults.
        fault_plan: scripted faults for chaos testing (see
            :mod:`repro.runner.faults`); None in production.
        trace_dir: when set, enables the telemetry layer
            (:mod:`repro.obs`) for this process and every worker, exporting
            spans and merged metrics under the directory; the run record
            gains a ``telemetry`` block.  None keeps the ambient state
            (e.g. from ``DETERRENT_TRACE_DIR``).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        results_dir: str | Path | None = None,
        backend: ExecutionBackend | str | None = None,
        resilience: ResiliencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
        trace_dir: str | Path | None = None,
    ) -> None:
        self.jobs = 1 if jobs == 1 else resolve_jobs(jobs)
        self.backend = resolve_backend(backend, jobs=self.jobs)
        self.resilience = resilience
        self.fault_plan = fault_plan
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.results_dir = Path(results_dir) if results_dir is not None else None
        if self.cache_dir is not None:
            set_default_cache(self.cache_dir)
        if trace_dir is not None:
            obs.configure(trace_dir)

    # ------------------------------------------------------------------
    def run(
        self,
        experiment: str | ExperimentSpec,
        profile="quick",
        options: dict[str, Any] | None = None,
    ) -> ExperimentRun:
        """Execute every grid cell of ``experiment`` and collect the results."""
        from repro.experiments.common import profile_by_name

        spec = experiment if isinstance(experiment, ExperimentSpec) else get_experiment(experiment)
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        options = dict(options or {})
        module = spec.resolve()
        allowed = getattr(module, "OPTIONS", None)
        if allowed is not None:
            unknown = sorted(set(options) - set(allowed))
            if unknown:
                raise ValueError(
                    f"unknown option(s) for {spec.name!r}: {', '.join(unknown)}; "
                    f"supported: {', '.join(sorted(allowed))}"
                )
        cells = spec.build_cells(profile, options)
        if not cells:
            raise ValueError(f"experiment {spec.name!r} produced no grid cells")

        stream_path = None
        if self.results_dir is not None:
            stream_path = self.results_dir / f"{spec.name}-{profile.name}.jsonl"
            stream_path.unlink(missing_ok=True)

        started = time.perf_counter()
        outcomes: list[CellOutcome] = []
        cache_stats: dict[str, int] | None = None

        def _absorb(cell: GridCell, payload: tuple[Any, float, dict[str, int] | None]) -> None:
            nonlocal cache_stats
            result, elapsed, stats_delta = payload
            if stats_delta is not None:
                if cache_stats is None:
                    cache_stats = dict.fromkeys(stats_delta, 0)
                for key, value in stats_delta.items():
                    cache_stats[key] += value
            outcomes.append(self._record_cell(spec, profile, cell, result, elapsed, stream_path))

        policy = policy_for_spec(self.resilience, spec.cell_timeout, spec.cell_max_attempts)
        with obs.trace.span(
            f"run.{spec.name}",
            attrs={
                "profile": profile.name, "backend": self.backend.name,
                "jobs": self.jobs, "cells": len(cells),
            },
        ):
            execution = run_tasks(
                _execute_cell,
                [(spec.module, cell, profile) for cell in cells],
                backend=self.backend,
                policy=policy,
                initializer=_init_cell_worker,
                initargs=(list(sys.path), self.cache_dir),
                max_workers=min(self.jobs, len(cells)),
                fault_plan=self.fault_plan,
                label="cell",
            )
            for cell, payload in zip(cells, execution.results):
                _absorb(cell, payload)

            collected = module.collect([outcome.result for outcome in outcomes])
            report_text = module.report(collected)
        elapsed = time.perf_counter() - started

        run = ExperimentRun(
            experiment=spec.name,
            profile=profile.name,
            jobs=self.jobs,
            options=options,
            outcomes=outcomes,
            collected=collected,
            report_text=report_text,
            elapsed=elapsed,
            cache_stats=cache_stats,
            backend=self.backend.name,
            resilience=execution.counters(),
            telemetry=obs.summary(),
        )
        if self.results_dir is not None:
            from repro.experiments.reporting import save_json

            run.results_path = save_json(
                run.record(), self.results_dir / f"{spec.name}-{profile.name}.json"
            )
        return run

    # ------------------------------------------------------------------
    def _record_cell(
        self,
        spec: ExperimentSpec,
        profile,
        cell: GridCell,
        result: Any,
        elapsed: float,
        stream_path: Path | None,
    ) -> CellOutcome:
        outcome = CellOutcome(name=cell.name, params=dict(cell.params), result=result,
                              elapsed=elapsed)
        if stream_path is not None:
            from repro.experiments.reporting import append_jsonl

            append_jsonl(
                {
                    "experiment": spec.name,
                    "profile": profile.name,
                    "cell": outcome.name,
                    "params": _jsonable(outcome.params),
                    "elapsed_seconds": round(outcome.elapsed, 3),
                    "result": _jsonable(outcome.result),
                },
                stream_path,
            )
        return outcome


def run_experiment(
    experiment: str | ExperimentSpec,
    profile="quick",
    jobs: int = 1,
    options: dict[str, Any] | None = None,
    cache_dir: str | Path | None = None,
    results_dir: str | Path | None = None,
    backend: ExecutionBackend | str | None = None,
    resilience: ResiliencePolicy | None = None,
    fault_plan: FaultPlan | None = None,
    trace_dir: str | Path | None = None,
) -> ExperimentRun:
    """One-shot convenience wrapper around :class:`ExperimentRunner`."""
    runner = ExperimentRunner(
        jobs=jobs,
        cache_dir=cache_dir,
        results_dir=results_dir,
        backend=backend,
        resilience=resilience,
        fault_plan=fault_plan,
        trace_dir=trace_dir,
    )
    return runner.run(experiment, profile=profile, options=options)


__all__ = ["CellOutcome", "ExperimentRun", "ExperimentRunner", "run_experiment"]
