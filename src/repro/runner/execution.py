"""The experiment runner: executes registry grid cells on an execution backend.

``run_experiment("figure5")`` asks the experiment's module for its grid
cells, executes each cell in-process (``backend="serial"``, the ``jobs=1``
default, sharing the in-memory benchmark-context cache) or across worker
processes (``backend="process"``, the ``jobs>1`` default), streams one
structured JSON record per completed cell through
:mod:`repro.experiments.reporting`, and hands the ordered cell results to
the module's ``collect``/``report`` hooks.

Execution is fault tolerant (:mod:`repro.runner.resilience`): crashed or
hung workers are detected, their cells retried with deterministic backoff,
and after repeated backend failures the run downgrades to the serial
backend and finishes anyway — the retry/downgrade counters land in the run
record.

:func:`run_experiment` is the one way to run a harness (``deterrent run``
calls it): a harness only declares *what* its cells are and how to run one;
scheduling, parallelism, caching, robustness, and result persistence live
here.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any

from repro import obs
from repro.runner.backends import resolve_backend
from repro.runner.cache import get_default_cache, set_default_cache
from repro.runner.faults import FaultPlan
from repro.runner.registry import ExperimentSpec, GridCell, get_experiment
from repro.runner.resilience import ResiliencePolicy, run_tasks
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


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a job-count request: None or <= 0 means "all CPUs"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Worker-process entry points (module level: must be picklable by name)
# ----------------------------------------------------------------------
def extend_sys_path(search_paths: list[str]) -> None:
    """Replay the parent's ``sys.path`` in a worker.

    Spawned workers can then import ``repro`` from a fresh checkout that was
    never pip-installed.
    """
    for path in search_paths:
        if path not in sys.path:
            sys.path.append(path)


def _init_cell_worker(search_paths: list[str], cache_dir: str | None) -> None:
    """Replay the parent's import path and cache configuration in a worker."""
    extend_sys_path(search_paths)
    if cache_dir is not None:
        set_default_cache(cache_dir)


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
    return result, elapsed, delta


def _restore_trace(directory: str | None, env_dir: str | None) -> None:
    """Put telemetry back as it was before a ``run_experiment(trace_dir=...)``."""
    obs.flush()
    if directory is None:
        obs.disable()
    else:
        obs.configure(directory, export_env=False)
    if env_dir is None:
        os.environ.pop(obs.ENV_TRACE_DIR, None)
    else:
        os.environ[obs.ENV_TRACE_DIR] = env_dir


def run_experiment(
    experiment: str | ExperimentSpec,
    profile="quick",
    jobs: int = 1,
    options: dict[str, Any] | None = None,
    cache_dir: str | Path | None = None,
    results_dir: str | Path | None = None,
    backend: str | None = None,
    resilience: ResiliencePolicy | None = None,
    fault_plan: FaultPlan | None = None,
    trace_dir: str | Path | None = None,
) -> ExperimentRun:
    """Execute every grid cell of ``experiment`` and collect the results.

    Args:
        experiment: a registered experiment name or an :class:`ExperimentSpec`.
        profile: an :class:`~repro.experiments.common.ExperimentProfile` or
            its name (``"tiny"``, ``"quick"``, ``"full"``).
        jobs: workers for grid cells (1 = in-process serial;
            <= 0 = one per CPU).
        options: harness options, checked against the module's ``OPTIONS``.
        cache_dir: artifact-cache directory that is the default cache of this
            process for the duration of the call, and of every worker; the
            previous default is restored when the call returns or raises.
            None keeps the ambient default (e.g. from ``DETERRENT_CACHE_DIR``).
        results_dir: when set, streams one JSON line per completed cell to
            ``<results_dir>/<experiment>-<profile>.jsonl`` and writes the full
            run record to ``<experiment>-<profile>.json``.
        backend: execution backend, ``"serial"`` or ``"process"``.  None
            means serial for ``jobs=1`` and the process pool otherwise.
        resilience: retry/timeout policy for cell execution.  None uses
            :class:`ResiliencePolicy` defaults.
        fault_plan: scripted faults for chaos testing (see
            :mod:`repro.runner.faults`); None in production.
        trace_dir: when set, enables the telemetry layer (:mod:`repro.obs`)
            for the duration of the call, in this process and every worker,
            exporting spans under the directory; the run record gains a
            ``telemetry`` block.  The previous telemetry state is restored
            when the call returns or raises.  None keeps the ambient state
            (e.g. from ``DETERRENT_TRACE_DIR``).
    """
    from repro.experiments.common import profile_by_name
    from repro.experiments.reporting import append_jsonl, save_json

    jobs = 1 if jobs == 1 else resolve_jobs(jobs)
    backend = resolve_backend(backend, jobs=jobs)
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
    if results_dir is not None:
        results_dir = Path(results_dir)
        stream_path = results_dir / f"{spec.name}-{profile.name}.jsonl"
        stream_path.unlink(missing_ok=True)
    if cache_dir is not None:
        cache_dir = str(cache_dir)
        previous_cache = get_default_cache()
        set_default_cache(cache_dir)
    if trace_dir is not None:
        previous_trace = obs.trace_dir(), os.environ.get(obs.ENV_TRACE_DIR)
        obs.flush()  # spans buffered so far belong to the previous directory
        obs.configure(trace_dir)

    started = time.perf_counter()
    outcomes: list[CellOutcome] = []
    cache_stats: dict[str, int] | None = None
    try:
        with obs.trace.span(
            f"run.{spec.name}",
            attrs={
                "profile": profile.name, "backend": backend,
                "jobs": jobs, "cells": len(cells),
            },
        ):
            execution = run_tasks(
                _execute_cell,
                [(spec.module, cell, profile) for cell in cells],
                backend=backend,
                policy=resilience,
                initializer=_init_cell_worker,
                initargs=(list(sys.path), cache_dir),
                max_workers=min(jobs, len(cells)),
                fault_plan=fault_plan,
                label="cell",
            )
            for cell, (result, elapsed, stats_delta) in zip(cells, execution.results):
                if stats_delta is not None:
                    if cache_stats is None:
                        cache_stats = dict.fromkeys(stats_delta, 0)
                    for key, value in stats_delta.items():
                        cache_stats[key] += value
                outcome = CellOutcome(
                    name=cell.name, params=dict(cell.params), result=result, elapsed=elapsed
                )
                outcomes.append(outcome)
                if stream_path is not None:
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

            collected = module.collect([outcome.result for outcome in outcomes])
            report_text = module.report(collected)
        elapsed = time.perf_counter() - started
        telemetry = obs.summary()
    finally:
        if cache_dir is not None:
            set_default_cache(previous_cache)
        if trace_dir is not None:
            _restore_trace(*previous_trace)

    run = ExperimentRun(
        experiment=spec.name,
        profile=profile.name,
        jobs=jobs,
        options=options,
        outcomes=outcomes,
        collected=collected,
        report_text=report_text,
        elapsed=elapsed,
        cache_stats=cache_stats,
        backend=backend,
        resilience=execution.counters(),
        telemetry=telemetry,
    )
    if results_dir is not None:
        run.results_path = save_json(
            run.record(), results_dir / f"{spec.name}-{profile.name}.json"
        )
    return run


__all__ = [
    "CellOutcome",
    "ExperimentRun",
    "extend_sys_path",
    "resolve_jobs",
    "run_experiment",
]
