"""One sharded map for every SAT stage: pair queries, pre-filters, witnesses.

DETERRENT precomputes the O(r²) rare-net compatibility dictionary before
training and parallelises it over 64 processes.  :func:`sharded_map` is that
shape, applied to every per-item SAT stage of the flow (activatability
pre-filter, pair compatibility, pattern witnesses, sequence witnesses):
``sharded_map(netlist, make_justifier, fn, items, n_jobs)`` returns
``[fn(justifier, item) for item in items]``.

Inline versus sharded:

- with ``n_jobs == 1`` or fewer than two items, every item runs inline, in
  order, on the caller's own incremental justifier.  This is the reference
  path;
- otherwise the items are dealt into shards, and each backend worker builds
  its own solver stack once with ``make_justifier(netlist)`` and answers its
  shards on it.  Exact verdicts are therefore bit-identical to the inline
  path; witnesses are valid but may be different models, because each
  worker solves on a fresh clause database.

The shard→seed contract (anything touching :func:`make_shards` must keep
all three):

1. items are dealt round-robin in order — shard ``s`` owns item number
   ``p`` iff ``p % n_shards == s`` — with no dependence on wall clock,
   process ids, or completion order;
2. ``shard.seed == base_seed + 7919 * shard.index`` (a fixed prime stride,
   so distinct shards never share a seed for any ``base_seed`` spacing
   < 7919), which makes worker-side randomness a pure function of the
   submitted work, not of which process picks it up;
3. empty shards are dropped *after* indices and seeds are assigned, so a
   shard's identity never shifts with the number of non-empty peers.

Any shard can therefore be cached, replayed, or re-run in isolation and
give the results the full run would have produced.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.circuits.bench_io import dumps_bench, loads_bench
from repro.circuits.netlist import Netlist
from repro.runner.faults import FaultPlan
from repro.runner.resilience import ResiliencePolicy, run_tasks

#: Shards submitted per worker; >1 smooths load imbalance between shards.
OVERSUBSCRIPTION = 4


def resolve_jobs(n_jobs: int | None) -> int:
    """Normalise a job-count request: None or <= 0 means "all CPUs"."""
    if n_jobs is None or n_jobs <= 0:
        return os.cpu_count() or 1
    return n_jobs


def extend_sys_path(search_paths: list[str]) -> None:
    """Replay the parent's ``sys.path`` in a worker.

    Spawned workers can then import ``repro`` from a fresh checkout that was
    never pip-installed.
    """
    for path in search_paths:
        if path not in sys.path:
            sys.path.append(path)


@dataclass(frozen=True)
class Shard:
    """One worker-sized slice of a work list: ``(position, item)`` pairs.

    ``seed`` is assigned deterministically from ``(base_seed, index)``.  The
    current solver is deterministic, so the seed does not influence results —
    it seeds the per-shard retry jitter, and keeps the shard→seed mapping
    reproducible for any future randomised heuristic.
    """

    index: int
    seed: int
    items: tuple[tuple[int, Any], ...]


def make_shards(items: Sequence, n_shards: int, base_seed: int = 0) -> list[Shard]:
    """Deal ``items`` round-robin into deterministic shards.

    Round-robin dealing mixes early and late items within every shard — on
    the row-major pair list, long rows with short ones — which is cheap
    static load balancing with a fully deterministic assignment.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    buckets: list[list[tuple[int, Any]]] = [[] for _ in range(n_shards)]
    for position, item in enumerate(items):
        buckets[position % n_shards].append((position, item))
    return [
        Shard(index=index, seed=base_seed + 7919 * index, items=tuple(bucket))
        for index, bucket in enumerate(buckets)
        if bucket
    ]


# ----------------------------------------------------------------------
# Worker state
# ----------------------------------------------------------------------
# Every worker owns a private solver stack: a process-pool worker
# (initializer and tasks share the worker's main thread) and the in-process
# serial fallback each see their own state.  Thread-local, so callers that
# run stages from threads of their own never share a stack.
_WORKER_STATE = threading.local()


def _init_worker(
    search_paths: list[str],
    bench_text: str,
    name: str,
    make_justifier: Callable[[Netlist], Any],
    fn: Callable[[Any, Any], Any],
) -> None:
    """Build this worker's private solver stack and remember the stage."""
    extend_sys_path(search_paths)
    _WORKER_STATE.justifier = make_justifier(loads_bench(bench_text, name=name))
    _WORKER_STATE.fn = fn


def _run_shard(shard: Shard) -> list[tuple[int, Any]]:
    """Apply the stage to every item of one shard on the worker's solver."""
    justifier = getattr(_WORKER_STATE, "justifier", None)
    assert justifier is not None, "worker initializer did not run"
    fn = _WORKER_STATE.fn
    return [(position, fn(justifier, item)) for position, item in shard.items]


def sharded_map(
    netlist: Netlist,
    make_justifier: Callable[[Netlist], Any],
    fn: Callable[[Any, Any], Any],
    items: Sequence,
    n_jobs: int,
    *,
    justifier: Any = None,
    backend: str | None = None,
    resilience: ResiliencePolicy | None = None,
    fault_plan: FaultPlan | None = None,
    label: str,
) -> list:
    """``[fn(justifier, item) for item in items]``, inline or sharded.

    The inline path uses ``justifier`` (built with ``make_justifier`` when
    None).  The sharded path runs through
    :func:`repro.runner.resilience.run_tasks` — a process pool unless
    ``backend`` says otherwise — with per-shard retry, timeouts, crash
    recovery and degradation to serial.  ``make_justifier`` and ``fn`` must
    be picklable (module-level callables or ``functools.partial`` of them),
    as must the items and results.  ``label`` names the stage in failure
    messages and in the telemetry span tree (``tasks.<label>`` /
    ``<label>[i]``).  Results come back in item order on both paths.
    """
    items = list(items)
    n_jobs = resolve_jobs(n_jobs)
    if n_jobs == 1 or len(items) < 2:
        if justifier is None:
            justifier = make_justifier(netlist)
        return [fn(justifier, item) for item in items]
    shards = make_shards(items, n_jobs * OVERSUBSCRIPTION)
    shard_results = run_tasks(
        _run_shard,
        [(shard,) for shard in shards],
        backend=backend if backend is not None else "process",
        policy=resilience,
        initializer=_init_worker,
        initargs=(list(sys.path), dumps_bench(netlist), netlist.name, make_justifier, fn),
        max_workers=min(n_jobs, len(shards)),
        seeds=[shard.seed for shard in shards],
        fault_plan=fault_plan,
        label=label,
    ).results
    results: list = [None] * len(items)
    for shard_result in shard_results:
        for position, result in shard_result:
            results[position] = result
    return results


__all__ = [
    "OVERSUBSCRIPTION",
    "Shard",
    "extend_sys_path",
    "make_shards",
    "resolve_jobs",
    "sharded_map",
]
