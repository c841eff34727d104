"""The service job contract: validate, address, and run submitted netlists.

A service job is "run one registered experiment harness on one submitted
``.bench`` netlist".  The submitted circuit replaces the harness's design
grid (its ``designs``/``design`` option); every other option passes through
the exact validation the CLI runner applies (the module's ``OPTIONS``
allowlist plus the harness's own ``cells()`` checks), so a job that would
be rejected by ``deterrent run`` is rejected by ``POST /jobs`` with the
same message.

Jobs are **content addressed**: the job id is
:func:`repro.runner.cache.config_fingerprint` over (experiment, profile,
options, netlist fingerprint) — the ArtifactCache addressing scheme — so
the id doubles as the cache digest under which the finished job record is
stored (kind :data:`JOB_RESULT_KIND`).  Submitting the same netlist with
the same options therefore *is* a cache lookup: the service answers
completed jobs from the shared artifact cache without touching the queue.

Bit-identity with the local path: a submitted netlist whose content matches
a library benchmark resolves to that benchmark's registered name, so the
worker runs literally the same grid cells as ``deterrent run <experiment>
--set designs=[<name>]`` against the same artifact-cache keys.  Unknown
netlists are registered on the fly (:func:`repro.circuits.library
.register_netlist`) under a fingerprint-derived name.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.circuits.bench_io import dumps_bench, loads_bench
from repro.circuits.library import benchmark_suite, load_benchmark, register_netlist
from repro.circuits.netlist import Netlist
from repro.experiments.common import profile_by_name
from repro.runner.cache import config_fingerprint, get_default_cache, netlist_fingerprint
from repro.runner.execution import _jsonable
from repro.runner.registry import all_experiments, get_experiment

#: Artifact-cache kind holding finished service job records.
JOB_RESULT_KIND = "service_jobs"

#: Options the service reserves (they are derived from the submitted
#: netlist and may not be supplied by the client).
RESERVED_OPTIONS = ("design", "designs")


@dataclass
class JobRequest:
    """One validated job submission."""

    experiment: str
    profile: str
    options: dict[str, Any]
    bench: str
    netlist: Netlist = field(repr=False, default=None)  # type: ignore[assignment]

    def key_parts(self) -> dict[str, Any]:
        """The ArtifactCache key parts identifying this job's result."""
        return {
            "service_job": self.experiment,
            "profile": self.profile,
            "options": dict(sorted(self.options.items())),
            "netlist": netlist_fingerprint(self.netlist),
        }

    def job_id(self) -> str:
        """Deterministic job id == the job record's cache digest."""
        return config_fingerprint(**self.key_parts())


class JobValidationError(ValueError):
    """A job submission that can never run (a 400, not a crash)."""


def validate_job(payload: Mapping[str, Any]) -> JobRequest:
    """Validate a submission payload into a runnable :class:`JobRequest`.

    Raises :class:`JobValidationError` with a client-appropriate message on
    any problem: unknown experiment/profile, reserved or unknown options,
    an unparsable netlist, or a harness that takes no submitted designs.
    The returned request carries the parsed netlist and the design name it
    resolves to is decided later (worker side) by :func:`resolve_design`.
    """
    if not isinstance(payload, Mapping):
        raise JobValidationError(f"job payload must be a JSON object, got {type(payload).__name__}")
    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench.strip():
        raise JobValidationError("'bench' must be a non-empty .bench netlist string")
    experiment = payload.get("experiment")
    if not isinstance(experiment, str):
        raise JobValidationError("'experiment' must be a registered experiment name")
    try:
        spec = get_experiment(experiment)
    except KeyError as error:
        raise JobValidationError(str(error.args[0])) from None
    profile = payload.get("profile", "tiny")
    if not isinstance(profile, str):
        raise JobValidationError("'profile' must be a profile name (tiny, quick, full)")
    try:
        profile_obj = profile_by_name(profile)
    except KeyError as error:
        raise JobValidationError(str(error.args[0])) from None
    options = payload.get("options") or {}
    if not isinstance(options, Mapping):
        raise JobValidationError("'options' must be a JSON object of harness options")
    options = {str(key): value for key, value in options.items()}
    reserved = sorted(set(options) & set(RESERVED_OPTIONS))
    if reserved:
        raise JobValidationError(
            f"option(s) {', '.join(reserved)} are derived from the submitted "
            "netlist and cannot be set explicitly"
        )
    module = spec.resolve()
    allowed = getattr(module, "OPTIONS", ())
    design_option = _design_option(allowed)
    if design_option is None:
        raise JobValidationError(
            f"experiment {experiment!r} does not take submitted netlists "
            "(no design/designs option)"
        )
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise JobValidationError(
            f"unknown option(s) for {experiment!r}: {', '.join(unknown)}; "
            f"supported: {', '.join(sorted(set(allowed) - set(RESERVED_OPTIONS)))}"
        )
    try:
        netlist = loads_bench(bench, name="submitted")
    except ValueError as error:
        raise JobValidationError(f"invalid .bench netlist: {error}") from None
    if not netlist.nets:
        raise JobValidationError("submitted netlist is empty")
    request = JobRequest(
        experiment=experiment,
        profile=profile,
        options=dict(options),
        bench=bench,
        netlist=netlist,
    )
    # Validate the full grid up front (design constraints, option values):
    # a submission that cells() would reject must 400 at the door, not fail
    # later inside a worker.
    design = resolve_design(netlist)
    try:
        cells = spec.build_cells(
            profile_obj, {**request.options, design_option: _design_value(design_option, design)}
        )
    except (TypeError, ValueError) as error:
        raise JobValidationError(str(error)) from None
    if not cells:
        raise JobValidationError(
            f"experiment {experiment!r} produced no grid cells for this netlist"
        )
    return request


def _design_option(allowed: tuple[str, ...]) -> str | None:
    if "designs" in allowed:
        return "designs"
    if "design" in allowed:
        return "design"
    return None


def _design_value(design_option: str, design: str) -> Any:
    return [design] if design_option == "designs" else design


_LIBRARY_FINGERPRINTS: dict[str, str] = {}


def _content_digest(netlist: Netlist) -> str:
    """SHA-256 of the ``.bench`` body: comment lines dropped, lines sorted.

    :func:`~repro.runner.cache.netlist_fingerprint` hashes the full
    serialisation, whose first line is ``# <name>`` — so a submitted
    circuit (always parsed as ``"submitted"``) would never match the
    identical library netlist under its own name.  And a parse/serialise
    round trip reorders gate lines (file order vs construction order), so
    the digest sorts the lines: net names carry the structure, making the
    sorted line set a canonical form.
    """
    body = "\n".join(
        sorted(
            line
            for line in dumps_bench(netlist).splitlines()
            if line and not line.startswith("#")
        )
    )
    return hashlib.sha256(body.encode()).hexdigest()


def resolve_design(netlist: Netlist) -> str:
    """The benchmark name this netlist runs as (registering it if new).

    A submitted circuit whose canonical ``.bench`` content matches a
    library benchmark resolves to that benchmark's name — giving
    bit-identical grid cells, cache keys, and reports to a local
    ``deterrent run`` of the same design.  Anything else is registered
    under a digest-derived ``submitted_<digest>`` name.
    """
    digest = _content_digest(netlist)
    for name in benchmark_suite():
        if name.startswith("submitted_"):
            continue
        known = _LIBRARY_FINGERPRINTS.get(name)
        if known is None:
            try:
                known = _content_digest(load_benchmark(name, combinational_view=False))
            except Exception:  # noqa: BLE001 - a broken generator must not block jobs
                continue
            _LIBRARY_FINGERPRINTS[name] = known
        if known == digest:
            return name
    name = f"submitted_{digest[:12]}"
    register_netlist(netlist, name)
    return name


def import_harnesses() -> None:
    """Import every registered harness module, so no job pays for loading one.

    Validating a job resolves its harness on the server, and running it
    resolves it again on the worker; both processes call this at start-up.
    """
    for spec in all_experiments():
        spec.resolve()


def run_service_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one job (worker side); return — and cache — its record.

    Module-level and picklable, so it is the ``fn`` of every service
    :class:`~repro.service.queue.TaskSpec`.  Re-validates the payload (the
    queue is an open directory; only validated work should run), executes
    every grid cell serially in this worker, and stores the finished record
    in the default artifact cache under the job's content address.
    """
    request = validate_job(payload)
    spec = get_experiment(request.experiment)
    module = spec.resolve()
    profile_obj = profile_by_name(request.profile)
    design = resolve_design(request.netlist)
    design_option = _design_option(getattr(module, "OPTIONS", ()))
    cells = spec.build_cells(
        profile_obj,
        {**request.options, design_option: _design_value(design_option, design)},
    )
    started = time.perf_counter()
    results = []
    cell_records = []
    for cell in cells:
        cell_started = time.perf_counter()
        result = module.run_cell(cell.params, profile_obj)
        results.append(result)
        cell_records.append(
            {
                "cell": cell.name,
                "params": _jsonable(cell.params),
                "elapsed_seconds": round(time.perf_counter() - cell_started, 3),
                "result": _jsonable(result),
            }
        )
    collected = module.collect(results)
    record = {
        "job_id": request.job_id(),
        "experiment": request.experiment,
        "profile": request.profile,
        "options": _jsonable(request.options),
        "design": design,
        "netlist_fingerprint": netlist_fingerprint(request.netlist),
        "cells": cell_records,
        "report": module.report(collected),
        "test_sets": job_record_test_sets(module, cells, results, profile_obj),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "completed_at": time.time(),
    }
    cache = get_default_cache()
    if cache is not None:
        cache.store(JOB_RESULT_KIND, record, **request.key_parts())
    return record


def job_record_test_sets(
    module: Any, cells: list, results: list, profile: Any
) -> list[dict[str, Any]] | None:
    """Extract the generated test sets, when the harness exposes them.

    A harness may define ``test_set(params, profile)`` returning the test
    set its cell produced (served from the artifact cache, so this is a
    cheap re-load after ``run_cell``).  The service embeds the serialised
    sets in the job record — that is the "submit a netlist, get a test set
    back" payload.  Harnesses without the hook return rich cell results
    only.
    """
    hook = getattr(module, "test_set", None)
    if hook is None:
        return None
    serialised = []
    for cell, result in zip(cells, results):
        if result is None:
            continue  # skipped cell (e.g. no Trojans fit)
        test_set = hook(cell.params, profile)
        if test_set is None:
            continue
        serialised.append({"cell": cell.name, **_serialise_test_set(test_set)})
    return serialised


def _serialise_test_set(test_set: Any) -> dict[str, Any]:
    """JSON-ready view of a SequenceSet / PatternSet-shaped object."""
    payload: dict[str, Any] = {
        "technique": getattr(test_set, "technique", type(test_set).__name__),
    }
    sequences = getattr(test_set, "sequences", None)
    patterns = getattr(test_set, "patterns", None)
    if sequences is not None:
        payload["kind"] = "sequences"
        payload["inputs"] = list(getattr(test_set, "inputs", ()))
        payload["sequences"] = sequences.astype(int).tolist()
    elif patterns is not None:
        payload["kind"] = "patterns"
        payload["inputs"] = list(getattr(test_set, "sources", ()))
        payload["patterns"] = patterns.astype(int).tolist()
    else:  # pragma: no cover - future test-set shapes
        payload["kind"] = "opaque"
        payload["value"] = repr(test_set)
    return payload


__all__ = [
    "JOB_RESULT_KIND",
    "RESERVED_OPTIONS",
    "JobRequest",
    "JobValidationError",
    "import_harnesses",
    "job_record_test_sets",
    "resolve_design",
    "run_service_job",
    "validate_job",
]
