"""Experiment orchestration: artifact cache, registry, runner, backends.

This package is the orchestration layer the DETERRENT paper implies but the
per-harness scripts used to re-implement ad hoc:

- :mod:`repro.runner.cache` — content-addressed on-disk artifact cache for
  rare nets, compatibility analyses, and Trojan populations, keyed by netlist
  fingerprint + configuration fingerprint.
- :mod:`repro.runner.registry` — declarative specs for every experiment
  harness (name, module, grid cells).
- :mod:`repro.runner.execution` — the runner that executes grid cells on an
  execution backend and streams structured JSON results.  Grid cells are
  the unit of parallelism (``deterrent run --jobs``); every SAT stage inside
  a cell runs in order on that cell's own incremental solver.
- :mod:`repro.runner.backends` — the two execution backends by name:
  ``serial`` (inline) and ``process`` (a process pool).
- :mod:`repro.runner.resilience` — retries with deterministic backoff,
  per-attempt timeouts, crash resubmission, and graceful degradation to the
  serial backend.
- :mod:`repro.runner.faults` — deterministic fault injection (scripted
  crash/hang/corrupt/error) for chaos-testing every recovery path above.
"""
