"""Experiment orchestration: sharded solvers, artifact cache, registry, runner.

This package is the orchestration layer the DETERRENT paper implies but the
per-harness scripts used to re-implement ad hoc:

- :mod:`repro.runner.parallel` — :func:`~repro.runner.parallel.sharded_map`,
  the one sharded map behind every per-item SAT stage (the paper's
  64-process offline phase, §3.3), with an inline reference path.
- :mod:`repro.runner.cache` — content-addressed on-disk artifact cache for
  rare nets, compatibility analyses, and Trojan populations, keyed by netlist
  fingerprint + configuration fingerprint.
- :mod:`repro.runner.registry` — declarative specs for every experiment
  harness (name, module, grid cells).
- :mod:`repro.runner.execution` — the runner that executes grid cells on a
  pluggable backend and streams structured JSON results.
- :mod:`repro.runner.backends` — the execution-backend seam: serial,
  process-pool, and thread-pool implementations of one executor protocol.
- :mod:`repro.runner.resilience` — retries with deterministic backoff,
  per-attempt timeouts, crash resubmission, and graceful degradation to the
  serial backend.
- :mod:`repro.runner.faults` — deterministic fault injection (scripted
  crash/hang/corrupt/error) for chaos-testing every recovery path above.
"""
