"""Detection as a service: durable queue, queue backend, and HTTP server.

This package is the remote half of the execution story whose local half
lives in :mod:`repro.runner`:

- :mod:`repro.service.queue` — an on-disk, crash-safe job queue: atomic
  lease/ack/nack files, lease expiry + heartbeats so a dead worker's jobs
  are reclaimed, and deterministic content-addressed job ids (the same
  SHA-256 addressing the :class:`~repro.runner.cache.ArtifactCache` uses).
- :mod:`repro.service.queue_backend` — a
  :class:`~repro.runner.backends.ExecutionBackend` whose executor enqueues
  work into a durable queue and resolves futures as independent
  work-stealing ``deterrent queue-worker`` processes lease, run, and ack
  tasks.  Selectable as ``--backend queue``; composes unchanged with the
  retry/timeout/degradation layer in :mod:`repro.runner.resilience`.
- :mod:`repro.service.jobs` — the service job contract: validate a
  submitted ``.bench`` netlist + harness/options against the experiment
  registry, derive the content-addressed job id, and run the job in a
  worker.
- :mod:`repro.service.server` — the long-running HTTP service
  (``deterrent serve``): ``POST /jobs`` answers from the shared artifact
  cache or enqueues, ``GET /jobs/<id>`` reports status/result, and
  ``GET /healthz`` / ``GET /metrics`` expose queue depth, leases, worker
  liveness, cache counters, and aggregate solver stats.

Everything here is stdlib-only (``http.server``, ``pickle``, ``json``,
``subprocess``) — no new runtime dependencies.
"""
