"""Unified telemetry for the DETERRENT reproduction (stdlib only).

Three cooperating pieces, one switch:

- :mod:`repro.obs.trace` — span tracer with context propagation through
  worker initializers, queue-job headers, and HTTP ``traceparent`` headers;
- :mod:`repro.obs.metrics` — process-local duration histograms that merge
  across workers bucket by bucket and export to Prometheus text exposition
  (counts stay with the objects that keep them);
- :mod:`repro.obs.profile` — sampled timing hooks on the hot paths, feeding
  ``profile_*_seconds`` histograms in the same registry.

Everything is disabled (and near-free) until :func:`configure` points the
process at a trace directory — `deterrent run --trace <dir>` or the
``DETERRENT_TRACE_DIR`` environment variable.  See docs/observability.md.
"""

from __future__ import annotations

from repro.obs import metrics, profile, trace
from repro.obs._runtime import (
    ENV_PROFILE,
    ENV_TRACE_DIR,
    configure,
    disable,
    enabled,
    profiling_enabled,
    trace_dir,
)
from repro.obs.trace import TraceContext, current_context, install_remote_parent


def flush() -> None:
    """Flush this process's buffered spans and metrics to the trace dir."""
    trace.flush_spans()
    metrics.flush()


def summary() -> dict | None:
    """Flush, then summarise this trace dir: span count, merged timings.

    The ``telemetry`` block of run records — ``None`` while disabled, so
    untraced runs keep their record shape minus one null field.
    """
    if not enabled():
        return None
    flush()
    directory = trace_dir()
    merged = metrics.merged_snapshot(directory)
    return {
        "trace_dir": directory,
        "spans": len(trace.load_spans(directory)),
        "profiles": metrics.percentile_summary(merged),
    }


def install_worker(
    trace_directory: str | None,
    parent_context: dict | None = None,
    label: str | None = None,
) -> None:
    """Enable telemetry inside a worker (chained worker initializers).

    Safe to call repeatedly (thread pools run initializers once per thread)
    and with ``None`` arguments (telemetry disabled on the submitting side).
    """
    if trace_directory:
        configure(trace_directory, label=label, export_env=False)
    if parent_context:
        install_remote_parent(TraceContext.from_dict(parent_context))


def worker_install_args() -> tuple[str | None, dict | None]:
    """The picklable ``(trace_dir, parent_context)`` to ship to workers."""
    if not enabled():
        return None, None
    context = current_context()
    return trace_dir(), context.as_dict() if context else None


__all__ = [
    "ENV_PROFILE",
    "ENV_TRACE_DIR",
    "TraceContext",
    "configure",
    "current_context",
    "disable",
    "enabled",
    "flush",
    "install_remote_parent",
    "install_worker",
    "metrics",
    "profile",
    "profiling_enabled",
    "summary",
    "trace",
    "trace_dir",
    "worker_install_args",
]
