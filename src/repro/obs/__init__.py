"""Unified telemetry for the DETERRENT reproduction (stdlib only).

One mechanism, one switch: :mod:`repro.obs.trace` records spans, with
context propagation through worker initializers, queue-job headers, and
HTTP ``traceparent`` headers.  Every timing a user sees — the span tree,
the per-name percentiles of ``deterrent trace``, the ``telemetry`` block of
a run record — is read back from the exported span files.

Everything is disabled (and near-free) until :func:`configure` points the
process at a trace directory — `deterrent run --trace <dir>` or the
``DETERRENT_TRACE_DIR`` environment variable.  See docs/observability.md.
"""

from __future__ import annotations

from repro.obs import trace
from repro.obs._runtime import (
    ENV_TRACE_DIR,
    configure,
    disable,
    enabled,
    trace_dir,
)
from repro.obs.trace import TraceContext, current_context, install_remote_parent


def flush() -> None:
    """Flush this process's buffered spans to the trace dir."""
    trace.flush_spans()


def summary() -> dict | None:
    """Flush, then summarise this trace dir: span count, per-name timings.

    The ``telemetry`` block of run records — ``None`` while disabled, so
    untraced runs keep their record shape minus one null field.
    """
    if not enabled():
        return None
    flush()
    directory = trace_dir()
    spans = trace.load_spans(directory)
    return {
        "trace_dir": directory,
        "spans": len(spans),
        "profiles": trace.span_profiles(spans),
    }


def install_worker(
    trace_directory: str | None, parent_context: dict | None = None
) -> None:
    """Enable telemetry inside a worker (chained worker initializers).

    Safe to call with ``None`` arguments (telemetry disabled on the
    submitting side).
    """
    if trace_directory:
        configure(trace_directory, export_env=False)
    if parent_context:
        install_remote_parent(TraceContext.from_dict(parent_context))


def worker_install_args() -> tuple[str | None, dict | None]:
    """The picklable ``(trace_dir, parent_context)`` to ship to workers."""
    if not enabled():
        return None, None
    context = current_context()
    return trace_dir(), context.as_dict() if context else None


__all__ = [
    "ENV_TRACE_DIR",
    "TraceContext",
    "configure",
    "current_context",
    "disable",
    "enabled",
    "flush",
    "install_remote_parent",
    "install_worker",
    "summary",
    "trace",
    "trace_dir",
    "worker_install_args",
]
