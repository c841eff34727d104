"""Span-based tracing with cross-process context propagation.

A span records a named, timed unit of work: 128-bit trace id shared by the
whole tree, 64-bit span id, parent span id, attributes, a wall-clock start
for display, and a monotonic duration.  The ambient span stack is
thread-local, so the service's handler threads and the caller's own thread
never interleave their trees.

Context travels three ways, all carrying the same ``(trace_id, span_id)``
pair:

- **initializer chain** — :func:`install_remote_parent` is called from the
  process-pool worker initializer that :mod:`repro.runner.resilience`
  chains in front of the user's, making the submitting side's span the default parent of
  everything the worker does;
- **per-task argument** — ``call_with_faults`` ships each task's own parent
  context (:meth:`TraceContext.as_dict`) so every attempt becomes a child of
  the exact submission span that scheduled it;
- **HTTP headers** — the W3C ``traceparent`` header
  (``00-<trace_id>-<span_id>-01``), injected by
  :func:`repro.service.server.http_json` and honoured by ``POST /jobs``.

Finished spans append to ``spans-<pid>.jsonl`` in the trace directory;
:func:`load_spans` folds every per-pid file back into one tree,
:func:`span_profiles` gives exact duration percentiles per span name, and
:func:`chrome_trace` renders the Chrome ``trace_event`` JSON view
(load it at ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.obs import _runtime

_FLUSH_EVERY = 100  # buffered span records before an automatic flush

_LOCAL = threading.local()
_BUFFER: list[str] = []
_BUFFER_PID = os.getpid()
_BUFFER_LOCK = threading.Lock()
_REMOTE_PARENT: "TraceContext | None" = None
_TASK_INDEX = re.compile(r"\[\d+\]$")

#: Slack for :func:`late_children`: a child may end this long after its parent.
_LATE_CHILD_TOLERANCE_S = 1e-3


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The picklable (trace id, span id) pair a child span needs."""

    trace_id: str
    span_id: str

    def as_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: object) -> "TraceContext | None":
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            return cls(trace_id=trace_id, span_id=span_id)
        return None

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) != 4 or len(parts[1]) != 32 or len(parts[2]) != 16:
            return None
        return cls(trace_id=parts[1], span_id=parts[2])


class Span:
    """One in-flight unit of work; call :meth:`end` exactly once."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs",
        "start_time", "_start_perf", "_ended",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str | None,
                 attrs: dict | None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.start_time = time.time()
        self._start_perf = time.perf_counter()
        self._ended = False

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def end(self, status: str = "ok", at: float | None = None) -> None:
        """Record the span; ``at`` is the ``perf_counter()`` it ended at (default: now)."""
        if self._ended:
            return
        self._ended = True
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start_time,
            "dur_s": (time.perf_counter() if at is None else at) - self._start_perf,
            "status": status,
            "pid": os.getpid(),
            "attrs": self.attrs,
        }
        _emit(record)


class _NoopSpan:
    """Stands in for a Span while telemetry is disabled."""

    __slots__ = ()

    def context(self):  # noqa: D102 - mirror of Span.context
        return None

    def set_attr(self, key, value):
        pass

    def end(self, status: str = "ok", at: float | None = None):
        pass


NOOP_SPAN = _NoopSpan()


def _emit(record: dict) -> None:
    global _BUFFER, _BUFFER_PID
    with _BUFFER_LOCK:
        if os.getpid() != _BUFFER_PID:
            # forked child inherited the parent's buffer: those records
            # belong to (and will be flushed by) the parent
            _BUFFER = []
            _BUFFER_PID = os.getpid()
        try:
            _BUFFER.append(json.dumps(record, default=str))
        except (TypeError, ValueError):
            return
        should_flush = len(_BUFFER) >= _FLUSH_EVERY
    if should_flush:
        flush_spans()


def flush_spans(trace_dir: str | None = None) -> None:
    """Append buffered span records to this process's ``spans-<pid>.jsonl``."""
    directory = trace_dir or _runtime.STATE.trace_dir
    global _BUFFER
    with _BUFFER_LOCK:
        if not _BUFFER or directory is None:
            return
        pending, _BUFFER = _BUFFER, []
    path = Path(directory) / f"spans-{os.getpid()}.jsonl"
    try:
        with path.open("a") as handle:
            handle.write("\n".join(pending) + "\n")
    except OSError:
        pass  # telemetry must never take the workload down


def _stack() -> list[Span]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def install_remote_parent(context: "TraceContext | None") -> None:
    """Set the default parent for spans opened with an empty ambient stack.

    Called from worker initializers so work executed far from the submitting
    process still joins the submitter's trace.
    """
    global _REMOTE_PARENT
    _REMOTE_PARENT = context


def current_context() -> TraceContext | None:
    """The ambient context: innermost open span, else the installed remote parent."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1].context()
    return _REMOTE_PARENT


def start_span(name: str, parent: "TraceContext | Span | None" = None,
               attrs: dict | None = None):
    """Open a span *without* making it ambient (manual lifecycle).

    Used by the submitting side of :func:`repro.runner.resilience.run_tasks`,
    where many per-task spans are open at once and each ends when its future
    resolves.  Returns :data:`NOOP_SPAN` while telemetry is disabled.
    """
    if not _runtime.STATE.enabled:
        return NOOP_SPAN
    if parent is None:
        parent_context = current_context()
    elif isinstance(parent, Span):
        parent_context = parent.context()
    else:
        parent_context = parent
    if parent_context is not None:
        return Span(name, parent_context.trace_id, parent_context.span_id, attrs)
    return Span(name, _new_trace_id(), None, attrs)


@contextmanager
def span(name: str, attrs: dict | None = None,
         parent: "TraceContext | Span | None" = None):
    """Open a span, make it ambient on this thread, end it on exit."""
    if not _runtime.STATE.enabled:
        yield NOOP_SPAN
        return
    opened = start_span(name, parent=parent, attrs=attrs)
    stack = _stack()
    stack.append(opened)
    try:
        yield opened
    except BaseException:
        opened.set_attr("error", True)
        raise
    finally:
        if stack and stack[-1] is opened:
            stack.pop()
        elif opened in stack:
            stack.remove(opened)
        opened.end(status="error" if opened.attrs.get("error") else "ok")


# ----------------------------------------------------------------------
# Reading exported traces (CLI `deterrent trace`, tests, smoke checks)
# ----------------------------------------------------------------------
def load_spans(trace_dir: str | os.PathLike) -> list[dict]:
    """All span records under ``trace_dir``, sorted by wall-clock start.

    Corrupt lines (a worker killed mid-write) are skipped: trace reads are
    best-effort by design.
    """
    records: list[dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "span_id" in record:
                records.append(record)
    records.sort(key=lambda record: record.get("start", 0.0))
    return records


def build_tree(spans: list[dict]) -> tuple[list[dict], dict[str, list[dict]]]:
    """Group spans into ``(roots, children-by-parent-id)``.

    A span whose ``parent_id`` is missing from the exported set (e.g. its
    worker died before flushing) is treated as a root so it stays visible.
    """
    by_id = {record["span_id"]: record for record in spans}
    roots: list[dict] = []
    children: dict[str, list[dict]] = {}
    for record in spans:
        parent_id = record.get("parent_id")
        if parent_id and parent_id in by_id:
            children.setdefault(parent_id, []).append(record)
        else:
            roots.append(record)
    return roots, children


def orphan_spans(spans: list[dict]) -> list[dict]:
    """Spans that claim a parent which never got exported."""
    by_id = {record["span_id"] for record in spans}
    return [
        record for record in spans
        if record.get("parent_id") and record["parent_id"] not in by_id
    ]


def late_children(spans: list[dict]) -> list[dict]:
    """Spans that end after their parent does, in the parent's process.

    Only same-pid pairs are compared: a cross-process child (``queue.job``
    under ``service.submit``) rightly outlives the request that enqueued it.
    """
    by_id = {record["span_id"]: record for record in spans}
    late = []
    for record in spans:
        parent = by_id.get(record.get("parent_id"))
        if parent is None or parent.get("pid") != record.get("pid"):
            continue
        child_end = record.get("start", 0.0) + record.get("dur_s", 0.0)
        parent_end = parent.get("start", 0.0) + parent.get("dur_s", 0.0)
        if child_end > parent_end + _LATE_CHILD_TOLERANCE_S:
            late.append(record)
    return late


def span_profiles(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total`` and exact nearest-rank p50/p90/p99.

    Task spans (``cell[3]``) fold into one row per label (``cell[*]``).
    """
    durations: dict[str, list[float]] = {}
    for record in spans:
        name = _TASK_INDEX.sub("[*]", str(record.get("name", "?")))
        durations.setdefault(name, []).append(float(record.get("dur_s", 0.0)))
    profiles = {}
    for name, values in durations.items():
        values.sort()
        profile = {"count": len(values), "total": sum(values)}
        for q in (50, 90, 99):
            # Nearest rank: the ceil(n * q / 100)-th smallest duration.
            profile[f"p{q}"] = values[max(1, math.ceil(len(values) * q / 100)) - 1]
        profiles[name] = profile
    return profiles


def chrome_trace(spans: list[dict]) -> dict:
    """Render spans as Chrome ``trace_event`` complete events (phase "X")."""
    events = []
    for record in spans:
        events.append({
            "name": record.get("name", "?"),
            "cat": "deterrent",
            "ph": "X",
            "ts": record.get("start", 0.0) * 1e6,
            "dur": record.get("dur_s", 0.0) * 1e6,
            "pid": record.get("pid", 0),
            "tid": record.get("pid", 0),
            "args": {
                **(record.get("attrs") or {}),
                "trace_id": record.get("trace_id"),
                "span_id": record.get("span_id"),
                "parent_id": record.get("parent_id"),
                "status": record.get("status"),
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


__all__ = [
    "NOOP_SPAN",
    "Span",
    "TraceContext",
    "build_tree",
    "chrome_trace",
    "current_context",
    "flush_spans",
    "install_remote_parent",
    "late_children",
    "load_spans",
    "orphan_spans",
    "span",
    "span_profiles",
    "start_span",
]
