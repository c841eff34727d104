"""Process-local registry of duration histograms.

The registry keeps timings only.  Counts — cache hits, retries, solver work,
queue events — are read where they are kept (the run record, the cache's
``stats.json``, the service's ``/metrics``) and are never mirrored here.

Every worker accumulates into its own process-local registry, snapshots are
plain JSON-able dicts, and merging is commutative and associative: histogram
buckets **sum**.  Workers flush their registry to ``metrics-<pid>.json`` in
the trace directory (atomic replace, cumulative totals, so re-flushing after
every task is idempotent under merge), and :func:`merged_snapshot` folds all
per-pid files back into one view.

Observations go through :func:`observe`, which returns immediately while
telemetry is disabled — the hot-path cost is one attribute load and one
branch.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from bisect import bisect_left
from pathlib import Path

from repro.obs import _runtime
from repro.utils.fsio import atomic_write

#: Buckets per octave: a percentile read off the bucket bounds is at most
#: ``2 ** (1 / 8)`` (about 9%) above the true value.
BUCKETS_PER_OCTAVE = 8

#: Histogram bucket upper bounds in seconds: 1 µs … 2^27 µs (~134 s), eight
#: per octave.  Fixed for every histogram so histograms merge bucket-by-bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    2.0 ** (i / BUCKETS_PER_OCTAVE) * 1e-6
    for i in range(27 * BUCKETS_PER_OCTAVE + 1)
)

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


class Histogram:
    """Fixed-bucket duration histogram with exact count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-th percentile (0 < q <= 100)."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * q / 100.0))
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(BUCKET_BOUNDS):
                    return min(BUCKET_BOUNDS[index], self.max)
                return self.max
        return self.max

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        histogram = cls()
        histogram.merge_dict(payload)
        return histogram

    def merge_dict(self, payload: dict) -> None:
        self.count += int(payload.get("count", 0))
        self.total += float(payload.get("total", 0.0))
        other_min = payload.get("min")
        if other_min is not None and other_min < self.min:
            self.min = float(other_min)
        other_max = float(payload.get("max", 0.0))
        if other_max > self.max:
            self.max = other_max
        other_buckets = payload.get("buckets") or []
        for index, bucket_count in enumerate(other_buckets):
            if index < len(self.buckets):
                self.buckets[index] += int(bucket_count)


class MetricsRegistry:
    """Thread-safe registry of named duration histograms."""

    def __init__(self) -> None:
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def snapshot(self) -> dict:
        """A JSON-able copy: ``{"histograms": {name: Histogram.as_dict()}}``."""
        with self._lock:
            return {
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self.histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot in (bucket-wise sum)."""
        with self._lock:
            for name, payload in (snapshot.get("histograms") or {}).items():
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram()
                histogram.merge_dict(payload)

    def reset(self) -> None:
        with self._lock:
            self.histograms.clear()

    def to_prometheus(self, prefix: str = "deterrent_") -> str:
        """Render the histograms in the Prometheus text exposition format."""
        histograms = self.snapshot()["histograms"]
        lines: list[str] = []
        for name in sorted(histograms):
            payload = histograms[name]
            metric = prometheus_name(prefix + name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index, bound in enumerate(BUCKET_BOUNDS):
                cumulative += payload["buckets"][index]
                lines.append(f'{metric}_bucket{{le="{bound:.6g}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {payload["count"]}')
            lines.append(f"{metric}_sum {_format_value(payload['total'])}")
            lines.append(f"{metric}_count {payload['count']}")
        return "\n".join(lines) + "\n"


def prometheus_name(name: str) -> str:
    return _PROM_NAME.sub("_", name)


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while telemetry is disabled)."""
    if not _runtime.STATE.enabled:
        return
    _REGISTRY.observe(name, value)


def flush(trace_dir: str | None = None) -> None:
    """Write this process's cumulative registry to ``metrics-<pid>.json``.

    Atomic (:func:`repro.utils.fsio.atomic_write`) and cumulative, so
    flushing after every task is safe: the merged view reads each pid's
    latest totals once.
    """
    directory = trace_dir or _runtime.STATE.trace_dir
    if directory is None:
        return
    snapshot = _REGISTRY.snapshot()
    if not snapshot["histograms"]:
        return
    path = Path(directory) / f"metrics-{os.getpid()}.json"
    try:
        atomic_write(path, json.dumps(snapshot).encode())
    except OSError:
        pass  # telemetry must never take the workload down


def merged_snapshot(trace_dir: str | os.PathLike) -> dict:
    """Merge every ``metrics-*.json`` under ``trace_dir`` into one snapshot.

    Callers that hold live in-memory observations should :func:`flush`
    first.  Corrupt or mid-write files are skipped — telemetry reads are
    best-effort — and so is any file whose histograms use another bucket
    layout (a trace directory reused across versions), whose counts would
    otherwise land in the wrong buckets.
    """
    merged = MetricsRegistry()
    for path in sorted(Path(trace_dir).glob("metrics-*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and _has_current_layout(payload):
            merged.merge(payload)
    return merged.snapshot()


def _has_current_layout(snapshot: dict) -> bool:
    """True when every histogram in ``snapshot`` has this module's buckets."""
    return all(
        isinstance(payload, dict)
        and len(payload.get("buckets") or ()) == len(BUCKET_BOUNDS) + 1
        for payload in (snapshot.get("histograms") or {}).values()
    )


def percentile_summary(snapshot: dict) -> dict[str, dict[str, float]]:
    """p50/p90/p99 (plus count, total) for every histogram in a snapshot."""
    summary: dict[str, dict[str, float]] = {}
    for name, payload in (snapshot.get("histograms") or {}).items():
        histogram = Histogram.from_dict(payload)
        summary[name] = {
            "count": histogram.count,
            "total": histogram.total,
            "p50": histogram.percentile(50),
            "p90": histogram.percentile(90),
            "p99": histogram.percentile(99),
        }
    return summary


def payload_to_prometheus(payload: dict, prefix: str = "deterrent_") -> str:
    """Render a nested dict of numeric leaves as Prometheus gauges.

    Used by the service to expose its JSON ``/metrics`` payload (queue depth,
    worker liveness, cache counts, solver totals) in text exposition format
    without changing how the payload is assembled.
    """
    lines: list[str] = []

    def walk(node: dict, path: str) -> None:
        for key in sorted(node):
            value = node[key]
            name = f"{path}_{key}" if path else str(key)
            if isinstance(value, dict):
                walk(value, name)
            elif isinstance(value, bool):
                continue
            elif isinstance(value, (int, float)):
                metric = prometheus_name(prefix + name)
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_format_value(float(value))}")

    walk(payload, "")
    return "\n".join(lines) + "\n"


def reset_registry() -> None:
    """Clear the process-local registry (test isolation)."""
    _REGISTRY.reset()


__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "flush",
    "merged_snapshot",
    "observe",
    "payload_to_prometheus",
    "percentile_summary",
    "prometheus_name",
    "registry",
    "reset_registry",
]
