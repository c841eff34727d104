"""Plain-text and structured-JSON reporting helpers shared by the harnesses."""

from __future__ import annotations

import json
from pathlib import Path

from repro.utils.fsio import atomic_write


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a simple fixed-width text table.

    Rows shorter than the header list are padded with empty cells (rendered
    as ``—``); rows longer than the header list are rejected, since silently
    dropping trailing cells would misreport results.
    """
    num_columns = len(headers)
    columns = [[str(header)] for header in headers]
    for row_index, row in enumerate(rows):
        if len(row) > num_columns:
            raise ValueError(
                f"row {row_index} has {len(row)} cells but there are only "
                f"{num_columns} headers: {row!r}"
            )
        padded = list(row) + [None] * (num_columns - len(row))
        for index, cell in enumerate(padded):
            columns[index].append(_format_cell(cell))
    widths = [max(len(value) for value in column) for column in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row_index in range(len(rows)):
        lines.append(
            "  ".join(
                columns[col][row_index + 1].ljust(widths[col]) for col in range(num_columns)
            )
        )
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if cell is None:
        return "—"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def save_json(data: object, path: str | Path) -> Path:
    """Serialise experiment results to JSON (creating parent directories).

    The write is atomic, so an interrupted run leaves the previous file or
    none, never a truncated one that ``deterrent report`` would choke on.
    """
    path = Path(path)
    atomic_write(path, (json.dumps(data, indent=2, default=str) + "\n").encode())
    return path


def append_jsonl(record: object, path: str | Path) -> Path:
    """Append one JSON line to ``path`` (creating parent directories).

    Used by the experiment runner to stream per-cell results as they
    complete, so interrupted runs still leave partial structured output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, default=str) + "\n")
    return path


def load_jsonl(path: str | Path) -> list[dict]:
    """Read back a JSONL stream written by :func:`append_jsonl`."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def results_dir() -> Path:
    """Default output directory for experiment artefacts."""
    return Path("results")


def resilience_summary(counters: dict | None) -> str:
    """One report line for a run's retry/downgrade counters.

    ``counters`` is the dict produced by
    :meth:`repro.runner.resilience.ResilientOutcome.counters` (also stored
    under the ``"resilience"`` key of a run record).  A clean run reads
    ``execution: backend=process, clean`` so every report states which
    backend produced it; a bumpy run itemises what happened, e.g.
    ``execution: backend=process, retries=2 (crashes=1, timeouts=1),
    degraded to serial (too many backend failures)``.
    """
    if not counters:
        return "execution: no resilience data"
    parts = [f"backend={counters.get('backend', '?')}"]
    retries = counters.get("retries", 0)
    if retries:
        causes = ", ".join(
            f"{key}={counters[key]}"
            for key in ("crashes", "timeouts", "errors", "corrupt")
            if counters.get(key)
        )
        parts.append(f"retries={retries}" + (f" ({causes})" if causes else ""))
    if counters.get("degraded"):
        reason = counters.get("degraded_reason")
        parts.append(
            f"degraded to {counters.get('final_backend', 'serial')}"
            + (f" ({reason})" if reason else "")
        )
    backend_counters = counters.get("backend_counters") or {}
    if backend_counters:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(backend_counters.items())
        )
        parts.append(f"queue: {rendered}")
    if len(parts) == 1:
        parts.append("clean")
    return "execution: " + ", ".join(parts)


def telemetry_summary(telemetry: dict | None) -> str | None:
    """One report line for a run's telemetry block, or None when absent.

    ``telemetry`` is the dict :func:`repro.obs.summary` put in the run
    record (``None`` when tracing was off).  Example output::

        telemetry: 42 spans, 5 timed paths -> /tmp/trace
    """
    if not telemetry:
        return None
    return (
        f"telemetry: {telemetry.get('spans', 0)} spans, "
        f"{len(telemetry.get('profiles') or {})} timed paths -> "
        f"{telemetry.get('trace_dir', '?')}"
    )


__all__ = [
    "format_table",
    "save_json",
    "append_jsonl",
    "load_jsonl",
    "resilience_summary",
    "results_dir",
    "telemetry_summary",
]
