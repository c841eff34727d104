"""Shared on/off state for the telemetry layer.

One switch controls everything: :func:`configure` points the process at a
trace directory and enables span export.  Everything stays a cheap no-op
until then.

The trace directory is also exported through the ``DETERRENT_TRACE_DIR``
environment variable so *spawned* worker processes (process pools under the
``spawn`` start method, ``deterrent queue-worker`` subprocesses launched by
``serve``) enable themselves on import.  Workers reached through an
initializer chain (:mod:`repro.runner.resilience`) or a queue-job header
(:mod:`repro.service.queue`) are configured explicitly as well, so the
environment variable is a belt-and-braces path, not a requirement.
"""

from __future__ import annotations

import os
import threading

ENV_TRACE_DIR = "DETERRENT_TRACE_DIR"


class _State:
    """Process-global telemetry switchboard (one instance per process)."""

    __slots__ = ("enabled", "trace_dir", "lock")

    def __init__(self) -> None:
        self.enabled = False
        self.trace_dir: str | None = None
        self.lock = threading.Lock()


STATE = _State()


def configure(trace_dir: str | os.PathLike, *, export_env: bool = True) -> None:
    """Enable telemetry, exporting spans under ``trace_dir``.

    With ``export_env`` the directory is published to child processes via
    the environment.
    """
    resolved = os.fspath(trace_dir)
    os.makedirs(resolved, exist_ok=True)
    with STATE.lock:
        STATE.trace_dir = resolved
        STATE.enabled = True
    if export_env:
        os.environ[ENV_TRACE_DIR] = resolved


def disable() -> None:
    """Turn telemetry off again (tests; long-lived embedding processes)."""
    with STATE.lock:
        STATE.enabled = False
        STATE.trace_dir = None
    os.environ.pop(ENV_TRACE_DIR, None)


def enabled() -> bool:
    return STATE.enabled


def trace_dir() -> str | None:
    return STATE.trace_dir


def _autoconfigure_from_env() -> None:
    env_dir = os.environ.get(ENV_TRACE_DIR)
    if env_dir and not STATE.enabled:
        try:
            configure(env_dir, export_env=False)
        except OSError:
            pass  # unwritable inherited path: stay disabled rather than crash


_autoconfigure_from_env()
