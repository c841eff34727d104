"""Pluggable execution backends: where a unit of work actually runs.

Every parallel stage of the reproduction — grid cells in
:mod:`repro.runner.execution`, SAT shards in :mod:`repro.runner.parallel` —
used to hard-code a ``ProcessPoolExecutor``.  This module is the seam that
removes that assumption: an :class:`ExecutionBackend` turns ``(max_workers,
initializer, initargs)`` into a ``concurrent.futures.Executor``-shaped
object, and the callers only ever talk to that interface.  Three
implementations ship:

- :class:`SerialBackend` — runs everything in the calling process, in
  submission order.  The initializer runs once, in-process, so worker-state
  contracts (e.g. the per-worker solver stacks in ``parallel.py``) hold
  unchanged.  This is the ``--jobs 1`` path, the reference for bit-identity
  checks, and the graceful-degradation target when a pooled backend keeps
  failing.
- :class:`ProcessPoolBackend` — the classic ``ProcessPoolExecutor``: real
  isolation, real parallelism, and the only backend whose workers can
  genuinely crash (a dead worker surfaces as ``BrokenProcessPool``).
- :class:`ThreadPoolBackend` — an in-process ``ThreadPoolExecutor``: no
  pickling, no fork cost.  Suited to I/O-bound cells and cheap tests;
  CPU-bound SAT work gains little under the GIL.  Worker initializers run
  once per thread, so per-worker state must be thread-local (which the
  sharded SAT paths guarantee).

Backends are deliberately *dumb*: no retries, no timeouts, no fault
handling.  That robustness layer lives in :mod:`repro.runner.resilience`,
which drives any backend through this interface — including rebuilding a
broken pool and downgrading to :class:`SerialBackend` mid-run.

Backends resolve by *registered name* (:func:`register_backend` /
:func:`backend_names`), so out-of-tree implementations plug into
``--backend`` without touching this module.  The durable-queue backend
(:mod:`repro.service.queue_backend`, the detection-as-a-service remote
half) registers lazily under ``"queue"`` — its factory imports the service
package only when the name is actually requested.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Protocol, runtime_checkable

@runtime_checkable
class ExecutionBackend(Protocol):
    """The backend seam: build an executor for one round of work.

    Attributes:
        name: stable identifier (``"serial"``, ``"process"``, ``"thread"``,
            or a custom name for third-party backends).
        workers_are_processes: True when workers live in dedicated
            processes — a scripted ``crash`` fault may really ``os._exit``,
            and an abandoned executor's workers can be terminated.
        supports_timeout: True when the caller can keep going after a
            worker exceeds a per-attempt timeout (pooled backends); the
            serial backend runs work inline and cannot preempt it.
    """

    name: str
    workers_are_processes: bool
    supports_timeout: bool

    def make_executor(
        self,
        max_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> Executor:
        """A fresh executor; the caller owns its lifecycle.

        The returned executor may additionally expose two *optional* hooks
        the resilience layer probes for: ``cancel_pending()`` (withdraw
        work that never started, called when a round is abandoned) and
        ``backend_counters() -> dict[str, int]`` (self-reported robustness
        counters — the queue executor reports worker ``respawns``, lease
        ``reclaims``, and total job ``deliveries``; collected via
        :func:`collect_executor_counters` before shutdown).
        """
        ...


def collect_executor_counters(executor: Executor) -> dict[str, int]:
    """An executor's self-reported counters, or ``{}``.

    Probes the optional ``backend_counters()`` hook (see
    :meth:`ExecutionBackend.make_executor`).  Must be called *before* the
    executor shuts down: the queue executor derives its counters from
    event counts that live in a directory shutdown may delete.  Never raises —
    counters are telemetry, not control flow.
    """
    collect = getattr(executor, "backend_counters", None)
    if not callable(collect):
        return {}
    try:
        counters = collect()
    except Exception:  # noqa: BLE001 - telemetry must not fail the round
        return {}
    if not isinstance(counters, dict):
        return {}
    return {
        str(key): int(value)
        for key, value in counters.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


class _SerialExecutor(Executor):
    """Inline ``Executor``: ``submit`` runs the work before returning.

    The initializer runs lazily on the first submit so that an initializer
    failure surfaces as that future's exception — the same observable
    behaviour a broken pool initializer has — rather than at construction.
    """

    def __init__(
        self, initializer: Callable[..., None] | None, initargs: tuple
    ) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._initialized = initializer is None

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        if not self._initialized:
            try:
                self._initializer(*self._initargs)
            except BaseException as error:  # noqa: BLE001 - mirrored into the future
                future.set_exception(error)
                return future
            self._initialized = True
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


class SerialBackend:
    """Run every task inline in the calling process (the reference path)."""

    name = "serial"
    workers_are_processes = False
    supports_timeout = False

    def make_executor(
        self,
        max_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> Executor:
        return _SerialExecutor(initializer, initargs)


class ProcessPoolBackend:
    """Dedicated worker processes (the historical hard-coded default)."""

    name = "process"
    workers_are_processes = True
    supports_timeout = True

    def make_executor(
        self,
        max_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> Executor:
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=initializer, initargs=initargs
        )


class ThreadPoolBackend:
    """In-process worker threads (I/O-bound cells, cheap tests)."""

    name = "thread"
    workers_are_processes = False
    supports_timeout = True

    def make_executor(
        self,
        max_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> Executor:
        return ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="deterrent-worker",
            initializer=initializer,
            initargs=initargs,
        )


def _queue_backend_factory() -> "ExecutionBackend":
    """Lazy factory for the durable-queue backend (avoids an import cycle
    and keeps the service package out of the CLI's import hot path)."""
    from repro.service.queue_backend import QueueBackend

    return QueueBackend()


#: The registered-name table behind :func:`resolve_backend`.  Each entry is
#: a zero-argument factory returning a fresh backend instance.
_BACKENDS: dict[str, Callable[[], "ExecutionBackend"]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "thread": ThreadPoolBackend,
    "queue": _queue_backend_factory,
}


def register_backend(
    name: str, factory: Callable[[], "ExecutionBackend"], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` for :func:`resolve_backend`.

    The factory takes no arguments and returns a fresh backend; it may
    import lazily.  Re-registering an existing name requires
    ``replace=True`` so typos cannot silently shadow a built-in.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def backend_names() -> tuple[str, ...]:
    """Every resolvable backend name (built-ins plus registered extras)."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(
    backend: "ExecutionBackend | str | None", jobs: int | None = None
) -> ExecutionBackend:
    """Normalise a backend request: instance, registered name, or None.

    None picks the historical default from the job count: serial for
    ``jobs`` <= 1 (or unknown), the process pool otherwise.
    """
    if backend is None:
        backend = "serial" if jobs is None or jobs <= 1 else "process"
    if isinstance(backend, str):
        try:
            factory = _BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown execution backend {backend!r}; "
                f"choose from: {', '.join(backend_names())}"
            ) from None
        return factory()
    return backend


__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "backend_names",
    "collect_executor_counters",
    "register_backend",
    "resolve_backend",
]
