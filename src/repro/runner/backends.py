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

Backends resolve by name (:func:`backend_names` feeds the CLI's
``--backend`` choices); :func:`resolve_backend` also accepts any object
implementing :class:`ExecutionBackend`.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Protocol, runtime_checkable

@runtime_checkable
class ExecutionBackend(Protocol):
    """The backend seam: build an executor for one round of work.

    Attributes:
        name: stable identifier (``"serial"``, ``"process"``, ``"thread"``,
            or a custom backend's own name).
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
        """A fresh executor; the caller owns its lifecycle."""
        ...


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


#: The name table behind :func:`resolve_backend`: each backend class
#: builds a fresh instance.
_BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "thread": ThreadPoolBackend,
}


def backend_names() -> tuple[str, ...]:
    """Every backend name :func:`resolve_backend` accepts."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(
    backend: ExecutionBackend | str | None, jobs: int | None = None
) -> ExecutionBackend:
    """Normalise a backend request: instance, name, or None.

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
    "resolve_backend",
]
