"""Execution backends: where a unit of work actually runs.

Grid cells (:mod:`repro.runner.execution`), the one parallel stage of the
reproduction, run through :func:`make_executor`, which turns a backend name
and ``(max_workers, initializer, initargs)`` into a
``concurrent.futures.Executor``.  There are two backends (:data:`BACKENDS`):

- ``"serial"`` — runs everything in the calling process, in submission
  order.  The initializer runs once, in-process, so worker-state contracts
  (e.g. the cell worker's cache configuration) hold unchanged.
  This is the ``--jobs 1`` path, the reference for bit-identity checks, and
  the graceful-degradation target when the process pool keeps failing.
- ``"process"`` — a ``ProcessPoolExecutor``: real isolation, real
  parallelism, the only backend whose workers can genuinely crash (a dead
  worker surfaces as ``BrokenProcessPool``) and the only one whose attempts
  can be abandoned after a per-attempt timeout.

Executors are deliberately *dumb*: no retries, no timeouts, no fault
handling.  That robustness layer lives in :mod:`repro.runner.resilience`,
including rebuilding a broken pool and downgrading to ``"serial"`` mid-run.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Any, Callable

#: Every backend name :func:`resolve_backend` accepts (the CLI's choices).
BACKENDS = ("process", "serial")


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


def make_executor(
    backend: str,
    max_workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> Executor:
    """A fresh executor for ``backend``; the caller owns its lifecycle."""
    if backend == "process":
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=initializer, initargs=initargs
        )
    return _SerialExecutor(initializer, initargs)


def resolve_backend(backend: str | None, jobs: int | None = None) -> str:
    """Normalise a backend request to one of :data:`BACKENDS`.

    None picks the default from the job count: serial for ``jobs`` <= 1
    (or unknown), the process pool otherwise.
    """
    if backend is None:
        return "serial" if jobs is None or jobs <= 1 else "process"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"choose from: {', '.join(BACKENDS)}"
        )
    return backend


__all__ = ["BACKENDS", "make_executor", "resolve_backend"]
