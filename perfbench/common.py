"""Process control, statistics, span recording and the environment fingerprint.

Everything here is stdlib-only so run.py can start (and fail cleanly)
before the package under test is importable.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

#: Environment variables that switch on the package's own telemetry or
#: redirect its cache; the benchmark measures with all of them unset.
_PACKAGE_ENV = ("DETERRENT_TRACE_DIR", "DETERRENT_PROFILE", "DETERRENT_CACHE_DIR")

_PR_SET_CHILD_SUBREAPER = 36


def prepare_parent_process() -> None:
    """Make children interruptible and adopt orphaned descendants.

    A shell starts background jobs with SIGINT ignored, and an ignored
    signal stays ignored across ``exec``; the service is stopped with
    SIGINT, so the parent restores Python's handler (children then start
    with the default disposition).  As child subreaper it also inherits
    queue workers whose server exited, so they can be reaped and measured.
    """
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_env(work: Path) -> dict[str, str]:
    """Environment for every child: package from ``src/``, telemetry off, temp files in ``work``."""
    env = {key: value for key, value in os.environ.items() if key not in _PACKAGE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class ChildResult:
    """Exit status, wall time and resource usage of one finished child."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def _maxrss_mb(rusage) -> float:
    return rusage.ru_maxrss / 1024.0  # Linux reports KiB


def spin(iterations: int = 5_000) -> float:
    """Seconds a fixed pure-Python loop takes on the calling CPU right now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc += i & 7
        table[i & 255] = acc
    return time.perf_counter() - started


#: ``spin()`` on an otherwise idle vCPU of the machine the benchmark was
#: defined on (2-vCPU Xeon KVM guest, Python 3.11).  Times are scaled to
#: this speed; on another machine they are scaled consistently, just not to
#: that machine's own idle speed.
REFERENCE_SPIN_S = 0.38e-3

#: Pause between two ``spin()`` samples of a speed probe (~1% of a CPU).
PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Samples ``spin()`` on each given CPU, from a process pinned there, while a pass runs.

    On a shared VM a vCPU is slowed by 30-50% for stretches of seconds to
    minutes while the host core under it runs other tenants' work; the same
    solver pass took 8.1 s and 12.5 s back to back.  The loop slows with it,
    so ``factor`` = ``REFERENCE_SPIN_S`` x mean(1 / sample) turns a time
    measured during the pass into a time at the reference speed (the
    reciprocal mean keeps a sample the probe spent descheduled from
    dominating).
    """

    def __init__(self, cpus, env: dict, cwd: Path, log_dir: Path) -> None:
        self.children = [
            Child([sys.executable, str(HERE / "inproc.py"), "probe", "--interval", str(PROBE_INTERVAL_S)],
                  env, cwd, log_dir / f"probe-cpu{cpu}.log", cpu=cpu)
            for cpu in cpus
        ]
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        for child in self.children:
            child.signal(signal.SIGTERM)
        for child in self.children:
            result = child.wait(10)
            self.samples += [float(line) for line in result.stdout.split() if line[:1].isdigit()]

    @property
    def factor(self) -> float:
        samples = self.samples or [spin()]
        return REFERENCE_SPIN_S * statistics.fmean(1.0 / sample for sample in samples)


def serial_cpu() -> int | None:
    """The CPU a serial pass and its probe share (None where affinity cannot be set)."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def all_cpus() -> list[int | None]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]


class Child:
    """A child process whose exit is collected with ``wait4`` (for its peak RSS).

    With ``cpu`` set, the child (and anything it starts) runs on that CPU only.
    """

    def __init__(self, argv: list[str], env: dict, cwd: Path, log: Path,
                 new_session: bool = False, cpu: int | None = None) -> None:
        self.log = log
        self._log_file = open(log, "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=self._log_file, stderr=subprocess.STDOUT,
            start_new_session=new_session,
            preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
        )

    def signal(self, signum: int) -> None:
        try:
            os.kill(self.proc.pid, signum)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float) -> ChildResult:
        """Block until the child exits (killing it after ``timeout`` seconds)."""
        timer = threading.Timer(timeout, self.signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, rusage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._log_file.close()
        return ChildResult(
            returncode=self.proc.returncode,
            wall_s=ended - self.started,
            peak_rss_mb=_maxrss_mb(rusage),
            stdout=self.log.read_text(errors="replace"),
        )


def run_child(argv: list[str], env: dict, cwd: Path, log: Path,
              timeout: float = 170.0, cpu: int | None = None) -> ChildResult:
    return Child(argv, env, cwd, log, cpu=cpu).wait(timeout)


def reap_orphans(timeout: float = 10.0) -> float:
    """Wait for every adopted descendant to exit; return their largest peak RSS (MiB).

    Only call this when no direct child is still meant to run: it reaps any
    child.  Stragglers still alive at ``timeout`` are killed.
    """
    peak = 0.0
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _, rusage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return peak
        if pid:
            peak = max(peak, _maxrss_mb(rusage))
            continue
        if time.monotonic() > deadline:
            for pid in _live_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def _live_children() -> list[int]:
    me = str(os.getpid())
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            children.append(int(entry.name))
    return children


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with ``statistics.quantiles(n=4)``; a single value repeats."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def union_seconds(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded by the benchmark around calls into the program.

    A span is ``(id, parent id, name, start, end, attrs)`` on the
    ``perf_counter`` clock.  ``wrap_function`` and ``wrap_method`` patch a
    layer's public callable with a span-opening wrapper; ``restore`` puts
    every original back.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
            "name": name, "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span that does not nest (e.g. a job in flight beside others)."""
        self.spans.append({"id": len(self.spans), "parent": None, "name": name,
                           "start": start, "end": end, "attrs": attrs})

    def _wrapper(self, name: str, original, on_call=None, on_return=None):
        recorder = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            with recorder.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_function(self, function, name: str, package: str = "repro",
                      on_call=None, on_return=None) -> int:
        """Replace every module-level reference to ``function`` under ``package``."""
        wrapper = self._wrapper(name, function, on_call, on_return)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(package):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise LookupError(f"no reference to {function!r} found under {package}")
        return replaced

    def wrap_method(self, owner: type, attr: str, name: str, on_call=None, on_return=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, on_call, on_return))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, counting only the outermost span of a name."""
        totals: dict[str, float] = {}
        by_id = {span["id"]: span for span in self.spans}
        for span in self.spans:
            parent = span["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] == span["name"]:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
        return totals

    def covered(self, names) -> float:
        """Seconds covered by the union of the spans with the given names."""
        names = set(names)
        return union_seconds(
            (span["start"], span["end"]) for span in self.spans if span["name"] in names
        )

    def export(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Where and on what a result was measured (git state is None outside a repository)."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }
