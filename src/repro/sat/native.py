"""Build and load ``_kernel.c``, the C inner loop of the CDCL solver.

:func:`kernel` compiles the kernel once with the system C compiler and the
Python headers, and keeps the shared object in ``__pycache__/`` next to the
source.  Its file name carries a digest of the source and the compiler
flags, so a changed source builds a new file, as a ``.pyc`` is rebuilt, and
the new build removes the older ones.
Concurrent first builds (``--jobs 2``, two service workers) take turns
under :func:`~repro.utils.fsio.file_lock`, and :func:`~repro.utils.fsio
.atomic_write` publishes the result, so no process loads a torn file.

Without a compiler or headers, in a read-only install, or when the build
fails, :func:`kernel` returns None and :class:`~repro.sat.solver.CdclSolver`
runs its Python methods, which the kernel mirrors step for step.
"""

from __future__ import annotations

import hashlib
from array import array
from contextlib import suppress
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

from repro.utils.fsio import atomic_write, file_lock

SOURCE = Path(__file__).with_name("_kernel.c")
# The ``--param`` pair lowers GCC's garbage-collection thresholds, whose
# defaults grow with host RAM and let the compiler hold every intermediate
# form until it exits: the cold build's peak memory (which counts against the
# first process that solves) drops from about 55 to 46 MiB, and the machine
# code is byte-identical.  Clang ignores ``--param`` with a warning.
FLAGS = (
    "-O2", "-shared", "-fPIC", "--param", "ggc-min-heapsize=8192", "--param", "ggc-min-expand=10"
)


@cache
def kernel() -> ModuleType | None:
    """The kernel module, or None where it cannot be built (once per process)."""
    return load(SOURCE, SOURCE.parent / "__pycache__")


def table(typecode: str, items=()) -> array | list:
    """A solver table: an ``array`` the kernel reads where it loads, else a list.

    CPython specialises list subscripts but not ``array`` ones, so the Python
    methods, which run where no kernel loads, are faster on lists.
    """
    return list(items) if kernel() is None else array(typecode, items)


def extend(table: array | list, value, count: int) -> None:
    """Append ``count`` copies of ``value`` to a :func:`table`, as one typed block."""
    table.extend([value] * count if type(table) is list else _item(table.typecode, value) * count)


@cache
def _item(typecode: str, value) -> array:
    return array(typecode, [value])


def load(source: Path, build_dir: Path, flags=FLAGS) -> ModuleType | None:
    """Load the kernel built from ``source`` in ``build_dir``, building it first if absent.

    ``flags`` are the compiler flags (a sanitizer build passes its own); they
    are part of the build's name.
    """
    try:
        text = source.read_bytes()
        tag = hashlib.sha256(text + " ".join(flags).encode()).hexdigest()[:16]
        target = Path(build_dir) / f"_kernel.{tag}{EXTENSION_SUFFIXES[0]}"
        if not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            with file_lock(target):
                if not target.exists():
                    atomic_write(target, _compile(source, flags))
                    _remove_older_builds(target)
        loader = ExtensionFileLoader("repro.sat._kernel", str(target))
        spec = spec_from_file_location("repro.sat._kernel", target, loader=loader)
        module = module_from_spec(spec)
        loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


def _remove_older_builds(target: Path) -> None:
    """Delete this interpreter's other builds beside ``target`` (a loaded one stays mapped)."""
    keep = (target, target.with_suffix(".lock"))
    for tail in (EXTENSION_SUFFIXES[0], Path(EXTENSION_SUFFIXES[0]).with_suffix(".lock").name):
        for old in target.parent.glob(f"_kernel.*{tail}"):
            if old not in keep:
                with suppress(OSError):
                    old.unlink()


def _compile(source: Path, flags=FLAGS) -> bytes:
    """The shared object built from ``source``; OSError when the build fails."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    with tempfile.TemporaryDirectory() as scratch:
        output = Path(scratch) / "kernel.so"
        done = subprocess.run(
            [*compiler, *flags, f"-I{include}", str(source), "-o", str(output)],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise OSError(f"building {source.name} failed: {done.stderr[-2000:]}")
        return output.read_bytes()


__all__ = ["SOURCE", "extend", "kernel", "load", "table"]
