"""Build and load ``_kernel.c``, the C inner loop of the CDCL solver.

:func:`kernel` compiles the kernel once with the system C compiler and the
Python headers, and keeps the shared object in ``__pycache__/`` next to the
source.  Its file name carries a digest of the source and the compiler
flags, so a changed source builds a new file, as a ``.pyc`` is rebuilt.
Concurrent first builds (``--jobs 2``, two service workers) take turns
under :func:`~repro.utils.fsio.file_lock`, and :func:`~repro.utils.fsio
.atomic_write` publishes the result, so no process loads a torn file.

Without a compiler or headers, in a read-only install, or when the build
fails, :func:`kernel` returns None and :class:`~repro.sat.solver.CdclSolver`
runs its Python methods, which the kernel mirrors step for step.
"""

from __future__ import annotations

import hashlib
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

from repro.utils.fsio import atomic_write, file_lock

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")


@cache
def kernel() -> ModuleType | None:
    """The kernel module, or None where it cannot be built (once per process)."""
    return load(SOURCE, SOURCE.parent / "__pycache__")


def load(source: Path, build_dir: Path) -> ModuleType | None:
    """Load the kernel built from ``source`` in ``build_dir``, building it first if absent."""
    try:
        text = source.read_bytes()
        tag = hashlib.sha256(text + " ".join(FLAGS).encode()).hexdigest()[:16]
        target = Path(build_dir) / f"_kernel.{tag}{EXTENSION_SUFFIXES[0]}"
        if not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            with file_lock(target):
                if not target.exists():
                    atomic_write(target, _compile(source))
        loader = ExtensionFileLoader("repro.sat._kernel", str(target))
        spec = spec_from_file_location("repro.sat._kernel", target, loader=loader)
        module = module_from_spec(spec)
        loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


def _compile(source: Path) -> bytes:
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
            [*compiler, *FLAGS, f"-I{include}", str(source), "-o", str(output)],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise OSError(f"building {source.name} failed: {done.stderr[-2000:]}")
        return output.read_bytes()


__all__ = ["SOURCE", "kernel", "load"]
