"""Import boundaries: package ``__init__``s re-export nothing.

Importing a module loads only what that module imports, so the solver path
and the telemetry facade load without numpy or the experiment stack.  Each
boundary is checked in a fresh interpreter, because this test process has
long since imported the whole package.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_PARENT = Path(repro.__file__).resolve().parents[1]

#: Modules the light entry points must not pull in (prefixes cover subpackages).
HEAVY = ("numpy", "repro.core", "repro.circuits", "repro.runner")


def loaded_after_import(module: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that imported only ``module``."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(PACKAGE_PARENT)!r}); "
        f"import {module}; print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


@pytest.mark.parametrize("module", ["repro.sat.solver", "repro.obs", "repro.utils.fsio"])
def test_light_entry_points_skip_the_heavy_stack(module):
    loaded = loaded_after_import(module)
    assert module in loaded
    heavy = sorted(
        name for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in HEAVY)
    )
    assert heavy == []


@pytest.mark.parametrize(
    "path", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda path: path.name
)
def test_examples_import_cleanly(path):
    # Every example keeps its work under a __main__ guard, so importing it
    # only resolves its imports.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
