"""Import boundaries: package ``__init__``s re-export nothing.

Importing a module loads only what that module imports, so the solver path
and the telemetry facade load without numpy or the experiment stack.  Each
boundary is checked in a fresh interpreter, because this test process has
long since imported the whole package.
"""

from __future__ import annotations

import ast
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
    "module", ["repro.core.compatibility", "repro.core.patterns", "repro.core.sequence_gen"]
)
def test_sat_stages_load_no_runner_beyond_the_cache(module):
    # Every SAT stage runs in order on the caller's own solver: the stages
    # reach the runner only for the artifact cache, and never spawn workers.
    loaded = loaded_after_import(module)
    assert module in loaded
    runner = sorted(name for name in loaded if name.startswith("repro.runner."))
    assert runner == ["repro.runner.cache"]
    assert not any(
        name == "multiprocessing" or name.startswith("multiprocessing.") for name in loaded
    )


def test_the_solver_loads_without_telemetry():
    # The CDCL loop has no timing probes; solver work is timed by the spans
    # of its callers.
    assert not any(
        name == "repro.obs" or name.startswith("repro.obs.")
        for name in loaded_after_import("repro.sat.solver")
    )


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


def _public_definitions_and_all(path: Path) -> tuple[set[str], set[str] | None]:
    """Public top-level ``def``/``class`` names of a module, and its ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    exported = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return defined, exported


MODULES_WITH_ALL = [
    path for path in sorted(PACKAGE_PARENT.joinpath("repro").rglob("*.py"))
    if _public_definitions_and_all(path)[1] is not None
]


@pytest.mark.parametrize(
    "path", MODULES_WITH_ALL,
    ids=lambda path: ".".join(path.relative_to(PACKAGE_PARENT).with_suffix("").parts),
)
def test_all_names_every_public_definition(path):
    # A module's public API is its ``__all__``: a public function or class
    # left out of it is either missing from the list or should be private.
    defined, exported = _public_definitions_and_all(path)
    assert sorted(defined - exported) == []
