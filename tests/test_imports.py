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
import re
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


# ----------------------------------------------------------------------
# Every definition in src/ has a caller outside tests/
# ----------------------------------------------------------------------
#: Trees whose code counts as a caller.  ``tests/`` does not: code that only
#: tests run belongs in ``tests/`` (the simulation oracles live in
#: ``tests/oracles.py``).
CALLER_TREES = ("src", "examples", "perfbench", "scripts")

#: Definitions no caller tree references, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "repro/runner/faults.py::FaultPlan.crashing": "chaos-suite scripting of worker crashes",
    "repro/runner/faults.py::FaultPlan.hanging": "chaos-suite scripting of hung workers",
    "repro/runner/faults.py::FaultPlan.corrupting": "chaos-suite scripting of corrupt results",
    "repro/trojan/insertion.py::insert_sequential_trojan": (
        "the Trojan hardware that the ground-truth oracle in tests/oracles.py inserts"
    ),
    "repro/sat/heap.py::ActivityHeap.check_invariants": (
        "test hook: heap order and position index agree"
    ),
    "repro/sat/heap.py::ActivityHeap.bump": (
        "the heap's own sift-up, which the solver inlines; the heap tests drive it"
    ),
    "repro/service/server.py::_ServiceHandler.do_GET": (
        "http.server dispatches to do_<METHOD> by name"
    ),
    "repro/service/server.py::_ServiceHandler.do_POST": (
        "http.server dispatches to do_<METHOD> by name"
    ),
    "repro/runner/faults.py::active_fault_plan": (
        "chaos-suite check that no plan stays armed in the caller"
    ),
    "repro/experiments/common.py::clear_context_cache": (
        "test hook: drops the in-process memo of benchmark contexts"
    ),
    "repro/circuits/generators.py::random_logic_circuit": (
        "random netlists for the differential and property tests"
    ),
    "repro/circuits/bench_io.py::load_bench": "library API: read a .bench file from disk",
    "repro/sat/solver.py::solve_cnf": "library API: one-shot solve of a CNF",
    "repro/sat/temporal.py::replay_fire_cycles": (
        "library API: replay one sequence against one trigger (a batch of one)"
    ),
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module, prefix: str = "") -> list[tuple[str, str]]:
    """``(qualified name, name)`` of every def and class, nested ones included."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFINITION):
            qualified = f"{prefix}{node.name}"
            found.append((qualified, node.name))
            found.extend(_definitions(node, qualified + "."))
    return found


def _references(tree: ast.Module) -> set[str]:
    """Names that code in ``tree`` uses: loads, attributes, imports, name strings.

    A string that is an identifier or a dotted path counts, because harness
    hooks are looked up with ``getattr`` by name.  Docstrings and the
    ``__all__`` list do not count: naming a function is not calling it.
    """
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)) and ast.get_docstring(node) is not None:
            skipped.add(id(node.body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(id(item) for item in ast.walk(node.value))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and re.fullmatch(r"[A-Za-z_][\w.:]*", node.value)
        ):
            used.update(re.split(r"[.:]", node.value))
    return used


def unreferenced_definitions(root: Path) -> list[str]:
    """``path::qualname`` of each def/class under ``root/src`` that no caller tree uses.

    The match is by name, so it errs towards "referenced": a method counts
    as called when any attribute of that name is read anywhere.  Dunder
    methods are called by the language and are skipped.
    """
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for tree_name in CALLER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _references(tree)
            if tree_name == "src":
                module = path.relative_to(root / "src").as_posix()
                defined.extend(
                    (f"{module}::{qualified}", name) for qualified, name in _definitions(tree)
                )
    return sorted(
        label for label, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_in_src_has_a_caller_outside_tests():
    unreferenced = unreferenced_definitions(REPO_ROOT)
    assert sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED)) == []
    # An allowlist entry whose definition gained a caller, or is gone, is stale.
    assert sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced)) == []


def test_the_scanner_flags_an_uncalled_definition(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""Mentions dead() and hooked() in prose only."""\n'
        "__all__ = ['dead', 'live', 'hooked']\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def grow(self):\n"
        '        """Calls dead() nowhere."""\n'
        "def live():\n"
        "    return Box()\n"
        "def dead():\n"
        "    return live()\n"
        "def hooked():\n"
        "    pass\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "use.py").write_text(
        "from pkg.mod import live\nlive()\ngetattr(live, 'hooked')\n"
    )
    assert unreferenced_definitions(tmp_path) == [
        "pkg/mod.py::Box.grow",
        "pkg/mod.py::dead",
    ]
