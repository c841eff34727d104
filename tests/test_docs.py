"""Documentation health: intra-repo links and docs/registry agreement."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _link_checker():
    """Import scripts/check_doc_links.py as a module (it is not packaged)."""
    path = REPO_ROOT / "scripts" / "check_doc_links.py"
    spec = importlib.util.spec_from_file_location("check_doc_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocLinks:
    def test_docs_pages_exist(self):
        assert (REPO_ROOT / "docs" / "architecture.md").is_file()
        assert (REPO_ROOT / "docs" / "experiments.md").is_file()

    def test_readme_links_the_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/architecture.md" in readme
        assert "docs/experiments.md" in readme

    def test_no_broken_intra_repo_links(self):
        checker = _link_checker()
        files = checker.doc_files(REPO_ROOT)
        assert len(files) >= 3  # README + the two docs pages
        assert checker.broken_links(REPO_ROOT) == []

    def test_checker_flags_a_broken_link(self, tmp_path):
        checker = _link_checker()
        (tmp_path / "README.md").write_text(
            "[ok](docs/page.md) [bad](missing.md) [web](https://example.com)"
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "page.md").write_text("[up](../README.md#anchor)")
        broken = checker.broken_links(tmp_path)
        assert [target for _, target in broken] == ["missing.md"]


class TestDocsMatchRegistry:
    def test_every_registered_harness_is_documented(self):
        from repro.runner.registry import all_experiments

        text = (REPO_ROOT / "docs" / "experiments.md").read_text()
        for spec in all_experiments():
            assert f"`{spec.name}`" in text, f"{spec.name} missing from docs/experiments.md"

    def test_every_documented_backend_exists(self):
        from repro.runner.backends import BACKENDS

        shown = set()
        for path in _link_checker().doc_files(REPO_ROOT):
            for match in re.finditer(r"--backend[ =]([\w|]+)", path.read_text()):
                shown.update(match.group(1).split("|"))
        assert shown, "no --backend example in README.md or docs/"
        assert sorted(shown - set(BACKENDS)) == []

    def test_no_doc_names_a_removed_entry_point(self):
        # Harnesses run only through ``deterrent run`` / ``run_experiment``;
        # the per-module ``python -m repro.experiments.<name>`` mains are gone.
        # Spans are the only timing mechanism: the histogram registry, its
        # per-pid files and the sampled profiling hooks are gone too.  So are
        # the MERO baseline, Verilog I/O, netlist statistics, the stopwatch
        # and the per-spec cell resilience defaults, and so are the sharded
        # SAT stages with their ``n_jobs`` knobs, the hand-built
        # write-through copy of the cache keys, and the simulator shim with
        # its ``engine=`` option (the oracles moved to tests/oracles.py).
        removed = (
            "python -m repro.experiments.",
            "DETERRENT_PROFILE",
            "metrics-<pid>.json",
            "repro.obs.profile",
            "repro.obs.metrics",
            "hot_path",
            "MERO",
            "Verilog",
            "netlist_stats",
            "Stopwatch",
            "cell_timeout",
            "sharded_map",
            "n_jobs",
            "repro.runner.parallel",
            "_write_through",
            "logic_sim",
            "BitParallelSimulator",
            'engine="reference"',
        )
        paths = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        paths += sorted(p for p in (REPO_ROOT / ".claude" / "skills").rglob("*") if p.is_file())
        stale = [
            f"{path.relative_to(REPO_ROOT)}:{number}: {name}"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            for name in removed
            if name in line
        ]
        assert stale == []
