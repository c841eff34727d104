"""The shared on-disk write path (``repro.utils.fsio``) and its callers."""

from __future__ import annotations

import json
import multiprocessing
import re
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.runner.cache import ArtifactCache, get_default_cache, set_default_cache
from repro.runner.execution import ExperimentRunner
from repro.runner.registry import ExperimentSpec, GridCell
from repro.utils.fsio import CounterFile, atomic_write, file_lock


@pytest.fixture(autouse=True)
def _reset_default_cache():
    yield
    set_default_cache(None)


ADDS_PER_CONTENDER = 25


def _add_many(path: str) -> None:
    counters = CounterFile(Path(path))
    for _ in range(ADDS_PER_CONTENDER):
        counters.add({"events": 1})


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "file.bin"
        atomic_write(target, b"first")
        atomic_write(target, b"second")
        assert target.read_bytes() == b"second"
        assert [path.name for path in target.parent.iterdir()] == ["file.bin"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            atomic_write(target, b"data")
        assert [path.name for path in tmp_path.iterdir()] == ["occupied"]


class TestFileLock:
    def test_locks_the_lock_suffix_path(self, tmp_path):
        with file_lock(tmp_path / "entry.pkl"):
            assert (tmp_path / "entry.lock").exists()

    def test_unopenable_lock_degrades_to_unlocked(self, tmp_path):
        with file_lock(tmp_path / "missing-dir" / "entry.pkl"):
            pass


class TestCounterFile:
    def test_counts_are_conserved_across_processes_and_threads(self, tmp_path):
        path = str(tmp_path / "counts.json")
        context = multiprocessing.get_context("spawn")
        processes = [context.Process(target=_add_many, args=(path,)) for _ in range(2)]
        threads = [threading.Thread(target=_add_many, args=(path,)) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in processes + threads:
                worker.start()
            for worker in processes + threads:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in processes + threads)
        assert [process.exitcode for process in processes] == [0, 0]
        assert CounterFile(Path(path)).read() == {"events": 4 * ADDS_PER_CONTENDER}

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["hits", "misses", "stores", "reclaim"]),
                st.integers(min_value=-1000, max_value=1000),
            ),
            max_size=8,
        )
    )
    def test_read_equals_the_sum_of_every_add(self, deltas):
        expected: dict[str, int] = {}
        for delta in deltas:
            for key, value in delta.items():
                expected[key] = expected.get(key, 0) + value
        with tempfile.TemporaryDirectory() as directory:
            counters = CounterFile(Path(directory) / "counts.json")
            for delta in deltas:
                counters.add(delta)
            assert counters.read() == expected

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", '"text"', "\x00\xff"])
    def test_corrupt_or_non_dict_file_reads_empty_and_restarts(self, tmp_path, content):
        path = tmp_path / "counts.json"
        path.write_text(content)
        counters = CounterFile(path)
        assert counters.read() == {}
        counters.add({"hits": 2})
        assert counters.read() == {"hits": 2}

    def test_non_integer_values_are_ignored(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"hits": 3, "note": "x", "flag": True}))
        assert CounterFile(path).read() == {"hits": 3}

    def test_failed_add_is_swallowed(self, tmp_path):
        path = tmp_path / "counts.json"
        path.mkdir()  # the counts can be neither read nor replaced
        counters = CounterFile(path)
        counters.add({"hits": 1})
        assert counters.read() == {}


# A toy harness (module level: the runner resolves harness hooks by module).
def cells(profile, options):
    return [GridCell(name=f"x={x}", params={"x": x}) for x in (1, 2)]


def run_cell(params, profile):
    cache = get_default_cache()
    return cache.fetch("toy", lambda: params["x"] * 10, x=params["x"])


def collect(results):
    return results


def report(collected):
    return f"toy: {collected}"


class TestUnwritableStats:
    """Counters are telemetry: a cache whose ``stats.json`` cannot be
    written still loads, stores and runs, with exact session counts."""

    def _bad_root(self, tmp_path) -> Path:
        root = tmp_path / "cache"
        (root / "stats.json").mkdir(parents=True)
        return root

    def test_load_and_store_keep_working(self, tmp_path):
        cache = ArtifactCache(self._bad_root(tmp_path))
        assert cache.load("kind", k=1) is None
        cache.store("kind", "artifact", k=1)
        assert cache.load("kind", k=1) == "artifact"
        snapshot = cache.stats_snapshot()
        assert snapshot["session"] == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}
        assert set(snapshot["lifetime"].values()) == {0}

    def test_a_run_completes_with_exact_cache_stats(self, tmp_path):
        spec = ExperimentSpec(name="fsio_toy", module=__name__, title="toy")
        runner = ExperimentRunner(jobs=1, cache_dir=self._bad_root(tmp_path))
        run = runner.run(spec, profile="tiny")
        assert run.collected == [10, 20]
        assert run.cache_stats == {"hits": 0, "misses": 4, "stores": 2, "corrupt": 0}


WRITE_PRIMITIVES = re.compile(r"os\.replace\(|mkstemp\(|flock\(")


def test_only_fsio_calls_the_write_primitives():
    """Durable writes go through ``utils/fsio.py``; nothing re-implements them."""
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        if path.relative_to(package) != Path("utils/fsio.py")
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if WRITE_PRIMITIVES.search(line)
    ]
    assert offenders == []
