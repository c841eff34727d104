"""Tests for the on-disk artifact cache."""

from __future__ import annotations

import ast
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import generators
from repro.circuits.library import load_benchmark
from repro.core.compatibility import compute_compatibility
from repro.experiments import common
from repro.runner.cache import (
    ArtifactCache,
    CacheStats,
    config_fingerprint,
    netlist_fingerprint,
    set_default_cache,
)
from repro.simulation.rare_nets import extract_rare_nets

PACKAGE_ROOT = Path(common.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _reset_default_cache():
    yield
    set_default_cache(None)


@pytest.fixture(scope="module")
def c2670():
    """The c2670 analogue — smallest Table 2 library circuit."""
    return load_benchmark("c2670_like")


@pytest.fixture(scope="module")
def c2670_rare(c2670):
    return extract_rare_nets(c2670, threshold=0.1, num_patterns=1024, seed=0)


class TestFingerprints:
    def test_netlist_fingerprint_stable_across_copies(self, c2670):
        assert netlist_fingerprint(c2670) == netlist_fingerprint(c2670.copy())

    def test_netlist_fingerprint_distinguishes_structure(self, c2670):
        other = generators.c17()
        assert netlist_fingerprint(c2670) != netlist_fingerprint(other)

    def test_config_fingerprint_order_independent(self):
        assert config_fingerprint(a=1, b=2.5) == config_fingerprint(b=2.5, a=1)

    def test_config_fingerprint_sensitive_to_values(self):
        assert config_fingerprint(threshold=0.1) != config_fingerprint(threshold=0.2)

    def test_config_fingerprint_handles_nested_structures(self):
        digest = config_fingerprint(rare=[("n1", 0), ("n2", 1)], nested={"x": [1, 2]})
        assert len(digest) == 64


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("rare_nets", key=1) is None
        cache.store("rare_nets", ["payload"], key=1)
        assert cache.load("rare_nets", key=1) == ["payload"]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss_on_config_change(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("rare_nets", "a", netlist="fp", threshold=0.1)
        assert cache.load("rare_nets", netlist="fp", threshold=0.1) == "a"
        assert cache.load("rare_nets", netlist="fp", threshold=0.12) is None
        assert cache.load("rare_nets", netlist="other", threshold=0.1) is None

    def test_corrupt_entry_falls_back_to_recompute(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store("trojans", [1, 2, 3], key="x")
        path.write_bytes(b"\x80garbage not a pickle")
        assert cache.load("trojans", key="x") is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # the broken entry was dropped
        # fetch() rebuilds and re-stores.
        assert cache.fetch("trojans", lambda: [4, 5], key="x") == [4, 5]
        assert cache.load("trojans", key="x") == [4, 5]

    def test_fetch_builds_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return {"x": 1}

        assert cache.fetch("kind", build, k=1) == {"x": 1}
        assert cache.fetch("kind", build, k=1) == {"x": 1}
        assert len(calls) == 1


class TestDigestAddressing:
    """Entries addressed by a pre-computed digest (the service job path)."""

    def test_load_digest_reads_what_store_wrote(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("jobs", {"answer": 42}, design="c17", k=2)
        digest = config_fingerprint(design="c17", k=2)
        assert cache.path_for_digest("jobs", digest) == cache.path_for(
            "jobs", design="c17", k=2
        )
        assert cache.load_digest("jobs", digest) == {"answer": 42}
        assert cache.stats.hits == 1

    def test_load_digest_miss_counts_like_load(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load_digest("jobs", "f" * 64) is None
        assert cache.stats.misses == 1


class TestStatsPersistence:
    """Lifetime hit/miss counters shared across processes (``/metrics``).

    Every event is written through to ``<root>/stats.json`` as it happens,
    so there is no flush step: a second cache object on the same root (in
    practice, another process) sees the counts immediately.
    """

    def test_events_are_written_through(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.load("kind", k=1)  # miss
        cache.store("kind", "artifact", k=1)
        cache.load("kind", k=1)  # hit
        persisted = json.loads((tmp_path / "stats.json").read_text())
        assert persisted == {"misses": 1, "stores": 1, "hits": 1}
        # The session keeps counting alongside the lifetime file.
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
        }

    def test_lifetime_stats_accumulate_across_cache_objects(self, tmp_path):
        first = ArtifactCache(tmp_path)
        first.store("kind", "a", k=1)
        # A different process (here: a different object) on the same root
        # sees the store at once and adds its own counts to the same file.
        second = ArtifactCache(tmp_path)
        assert second.stats_snapshot()["lifetime"]["stores"] == 1
        assert second.load("kind", k=1) == "a"
        lifetime = first.stats_snapshot()["lifetime"]
        assert lifetime == {"hits": 1, "misses": 0, "stores": 1, "corrupt": 0}
        assert first.stats_snapshot()["session"]["hits"] == 0
        assert second.stats_snapshot()["session"]["hits"] == 1

    def test_corrupt_entry_counts_in_the_lifetime_file(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("kind", "a", k=1).write_bytes(b"garbage")
        assert cache.load("kind", k=1) is None
        lifetime = cache.stats_snapshot()["lifetime"]
        assert lifetime == {"hits": 0, "misses": 1, "stores": 1, "corrupt": 1}

    def test_no_events_write_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert set(cache.stats_snapshot()["lifetime"].values()) == {0}
        assert not (tmp_path / "stats.json").exists()

    def test_corrupt_stats_file_reads_as_empty(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("kind", "a", k=1)
        (tmp_path / "stats.json").write_text("{not json")
        assert set(cache.stats_snapshot()["lifetime"].values()) == {0}
        # And the next event starts a fresh lifetime file.
        cache.load("kind", k=1)
        assert json.loads((tmp_path / "stats.json").read_text()) == {"hits": 1}

    def test_snapshot_of_a_nonexistent_root_degrades_gracefully(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-created")
        snapshot = cache.stats_snapshot()
        assert snapshot["session"] == {"hits": 0, "misses": 0, "stores": 0,
                                       "corrupt": 0}
        assert snapshot["lifetime"] == snapshot["session"]


class TestPruneAndInventory:
    def _populate(self, tmp_path, kinds=("rare_nets", "trojans"), per_kind=3):
        cache = ArtifactCache(tmp_path / "cache")
        for kind in kinds:
            for index in range(per_kind):
                cache.store(kind, list(range(32)), key=index)
        return cache

    def test_entries_and_inventory(self, tmp_path):
        cache = self._populate(tmp_path)
        entries = cache.entries()
        assert len(entries) == 6
        inventory = cache.inventory()
        assert inventory["rare_nets"][0] == 3
        assert inventory["trojans"][0] == 3
        assert all(size > 0 for _, size in inventory.values())
        assert cache.entries(kinds=["trojans"]) == [
            entry for entry in entries if entry.kind == "trojans"
        ]

    def test_inventory_reports_zero_entry_kinds(self, tmp_path):
        cache = self._populate(tmp_path)
        cache.prune(max_age_seconds=0, kinds=["trojans"])
        inventory = cache.inventory()
        assert inventory["trojans"] == (0, 0)
        assert inventory["rare_nets"][0] == 3

    def test_missing_root_is_empty_not_an_error(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-created")
        assert cache.entries() == []
        assert cache.inventory() == {}
        report = cache.prune(max_bytes=0)
        assert report.removed_entries == 0

    def test_age_based_eviction(self, tmp_path):
        import os

        cache = self._populate(tmp_path, per_kind=2)
        old = cache.entries()[0]
        os.utime(old.path, (old.mtime - 3600, old.mtime - 3600))
        report = cache.prune(max_age_seconds=600)
        assert report.removed_entries == 1
        assert report.kept_entries == 3
        assert report.removed_by_kind == {old.kind: 1}
        assert not old.path.exists()

    def test_size_based_eviction_drops_oldest_first(self, tmp_path):
        import os

        cache = self._populate(tmp_path, kinds=("rare_nets",), per_kind=4)
        entries = sorted(cache.entries(), key=lambda entry: entry.path)
        # Give each entry a distinct age; index 0 is the oldest.
        for position, entry in enumerate(entries):
            stamp = entry.mtime - (len(entries) - position) * 100
            os.utime(entry.path, (stamp, stamp))
        keep_bytes = sum(entry.size for entry in entries[2:])
        report = cache.prune(max_bytes=keep_bytes)
        assert report.removed_entries == 2
        assert not entries[0].path.exists() and not entries[1].path.exists()
        assert entries[2].path.exists() and entries[3].path.exists()

    def test_dry_run_removes_nothing(self, tmp_path):
        cache = self._populate(tmp_path)
        report = cache.prune(max_bytes=0, dry_run=True)
        assert report.dry_run
        assert report.removed_entries == 6
        assert len(cache.entries()) == 6

    def test_dry_run_predicts_doomed_entry_locks_as_debris(self, tmp_path):
        """Locks orphaned *by* the prune itself must count in the dry run too."""
        import os
        import time

        cache = self._populate(tmp_path, kinds=("rare_nets",), per_kind=2)
        ancient = time.time() - 48 * 3600
        for entry in cache.entries():
            lock = entry.path.with_suffix(".lock")
            lock.write_bytes(b"")
            os.utime(lock, (ancient, ancient))
            os.utime(entry.path, (ancient, ancient))
        predicted = cache.prune(max_age_seconds=3600, dry_run=True)
        actual = cache.prune(max_age_seconds=3600)
        assert predicted.removed_entries == actual.removed_entries == 2
        assert predicted.removed_debris == actual.removed_debris == 2

    def test_debris_sweep_spares_live_files(self, tmp_path):
        import os
        import time

        cache = self._populate(tmp_path, kinds=("rare_nets",), per_kind=1)
        kind_dir = cache.entries()[0].path.parent
        ancient = time.time() - 48 * 3600
        # A lock whose entry exists is never swept, however old.
        entry_lock = cache.entries()[0].path.with_suffix(".lock")
        entry_lock.write_bytes(b"")
        os.utime(entry_lock, (ancient, ancient))
        # An old orphan lock and an old writer temp file are stale debris.
        orphan_lock = kind_dir / "gone.lock"
        orphan_lock.write_bytes(b"")
        os.utime(orphan_lock, (ancient, ancient))
        stale_tmp = kind_dir / "writer123.tmp"
        stale_tmp.write_bytes(b"partial")
        os.utime(stale_tmp, (ancient, ancient))
        # Fresh files may belong to live workers: a writer mid-store or a
        # single-flight build holding its lock. They must survive.
        live_tmp = kind_dir / "writer456.tmp"
        live_tmp.write_bytes(b"in flight")
        live_lock = kind_dir / "building.lock"
        live_lock.write_bytes(b"")
        report = cache.prune()
        assert report.removed_debris == 2
        assert entry_lock.exists()
        assert not orphan_lock.exists()
        assert not stale_tmp.exists()
        assert live_tmp.exists()
        assert live_lock.exists()

    def test_prune_kinds_restricts_entries_and_debris(self, tmp_path):
        import os
        import time

        cache = self._populate(tmp_path)
        ancient = time.time() - 48 * 3600
        orphans = {}
        for kind in ("rare_nets", "trojans"):
            orphan = tmp_path / "cache" / kind / "gone.lock"
            orphan.write_bytes(b"")
            os.utime(orphan, (ancient, ancient))
            orphans[kind] = orphan
        report = cache.prune(max_age_seconds=0, kinds=["trojans"])
        assert report.removed_by_kind == {"trojans": 3}
        assert report.removed_debris == 1
        assert not orphans["trojans"].exists()
        assert orphans["rare_nets"].exists()
        assert cache.inventory()["rare_nets"][0] == 3

    def test_prune_then_refetch_recomputes(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        calls = []
        cache.fetch("rare_nets", lambda: calls.append(1) or [1], key="x")
        cache.prune(max_age_seconds=0)
        cache.fetch("rare_nets", lambda: calls.append(1) or [1], key="x")
        assert len(calls) == 2


class TestPrepareBenchmarkDiskCache:
    def test_rerun_hits_disk_cache(self, tmp_path, default_cache):
        cache = default_cache(ArtifactCache(tmp_path))
        common.clear_context_cache()
        first = common.prepare_benchmark("c6288_like", common.TINY, threshold=0.15)
        assert cache.stats.stores == 3  # rare nets + compatibility + trojans
        common.clear_context_cache()
        second = common.prepare_benchmark("c6288_like", common.TINY, threshold=0.15)
        assert cache.stats.hits == 3
        assert second.rare_nets == first.rare_nets
        assert np.array_equal(second.compatibility.matrix, first.compatibility.matrix)
        assert second.trojans == first.trojans
        common.clear_context_cache()

    def test_memo_is_keyed_by_the_cache_root(self, tmp_path, default_cache):
        common.clear_context_cache()
        # No cache writes nothing.
        default_cache(None)
        bare = common.prepare_benchmark("c6288_like", common.TINY, threshold=0.15)
        assert list(tmp_path.iterdir()) == []
        # A context memoised before any disk cache existed is rebuilt through
        # the cache configured later, so its artifacts reach the disk.
        first = default_cache(ArtifactCache(tmp_path / "first"))
        context = common.prepare_benchmark("c6288_like", common.TINY, threshold=0.15)
        assert context is not bare
        assert first.stats.stores == 3
        # A new cache object on the same root is a memo hit.
        same_root = default_cache(ArtifactCache(tmp_path / "first"))
        assert common.prepare_benchmark("c6288_like", common.TINY, threshold=0.15) is context
        assert same_root.stats == CacheStats()
        # A new root rebuilds through that cache.
        second = default_cache(ArtifactCache(tmp_path / "second"))
        rebuilt = common.prepare_benchmark("c6288_like", common.TINY, threshold=0.15)
        assert rebuilt is not context
        assert second.stats.stores == 3
        assert np.array_equal(rebuilt.compatibility.matrix, context.compatibility.matrix)
        assert rebuilt.trojans == context.trojans
        common.clear_context_cache()


class TestCompatibilityParity:
    def test_matrix_is_independent_of_rare_net_order(self, c2670, c2670_rare, default_cache):
        default_cache(None)
        forward = compute_compatibility(c2670, c2670_rare)
        backward = compute_compatibility(c2670, c2670_rare[::-1])
        assert backward.rare_nets == forward.rare_nets[::-1]
        assert backward.unsatisfiable == forward.unsatisfiable[::-1]
        assert np.array_equal(backward.matrix, forward.matrix[::-1, ::-1])
        assert forward.matrix.dtype == backward.matrix.dtype == np.bool_

    def test_compatibility_cache_roundtrip(self, tmp_path, c2670, c2670_rare, default_cache):
        cache = default_cache(ArtifactCache(tmp_path))
        first = compute_compatibility(c2670, c2670_rare)
        again = compute_compatibility(c2670, c2670_rare)
        assert cache.stats.hits == 1
        assert np.array_equal(first.matrix, again.matrix)
        assert again.rare_nets == first.rare_nets
        # The rebuilt analysis still has a working solver stack.
        assert again.set_is_satisfiable([0])


def _stress_fetch(cache_root: str, count_file: str, barrier=None) -> int:
    """One contender: fetch the shared key, building only on a true miss.

    The builder appends one line to ``count_file`` (O_APPEND writes of this
    size are atomic on POSIX), so the line count afterwards is the number of
    builds that actually ran.
    """
    import os
    import time

    cache = ArtifactCache(cache_root)

    def builder():
        with open(count_file, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.05)  # widen the window a racing peer could slip through
        return 12345

    if barrier is not None:
        barrier.wait()
    return cache.fetch("stress", builder, key="shared")


class TestSingleFlightStress:
    """The ``fetch`` single-flight contract under real contention.

    Many contenders miss on the same key at the same instant; the advisory
    build lock must let exactly one builder run while everyone else loads
    the stored result.
    """

    def test_many_threads_one_build(self, tmp_path):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        count_file = tmp_path / "builds.txt"
        count_file.touch()
        n = 16
        barrier = threading.Barrier(n)
        with ThreadPoolExecutor(max_workers=n) as pool:
            results = list(
                pool.map(
                    lambda _: _stress_fetch(
                        str(tmp_path / "cache"), str(count_file), barrier
                    ),
                    range(n),
                )
            )
        assert results == [12345] * n
        assert len(count_file.read_text().splitlines()) == 1

    def test_many_processes_one_build(self, tmp_path):
        import multiprocessing

        count_file = tmp_path / "builds.txt"
        count_file.touch()
        n = 8
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=n) as pool:
            results = pool.starmap(
                _stress_fetch,
                [(str(tmp_path / "cache"), str(count_file))] * n,
            )
        assert results == [12345] * n
        assert len(count_file.read_text().splitlines()) == 1

    def test_distinct_keys_build_independently(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        cache_root = str(tmp_path / "cache")

        def fetch_key(index: int) -> int:
            cache = ArtifactCache(cache_root)
            return cache.fetch("stress", lambda: index, key=f"k{index}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fetch_key, range(8)))
        assert results == list(range(8))
        assert ArtifactCache(cache_root).inventory()["stress"][0] == 8


def _calls(attribute: str) -> list[tuple[str, ast.Call]]:
    """(module path, call) for every call of ``attribute`` in the package.

    Matches ``attribute(...)`` and ``anything.attribute(...)``.
    """
    found = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == attribute:
                found.append((path.relative_to(PACKAGE_ROOT).as_posix(), node))
    return found


class TestOneOwnerPerKind:
    """Every artifact key is built at one call site, through ``cached``."""

    def test_only_the_cache_module_calls_fetch(self):
        callers = sorted({module for module, _ in _calls("fetch")})
        assert callers == ["runner/cache.py"]

    def test_each_kind_is_passed_to_exactly_one_cached_call(self):
        kinds = Counter()
        for module, call in _calls("cached"):
            kind = call.args[0] if call.args else None
            assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), (
                f"{module}:{call.lineno}: the artifact kind must be a string literal"
            )
            kinds[kind.value] += 1
        assert {kind for kind, sites in kinds.items() if sites != 1} == set()
        assert set(kinds) >= {
            "rare_nets", "compatibility", "trojans",
            "sequential_rare_nets", "sequential_trojans", "sat_sequences",
        }
