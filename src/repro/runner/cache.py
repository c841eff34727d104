"""Content-addressed on-disk cache for offline-phase artifacts.

The DETERRENT offline phase (rare-net extraction, pairwise compatibility,
Trojan-population sampling) is identical across every experiment harness that
targets the same (netlist, configuration) pair, and it dominates wall-time for
the larger circuits.  The cache stores each artifact under a key derived from

- a **netlist fingerprint** — SHA-256 of the canonical ``.bench``
  serialisation (topological gate order), so structurally identical circuits
  share entries regardless of how they were built, and
- a **configuration fingerprint** — SHA-256 of the canonical JSON encoding of
  the parameters that influenced the artifact (threshold, pattern count,
  seed, trigger width, ...).

The content-address key contract: an entry lives at
``<root>/<kind>/<config_fingerprint(**key_parts)>.pkl``, where the caller's
``key_parts`` must include every input that influenced the artifact — the
netlist (passed as its fingerprint or as a ``Netlist``, which is reduced to
its fingerprint), plus all scalar configuration.  ``config_fingerprint``
canonicalises before hashing (keys sorted, dataclasses reduced to tagged
dicts, tuples and lists identified, nested netlists fingerprinted), so two
call sites that build the same logical key — e.g. the compute path in
``prepare_benchmark`` and the write-through path in ``_write_through`` —
address the same file even across processes, sessions, and machines.  Key
construction is append-only (renaming a key part orphans old entries rather
than corrupting them).  Entries are immutable and never evicted implicitly;
``deterrent cache`` reports per-kind growth and ``deterrent cache prune``
(:meth:`ArtifactCache.prune`) applies explicit size/age-based eviction —
oldest entries first, every entry recomputable by construction.

Loads are corruption tolerant: any failure to read or unpickle an entry is
treated as a miss (the offending file is removed) and the artifact is simply
recomputed.  Stores are atomic (:func:`repro.utils.fsio.atomic_write`) so
concurrent worker processes sharing one cache directory never observe partial
writes.

Every hit, miss, store and corrupt entry is counted twice: in the object's
in-memory session :class:`CacheStats`, and written through to
``<root>/stats.json`` (a :class:`repro.utils.fsio.CounterFile`), the
lifetime counts of every process that ever used the root.  There is nothing
to flush: ``deterrent cache`` and the service's ``GET /metrics`` read the
file as it stands.

The module-level *default cache* is what :func:`repro.experiments.common.
prepare_benchmark` and the experiment runner consult when no explicit cache is
passed; it is configured with :func:`set_default_cache`, the
``DETERRENT_CACHE_DIR`` environment variable, or the CLI's ``--cache-dir``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field, is_dataclass, asdict
from pathlib import Path
from typing import Any

from repro import obs
from repro.circuits.bench_io import dumps_bench
from repro.circuits.netlist import Netlist
from repro.utils.fsio import CounterFile, atomic_write, file_lock

#: Environment variable that enables the default cache when set.
CACHE_DIR_ENV = "DETERRENT_CACHE_DIR"

#: Temp/lock files younger than this are treated as live (a writer inside
#: ``store`` or a single-flight build holding its lock) and never swept.
DEBRIS_MIN_AGE_SECONDS = 3600.0

_FINGERPRINT_MEMO_KEY = "runner.cache.netlist_fingerprint"


def netlist_fingerprint(netlist: Netlist) -> str:
    """SHA-256 fingerprint of a netlist's canonical ``.bench`` serialisation.

    The serialisation lists gates in topological order, so the fingerprint is
    stable across construction order and process boundaries.  The value is
    memoised on the netlist and invalidated automatically on mutation.
    """
    return netlist.memo(
        _FINGERPRINT_MEMO_KEY,
        lambda: hashlib.sha256(dumps_bench(netlist).encode()).hexdigest(),
    )


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable primitives with a stable form."""
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__, **_canonical(asdict(value))}
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Netlist):
        return {"__netlist__": netlist_fingerprint(value)}
    return repr(value)


def config_fingerprint(**key_parts: Any) -> str:
    """SHA-256 fingerprint of an arbitrary configuration mapping.

    Keys are sorted and values reduced to canonical JSON, so logically equal
    configurations fingerprint identically across processes and sessions.
    """
    payload = json.dumps(_canonical(key_parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (used by structured reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact file: its kind, path, size, and modification time."""

    kind: str
    path: Path
    size: int
    mtime: float


@dataclass
class PruneReport:
    """Outcome of one :meth:`ArtifactCache.prune` pass."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0
    removed_debris: int = 0
    removed_by_kind: dict[str, int] = field(default_factory=dict)
    dry_run: bool = False

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for callers that log or serialise prune outcomes."""
        return {
            "removed_entries": self.removed_entries,
            "removed_bytes": self.removed_bytes,
            "kept_entries": self.kept_entries,
            "kept_bytes": self.kept_bytes,
            "removed_debris": self.removed_debris,
            "removed_by_kind": dict(self.removed_by_kind),
            "dry_run": self.dry_run,
        }


@dataclass
class ArtifactCache:
    """Pickle-based content-addressed store under one root directory.

    Layout: ``<root>/<kind>/<config-digest>.pkl`` where *kind* names the
    artifact family (``rare_nets``, ``compatibility``, ``trojans``, ...) and
    the digest comes from :func:`config_fingerprint` over the caller's key
    parts (which should include the netlist fingerprint).
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._lifetime = CounterFile(self.root / "stats.json")
        # Session counters are bumped from worker threads (the thread backend
        # shares one cache object); the lock keeps each increment whole.
        self._stats_lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_stats_lock", None)  # locks don't pickle
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    def path_for(self, kind: str, **key_parts: Any) -> Path:
        """Path of the entry for ``kind`` + key parts (whether or not it exists)."""
        return self.root / kind / f"{config_fingerprint(**key_parts)}.pkl"

    def path_for_digest(self, kind: str, digest: str) -> Path:
        """Path of the entry whose digest is already known.

        The detection service uses this: its job ids *are* cache digests
        (:func:`config_fingerprint` over the job's key parts), so a status
        probe can address the stored record by id alone, without
        reconstructing the key parts.
        """
        return self.root / kind / f"{digest}.pkl"

    def load_digest(self, kind: str, digest: str) -> Any | None:
        """Like :meth:`load`, addressed by a pre-computed digest."""
        return self._load_path(self.path_for_digest(kind, digest))

    def load(self, kind: str, **key_parts: Any) -> Any | None:
        """Return the stored artifact, or None on miss or corrupt entry."""
        return self._load_path(self.path_for(kind, **key_parts))

    def _load_path(self, path: Path) -> Any | None:
        try:
            with path.open("rb") as handle:
                artifact = pickle.load(handle)
        except FileNotFoundError:
            self._count(misses=1)
            return None
        except Exception:
            # Truncated/garbled entry (e.g. a crashed writer predating atomic
            # stores, or bit rot): drop it and recompute.
            self._count(corrupt=1, misses=1)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count(hits=1)
        return artifact

    def store(self, kind: str, artifact: Any, **key_parts: Any) -> Path:
        """Atomically persist ``artifact`` and return its path."""
        path = self.path_for(kind, **key_parts)
        atomic_write(path, pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))
        self._count(stores=1)
        return path

    def fetch(self, kind: str, builder, **key_parts: Any) -> Any:
        """Load the artifact or build + store it via ``builder()``.

        Builds are single-flight across processes: concurrent workers that
        miss on the same key serialise on an advisory file lock, so the first
        one computes and the rest load its result instead of duplicating the
        work (the offline phase is the most expensive artifact in the store).
        """
        with obs.profile.timed("cache.fetch"):
            artifact = self.load(kind, **key_parts)
        if artifact is not None:
            return artifact
        path = self.path_for(kind, **key_parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        with file_lock(path):
            # Double-checked: a peer holding the lock may have stored it.
            artifact = self.load(kind, **key_parts)
            if artifact is None:
                with obs.profile.timed("cache.build"):
                    artifact = builder()
                self.store(kind, artifact, **key_parts)
        return artifact

    # ------------------------------------------------------------------
    # Stats: session counters + cross-process lifetime counters
    # ------------------------------------------------------------------
    def _count(self, **deltas: int) -> None:
        """Record cache events in the session counters and ``stats.json``."""
        with self._stats_lock:
            for key, value in deltas.items():
                setattr(self.stats, key, getattr(self.stats, key) + value)
        self._lifetime.add(deltas)

    def stats_snapshot(self) -> dict[str, Any]:
        """This object's session counters and the root's lifetime counters.

        ``session`` counts hits/misses/stores/corrupt observed by *this*
        ``ArtifactCache`` object since creation; ``lifetime`` is
        ``<root>/stats.json`` (every session key present, 0 when never
        counted), which every process using the root writes through on each
        event, so it already includes this session.  One small JSON read —
        safe to call from a metrics endpoint on every scrape.
        """
        with self._stats_lock:
            session = self.stats.as_dict()
        lifetime = {**dict.fromkeys(session, 0), **self._lifetime.read()}
        return {"session": session, "lifetime": lifetime}

    # ------------------------------------------------------------------
    # Inspection and eviction
    # ------------------------------------------------------------------
    def entries(self, kinds: list[str] | None = None) -> list[CacheEntry]:
        """All stored artifact files (optionally restricted to some kinds).

        Tolerant of concurrent mutation: entries that disappear between
        listing and ``stat`` are simply skipped, never raised.
        """
        found: list[CacheEntry] = []
        for kind, kind_dir in self._kind_dirs(kinds):
            for path in sorted(kind_dir.glob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append(
                    CacheEntry(kind=kind, path=path, size=stat.st_size, mtime=stat.st_mtime)
                )
        return found

    def inventory(self) -> dict[str, tuple[int, int]]:
        """Per-kind ``(entry count, total bytes)``, including zero-entry kinds.

        A kind directory that holds no ``.pkl`` entries (only lock files, or
        nothing after a prune) is reported as ``(0, 0)`` rather than
        omitted, so consumers see a consistent kind list across runs.
        """
        summary: dict[str, tuple[int, int]] = {
            kind: (0, 0) for kind, _ in self._kind_dirs(None)
        }
        for entry in self.entries():
            count, size = summary.get(entry.kind, (0, 0))
            summary[entry.kind] = (count + 1, size + entry.size)
        return summary

    def prune(
        self,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        kinds: list[str] | None = None,
        dry_run: bool = False,
        now: float | None = None,
    ) -> PruneReport:
        """Evict entries by age and/or total size (oldest first); sweep debris.

        Eviction policy: entries older than ``max_age_seconds`` are removed
        first; if the surviving total still exceeds ``max_bytes``, the
        oldest remaining entries go until the total fits.  With ``kinds``
        both rules — including the ``max_bytes`` budget — apply to the
        selected kinds' entries only; other kinds are untouched and do not
        count against the budget.  Every entry is
        recomputable by construction, so eviction can never lose
        information — only warm-start time.  Writer temp files and orphaned
        build-lock files are swept once older than
        :data:`DEBRIS_MIN_AGE_SECONDS` (younger ones may belong to live
        concurrent workers).  With ``dry_run`` the report is computed but
        nothing is deleted.
        """
        if now is None:
            now = time.time()
        report = PruneReport(dry_run=dry_run)
        survivors: list[CacheEntry] = []
        doomed: list[CacheEntry] = []
        for entry in self.entries(kinds):
            too_old = (
                max_age_seconds is not None and now - entry.mtime >= max_age_seconds
            )
            (doomed if too_old else survivors).append(entry)
        if max_bytes is not None:
            survivors.sort(key=lambda entry: entry.mtime)
            total = sum(entry.size for entry in survivors)
            cut = 0
            while cut < len(survivors) and total > max_bytes:
                total -= survivors[cut].size
                cut += 1
            doomed.extend(survivors[:cut])
            survivors = survivors[cut:]
        removed_paths: set[Path] = set()
        for entry in doomed:
            if not dry_run:
                try:
                    entry.path.unlink()
                except OSError:
                    # Undeletable entry: it survives, so account for it as
                    # kept and leave its lock alone in the debris sweep.
                    survivors.append(entry)
                    continue
            removed_paths.add(entry.path)
            report.removed_entries += 1
            report.removed_bytes += entry.size
            report.removed_by_kind[entry.kind] = (
                report.removed_by_kind.get(entry.kind, 0) + 1
            )
        report.kept_entries = len(survivors)
        report.kept_bytes = sum(entry.size for entry in survivors)
        report.removed_debris = self._sweep_debris(
            kinds,
            dry_run=dry_run,
            now=now,
            doomed_paths=removed_paths,
        )
        return report

    def _kind_dirs(self, kinds: list[str] | None) -> list[tuple[str, Path]]:
        """(kind, directory) pairs under the root, tolerant of a missing root."""
        root = Path(self.root)
        try:
            children = sorted(path for path in root.iterdir() if path.is_dir())
        except OSError:
            return []
        return [
            (path.name, path)
            for path in children
            if kinds is None or path.name in kinds
        ]

    def _sweep_debris(
        self,
        kinds: list[str] | None,
        dry_run: bool,
        now: float,
        doomed_paths: set[Path] | None = None,
    ) -> int:
        """Remove stale writer temp files and orphaned build locks.

        Honours the caller's ``kinds`` restriction, and only files older
        than :data:`DEBRIS_MIN_AGE_SECONDS` are touched: a young ``.tmp``
        may be a live writer mid-``store`` and a young orphan ``.lock`` may
        guard a first single-flight build in progress — deleting either
        would break the concurrent workers the cache explicitly supports.
        ``doomed_paths`` names entries the surrounding prune pass removes
        (or, on a dry run, *would* remove), so a lock whose entry is doomed
        counts as orphaned and dry-run reports match real runs.
        """
        doomed_paths = doomed_paths or set()
        removed = 0
        for _, kind_dir in self._kind_dirs(kinds):
            candidates = list(kind_dir.glob("*.tmp")) + [
                lock for lock in kind_dir.glob("*.lock")
                if not lock.with_suffix(".pkl").exists()
                or lock.with_suffix(".pkl") in doomed_paths
            ]
            for stale in candidates:
                try:
                    age = now - stale.stat().st_mtime
                except OSError:
                    continue
                if age < DEBRIS_MIN_AGE_SECONDS:
                    continue  # possibly live: a writer or an in-flight build
                if not dry_run:
                    try:
                        stale.unlink()
                    except OSError:
                        continue
                removed += 1
        return removed


_default_cache: ArtifactCache | None = None
_default_resolved = False


def set_default_cache(cache: ArtifactCache | str | Path | None) -> ArtifactCache | None:
    """Install the process-wide default cache (None disables caching)."""
    global _default_cache, _default_resolved
    if cache is not None and not isinstance(cache, ArtifactCache):
        cache = ArtifactCache(Path(cache))
    _default_cache = cache
    _default_resolved = True
    return _default_cache


def get_default_cache() -> ArtifactCache | None:
    """The default cache: explicitly set, else from ``DETERRENT_CACHE_DIR``."""
    global _default_resolved
    if not _default_resolved:
        directory = os.environ.get(CACHE_DIR_ENV)
        set_default_cache(directory if directory else None)
    return _default_cache


__all__ = [
    "CACHE_DIR_ENV",
    "ArtifactCache",
    "CacheEntry",
    "CacheStats",
    "PruneReport",
    "config_fingerprint",
    "get_default_cache",
    "netlist_fingerprint",
    "set_default_cache",
]
