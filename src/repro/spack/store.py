"""The installed-package database (store / buildcache) and the cache layers
built on top of it.

Every concrete spec installed into the store is identified by its DAG hash
(Figure 4 in the paper).  The :class:`Database` is what the reuse encoding of
Section VI draws its ``installed_hash`` / ``imposed_constraint`` facts from,
and what the Figure 7e–7g experiments grow to tens of thousands of entries.

This module also hosts the cache subsystem the batch/parallel concretization
sessions (:mod:`repro.spack.concretize.session`) layer on top of the store:

* :class:`SolveCache` — an in-memory LRU memo of
  :class:`~repro.spack.concretize.concretizer.ConcretizationResult` objects,
  keyed by content hashes so a hit can be replayed without touching the
  grounder or solver;
* :class:`PersistentSolveCache` — the same interface, spilled to a cache
  directory as versioned JSON so a *second process* can replay an entire
  batch with zero solver calls;
* :class:`PersistentGroundCache` — an on-disk (pickle) cache of grounded
  base programs, so warm processes skip re-grounding the shared
  spec-independent fact layer;
* :class:`SnapshotStore` — flat, mmap-able ground snapshots
  (:mod:`repro.asp.snapshot`) written beside the pickle entries, so N
  service processes *attach* one shared warm base with near-zero-copy
  startup instead of each unpickling its own object graph.

All persistent layers share the invariants documented in ``docs/CACHING.md``:
content-hash keys (never mtimes), a :data:`CACHE_FORMAT_VERSION` field in
every file, atomic single-file writes (safe under concurrent writers), and
corruption-tolerant loads — a damaged, truncated, foreign, or version-skewed
cache file is treated as a miss (a cold solve), never an error and never a
stale result.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.spack.errors import SpackError
from repro.spack.spec import Spec
from repro.spack.spec_parser import parse_spec

#: Version stamp written into every on-disk cache file.  Bump it whenever the
#: serialized layout (or the semantics of what is cached) changes; readers
#: treat any other version as a miss, so old and new code can share one cache
#: directory without ever exchanging garbage.
CACHE_FORMAT_VERSION = 5

#: Age after which an orphaned ``.tmp`` file (an interrupted writer's
#: leftover) may be reaped by budgeted pruning; generous enough that no
#: live writer can still own it.
_STALE_TMP_SECONDS = 3600


class Database:
    """An in-memory installed-package database keyed by DAG hash."""

    def __init__(self, specs: Iterable[Spec] = ()):
        self._by_hash: Dict[str, Spec] = {}
        self._generation = 0
        self._content_hash_cache: Optional[Tuple[int, str]] = None
        for spec in specs:
            self.add(spec)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, spec: Spec) -> str:
        """Record one concrete spec (its dependencies are *not* added)."""
        if not spec.concrete:
            raise SpackError(f"only concrete specs can be installed: {spec}")
        digest = spec.dag_hash()
        if digest not in self._by_hash:
            self._generation += 1
        self._by_hash[digest] = spec
        return digest

    def install(self, spec: Spec) -> List[str]:
        """Install a concrete spec and its whole dependency subtree."""
        digests = []
        for node in spec.traverse():
            digests.append(self.add(node))
        return digests

    def remove(self, digest: str):
        if self._by_hash.pop(digest, None) is not None:
            self._generation += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotone counter bumped on every effective add/remove (cheap
        in-process invalidation token for caches layered on this store)."""
        return self._generation

    def content_hash(self) -> str:
        """A digest of the installed set, stable across processes.

        Two databases holding the same concrete specs hash identically, so
        solve caches keyed on it survive serialization round-trips.  The
        digest is memoized against :attr:`generation`, so callers may hash
        on every solve for free.
        """
        cached = self._content_hash_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        digest = hashlib.sha256()
        for dag_hash in sorted(self._by_hash):
            digest.update(dag_hash.encode("utf-8"))
        value = digest.hexdigest()[:32]
        self._content_hash_cache = (self._generation, value)
        return value

    def __len__(self) -> int:
        return len(self._by_hash)

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_hash

    def lookup(self, digest: str) -> Optional[Spec]:
        return self._by_hash.get(digest)

    def all_specs(self) -> List[Spec]:
        return [self._by_hash[d] for d in sorted(self._by_hash)]

    def all_hashes(self) -> List[str]:
        return sorted(self._by_hash)

    def query(self, constraint: Union[str, Spec, None] = None) -> List[Spec]:
        """All installed specs satisfying ``constraint`` (all of them if None)."""
        if constraint is None:
            return self.all_specs()
        if isinstance(constraint, str):
            constraint = parse_spec(constraint)
        return [spec for spec in self.all_specs() if spec.satisfies(constraint)]

    def installed_names(self) -> List[str]:
        return sorted({spec.name for spec in self._by_hash.values()})

    # ------------------------------------------------------------------
    # Serialization (so buildcaches can be saved/restored in benchmarks)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {"database": {digest: spec.to_dict() for digest, spec in self._by_hash.items()}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: Dict) -> "Database":
        database = cls()
        for _digest, payload in data.get("database", {}).items():
            spec = Spec.from_dict(payload)
            spec.mark_concrete()
            database.add(spec)
        return database

    @classmethod
    def from_json(cls, text: str) -> "Database":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------

    def filtered(self, predicate) -> "Database":
        """A new database containing only the specs matching ``predicate``.

        Used by the Figure 7e–7g experiment to restrict the buildcache to one
        architecture and/or operating system.
        """
        subset = Database()
        for spec in self.all_specs():
            if predicate(spec):
                subset.add(spec)
        return subset

    def __repr__(self):
        return f"<Database with {len(self)} installed specs>"


class SolveCache:
    """An LRU memo of concretization results.

    Keys are built by the batch concretization session from the content hash
    of (repository, compiler registry, platform, solver/criteria preset), the
    store state, and the canonical root spec — so a hit is only possible when
    the whole problem is identical and the cached result can be replayed
    without touching the grounder or solver (the Figure 6 / Figure 7e–g
    repeated-solve scenarios).
    """

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        # Guards the LRU dict and counters: concretization sessions may be
        # driven from several threads at once (thread workers, the async
        # session's executor threads), and an OrderedDict ``move_to_end``
        # racing a ``popitem`` corrupts the dict.  Critical sections are
        # memory-only — disk I/O in the persistent flavors happens outside
        # the lock — so the lock is cheap and (nearly) fork-safe.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable):
        """The cached value for ``key`` (bumped to most-recent), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __repr__(self):
        return (
            f"<SolveCache {len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )


# ---------------------------------------------------------------------------
# Persistent (on-disk) caches
# ---------------------------------------------------------------------------


def cache_key_token(key: Hashable) -> str:
    """A deterministic string rendering of a cache key.

    Used both to derive the on-disk filename (through a SHA-256 digest) and
    as an integrity check *inside* the file: a load only counts as a hit if
    the stored token matches, so digest collisions or foreign files in the
    cache directory can never surface someone else's result.  Unordered
    collections are sorted first — ``repr`` of a frozenset depends on the
    per-process hash seed and would break cross-process key equality.
    """
    if isinstance(key, (frozenset, set)):
        return "{" + ",".join(sorted(cache_key_token(item) for item in key)) + "}"
    if isinstance(key, tuple):
        return "(" + ",".join(cache_key_token(item) for item in key) + ")"
    return repr(key)


def _cache_file_digest(token: str) -> str:
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:40]


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + rename).

    Concurrent writers to the same key are safe: each writes its own
    temporary file and the final ``os.replace`` is atomic, so readers only
    ever observe a complete file (last writer wins — entries for one key are
    deterministic, so the race is benign).
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class _DiskCacheLayer:
    """The envelope logic shared by every on-disk cache flavor.

    One file per key under ``<cache_dir>/<subdir>/<sha256(token)><suffix>``,
    each holding ``{"version", "key", "payload"}`` through a pluggable codec
    (JSON for results, pickle for ground programs).  :meth:`load` classifies
    every outcome so callers count uniformly:

    * ``("hit", payload)`` — complete, current-version, matching-key entry;
    * ``("miss", None)`` — absent, version-skewed, or foreign-key file
      (expected situations, not corruption);
    * ``("error", None)`` — unreadable or undecodable file (corruption).

    With ``max_entries`` / ``max_bytes`` set, every successful write prunes
    the directory back under both budgets in least-recently-used order
    (recency is file mtime, refreshed on every hit).  The entry just written
    is never pruned — even alone over ``max_bytes`` — so a put followed by a
    get can never miss; each eviction is a single atomic unlink and every
    filesystem hiccup (concurrent pruners, vanished files) is tolerated.
    """

    def __init__(
        self,
        cache_dir: str,
        subdir: str,
        suffix: str,
        codec,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.directory = os.path.join(cache_dir, subdir)
        self.suffix = suffix
        self.codec = codec
        self.max_entries = max_entries
        self.max_bytes = max_bytes

    def path_for(self, token: str) -> str:
        return os.path.join(self.directory, _cache_file_digest(token) + self.suffix)

    #: ``errno`` values meaning "the file is gone", not "the file is bad":
    #: a concurrent pruner (this process or another one pointed at the same
    #: directory) can unlink an entry at any moment, which surfaces as
    #: ``ENOENT`` — or ``ESTALE`` on NFS, where the unlinked file's handle
    #: goes stale *between* ``open`` and ``read``.  Both classify as a miss.
    _VANISHED_ERRNOS = frozenset({errno.ENOENT, errno.ESTALE})

    def load(self, token: str) -> Tuple[str, object]:
        path = self.path_for(token)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            if exc.errno in self._VANISHED_ERRNOS:
                return ("miss", None)  # pruned concurrently: an ordinary miss
            return ("error", None)
        try:
            envelope = self.codec.loads(data)
        except Exception:
            return ("error", None)
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != CACHE_FORMAT_VERSION
            or envelope.get("key") != token
        ):
            return ("miss", None)
        self._touch(path)
        return ("hit", envelope.get("payload"))

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh LRU recency after a hit (best effort).

        Runs *after* the payload was fully read, so a concurrent pruner
        unlinking the entry between ``read`` and here costs nothing: the hit
        stands on the bytes already in hand, and the vanished file simply
        keeps its old recency until the next write re-creates it.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    def store(self, token: str, payload) -> Tuple[bool, int]:
        """Best-effort write; (True on success, entries pruned)."""
        try:
            data = self.codec.dumps(
                {"version": CACHE_FORMAT_VERSION, "key": token, "payload": payload}
            )
            path = self.path_for(token)
            _atomic_write_bytes(path, data)
        except Exception:
            return (False, 0)
        return (True, self._prune(keep=path))

    def _prune(self, keep: str) -> int:
        """Evict least-recently-used entries beyond the configured budgets.

        ``keep`` (the entry just written) is exempt: it always survives and
        its size still counts against ``max_bytes``, so everything *else*
        shrinks around it.  Races with concurrent writers/pruners are benign
        — unlinking is atomic and already-gone files are skipped.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        stale_tmp_before = time.time() - _STALE_TMP_SECONDS
        entries = []  # (mtime, size, path), oldest first after sorting
        total_bytes = 0
        count = 0
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(self.suffix):
                        # a .tmp file is an interrupted writer's leftover; it
                        # is invisible to the budgets, so reap it once it is
                        # old enough that no live writer can still own it
                        if entry.name.endswith(".tmp"):
                            try:
                                if entry.stat().st_mtime < stale_tmp_before:
                                    os.unlink(entry.path)
                            except OSError:
                                pass
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    count += 1
                    total_bytes += stat.st_size
                    if entry.path != keep:
                        entries.append((stat.st_mtime, stat.st_size, entry.path))
        except OSError:
            return 0
        entries.sort()
        evicted = 0
        for mtime, size, path in entries:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total_bytes > self.max_bytes
            if not over_entries and not over_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            evicted += 1
            count -= 1
            total_bytes -= size
        return evicted


class _JsonCodec:
    @staticmethod
    def dumps(envelope: Dict) -> bytes:
        return json.dumps(envelope, sort_keys=True).encode("utf-8")

    @staticmethod
    def loads(data: bytes) -> Dict:
        return json.loads(data.decode("utf-8"))


class _PickleCodec:
    @staticmethod
    def dumps(envelope: Dict) -> bytes:
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def loads(data: bytes) -> Dict:
        return pickle.loads(data)


class PersistentSolveCache(SolveCache):
    """A :class:`SolveCache` that spills solved results to a cache directory.

    The in-memory LRU stays the first-level cache; on a memory miss the key
    is looked up under ``<cache_dir>/solve/<sha256(key)>.json``.  Entries are
    written through on :meth:`put` as versioned JSON
    (:meth:`ConcretizationResult.to_dict
    <repro.spack.concretize.concretizer.ConcretizationResult.to_dict>`), so a
    *different process* pointed at the same directory replays the same batch
    without a single grounding or solver call.  Unsatisfiable outcomes
    (:class:`~repro.spack.concretize.concretizer.UnsatOutcome`, carrying the
    minimal conflict core) are cached under the same keys — a warm replay
    raises the identical explanation without re-running MUS extraction.

    Degradation contract (exercised in
    ``tests/concretize/test_persistent_cache.py``): corrupted files, version
    mismatches, key-token mismatches, unreadable directories, and failed
    writes all degrade to cache misses (cold solves) and are tallied in
    :meth:`statistics` under ``load_errors`` / ``write_errors``; they never
    raise and can never return a stale or foreign result, because keys embed
    the content hash of every relevant input (see ``docs/CACHING.md``).

    A plain :class:`SolveCache` is the memory-only cache with the same
    interface.

    ``max_disk_entries`` / ``max_disk_bytes`` bound the *on-disk* store
    (``max_entries`` remains the in-memory LRU size): every write prunes
    least-recently-used files beyond the budgets, never the entry just
    written, so long-lived cache directories stop growing without bound.
    Evictions are tallied under ``evictions`` in :meth:`statistics`.
    """

    def __init__(
        self,
        cache_dir: str,
        max_entries: int = 1024,
        max_disk_entries: Optional[int] = None,
        max_disk_bytes: Optional[int] = None,
    ):
        super().__init__(max_entries)
        self.cache_dir = cache_dir
        self._disk = _DiskCacheLayer(
            cache_dir,
            "solve",
            ".json",
            _JsonCodec,
            max_entries=max_disk_entries,
            max_bytes=max_disk_bytes,
        )
        self.disk_hits = 0
        self.disk_misses = 0
        self.load_errors = 0
        self.writes = 0
        self.write_errors = 0
        self.evictions = 0

    # -- SolveCache interface ------------------------------------------

    def get(self, key: Hashable):
        """Memory first, then disk; a disk hit is promoted into memory."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        # the disk probe runs outside the lock (file I/O must not serialize
        # concurrent readers or leak a held lock across fork)
        value = self._load(key)
        with self._lock:
            if value is not None:
                self.hits += 1
                self.disk_hits += 1
                super().put(key, value)  # RLock: reentrant
                return value
            self.misses += 1
            self.disk_misses += 1
            return None

    def put(self, key: Hashable, value) -> None:
        """Insert into memory and write through to disk (best effort)."""
        super().put(key, value)
        self._dump(key, value)

    # -- disk layer ----------------------------------------------------

    def _load(self, key: Hashable):
        from repro.spack.concretize.concretizer import (
            ConcretizationResult,
            UnsatOutcome,
        )

        status, payload = self._disk.load(cache_key_token(key))
        if status == "error":
            with self._lock:
                self.load_errors += 1
            return None
        if status != "hit":
            return None
        try:
            if isinstance(payload, dict) and payload.get("unsat"):
                return UnsatOutcome.from_dict(payload)
            return ConcretizationResult.from_dict(payload)
        except Exception:
            with self._lock:
                self.load_errors += 1
            return None

    def _dump(self, key: Hashable, value) -> None:
        try:
            payload = value.to_dict()
        except Exception:
            self.write_errors += 1
            return
        ok, evicted = self._disk.store(cache_key_token(key), payload)
        with self._lock:
            if ok:
                self.writes += 1
                self.evictions += evicted
            else:
                self.write_errors += 1

    # -- introspection -------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        stats = super().statistics()
        stats.update(
            {
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "load_errors": self.load_errors,
                "writes": self.writes,
                "write_errors": self.write_errors,
                "evictions": self.evictions,
            }
        )
        return stats

    def __repr__(self):
        return (
            f"<PersistentSolveCache {len(self)} entries at {self.cache_dir!r}, "
            f"{self.hits} hits ({self.disk_hits} disk) / {self.misses} misses>"
        )


class PersistentGroundCache:
    """An on-disk cache of grounded base programs (pickle, trusted-local).

    Sessions use it to persist the expensive artifact behind
    :class:`~repro.asp.control.PreparedProgram`: the shared spec-independent
    grounding that every solve forks.  Keys embed the session content hash
    (repository + platform + compilers + solver preset + logic program), the
    store token, and the possible-package family, so any input change makes a
    new key and old entries simply stop being read.

    Values are arbitrary picklable objects; files live under
    ``<cache_dir>/ground/<sha256(key)>.pkl`` with the same version field,
    atomic-write, and corruption-tolerance rules as
    :class:`PersistentSolveCache`.  Pickle is used because ground programs
    are large graphs of interned atoms — treat the cache directory as
    trusted local state (it is written and read only by this machine's own
    sessions), not as an interchange format.

    With ``max_entries`` / ``max_bytes`` set, every write prunes the ground
    store back under the budgets in least-recently-used order (never the
    entry just written); evictions are tallied in :meth:`statistics`.
    """

    def __init__(
        self,
        cache_dir: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.cache_dir = cache_dir
        self._disk = _DiskCacheLayer(
            cache_dir,
            "ground",
            ".pkl",
            _PickleCodec,
            max_entries=max_entries,
            max_bytes=max_bytes,
        )
        self.hits = 0
        self.misses = 0
        self.load_errors = 0
        self.writes = 0
        self.write_errors = 0
        self.evictions = 0
        # counters only (the disk layer itself is concurrency-safe through
        # atomic writes); memory-only critical sections, like SolveCache
        self._lock = threading.RLock()

    def get(self, key: Hashable):
        """The cached object for ``key``, or None (on any miss or error)."""
        status, payload = self._disk.load(cache_key_token(key))
        with self._lock:
            if status == "hit":
                self.hits += 1
                return payload
            if status == "error":
                self.load_errors += 1
            self.misses += 1
            return None

    def put(self, key: Hashable, value) -> None:
        """Persist ``value`` under ``key`` (best effort; never raises)."""
        ok, evicted = self._disk.store(cache_key_token(key), value)
        with self._lock:
            if ok:
                self.writes += 1
                self.evictions += evicted
            else:
                self.write_errors += 1

    def statistics(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "load_errors": self.load_errors,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "evictions": self.evictions,
        }

    def __repr__(self):
        return (
            f"<PersistentGroundCache at {self.cache_dir!r}, "
            f"{self.hits} hits / {self.misses} misses>"
        )


class SnapshotStore:
    """On-disk, mmap-able ground snapshots beside the pickle ground cache.

    Where :class:`PersistentGroundCache` pickles whole prepared-program
    object graphs, this store writes the flat binary form produced by
    :func:`repro.asp.snapshot.snapshot_bytes` under
    ``<cache_dir>/snapshot/<sha256(token)>.snap`` — one file per base, safe
    for any number of concurrent readers because attaching maps it
    read-only.  :meth:`load` returns an *attached*
    :class:`~repro.asp.snapshot.GroundSnapshot` handle (O(1): header
    validation only); the caller materializes it lazily.

    The envelope invariants match the other persistent layers: the key
    token (which embeds :data:`CACHE_FORMAT_VERSION`) is echoed inside the
    file and checked on attach, writes are atomic, every write prunes
    least-recently-used entries beyond ``max_entries`` / ``max_bytes``
    (never the file just written), and any damaged, truncated,
    version-skewed, or foreign file degrades to a miss — tallied under
    ``load_errors`` when the file was actually corrupt.
    """

    def __init__(
        self,
        cache_dir: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.cache_dir = cache_dir
        # no codec: the snapshot module owns the byte layout; this layer
        # reuses only the path mapping and LRU pruning machinery
        self._disk = _DiskCacheLayer(
            cache_dir,
            "snapshot",
            ".snap",
            None,
            max_entries=max_entries,
            max_bytes=max_bytes,
        )
        self.attaches = 0
        self.misses = 0
        self.load_errors = 0
        self.writes = 0
        self.write_errors = 0
        self.evictions = 0
        self._lock = threading.RLock()

    def _token(self, key: Hashable) -> str:
        # the format version is part of the token (not just the envelope):
        # a version bump changes the filename, so skewed readers see a
        # plain miss without even opening old files
        return f"v{CACHE_FORMAT_VERSION}:" + cache_key_token(key)

    def path_for(self, key: Hashable) -> str:
        return self._disk.path_for(self._token(key))

    def load(self, key: Hashable):
        """Attach the snapshot for ``key`` read-only, or None on any miss.

        The returned :class:`~repro.asp.snapshot.GroundSnapshot` has only
        had its header validated; corruption in the payload surfaces when
        the caller materializes it (and must be treated as a cold ground —
        sessions do, via :meth:`note_load_error`).
        """
        from repro.asp.snapshot import GroundSnapshot, SnapshotError

        token = self._token(key)
        path = self._disk.path_for(token)
        try:
            snapshot = GroundSnapshot.attach(path, expected_key=token)
        except SnapshotError as exc:
            with self._lock:
                if exc.kind != "miss":
                    self.load_errors += 1
                self.misses += 1
            return None
        with self._lock:
            self.attaches += 1
        self._disk._touch(path)
        return snapshot

    def has_valid(self, key: Hashable) -> bool:
        """Whether a validated snapshot exists for ``key`` (a silent attach
        probe: no counters move, so write-through existence checks do not
        skew the attach/miss statistics that ``/v1/stats`` reports)."""
        from repro.asp.snapshot import GroundSnapshot, SnapshotError

        token = self._token(key)
        try:
            snapshot = GroundSnapshot.attach(
                self._disk.path_for(token), expected_key=token
            )
        except SnapshotError:
            return False
        snapshot.close()
        return True

    def note_load_error(self, key: Hashable = None) -> None:
        """Record a snapshot that attached but failed to materialize
        (payload corruption found during the lazy decode).  When the key is
        given, the damaged file is removed so the caller's write-through —
        which probes :meth:`has_valid` and would otherwise be fooled by the
        file's intact *header* — rewrites it."""
        with self._lock:
            self.load_errors += 1
            self.attaches -= 1
            self.misses += 1
        if key is not None:
            try:
                os.unlink(self._disk.path_for(self._token(key)))
            except OSError:
                pass

    def put(self, key: Hashable, prepared) -> bool:
        """Encode and persist ``prepared`` under ``key`` (best effort)."""
        from repro.asp.snapshot import SnapshotError, snapshot_bytes

        token = self._token(key)
        try:
            payload = snapshot_bytes(prepared, key=token)
        except SnapshotError:
            # not snapshot-capable (no source text, exotic state): not an
            # I/O failure, so it does not count against write_errors
            return False
        try:
            path = self._disk.path_for(token)
            _atomic_write_bytes(path, payload)
        except Exception:
            with self._lock:
                self.write_errors += 1
            return False
        evicted = self._disk._prune(keep=path)
        with self._lock:
            self.writes += 1
            self.evictions += evicted
        return True

    def statistics(self) -> Dict[str, int]:
        return {
            "attaches": self.attaches,
            "misses": self.misses,
            "load_errors": self.load_errors,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "evictions": self.evictions,
        }

    def __repr__(self):
        return (
            f"<SnapshotStore at {self.cache_dir!r}, "
            f"{self.attaches} attaches / {self.misses} misses>"
        )
