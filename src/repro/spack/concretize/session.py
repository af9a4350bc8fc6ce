"""Batch concretization with shared grounding and solve caching.

The paper frames concretization as one ASP solve per root spec, but its
evaluation (the Figure 6 reuse study, the Figure 7e–7g build-cache sweeps)
really solves *many related* specs — and most of the grounded program is
identical across those solves: everything derived from the package
repository, the compiler registry, the platform, and the installed-package
store.  A :class:`ConcretizationSession` exploits that:

* the fact layer is split into a **spec-independent base**
  (:meth:`~repro.spack.concretize.encoder.ProblemEncoder.encode_base`) and a
  **spec-dependent delta**
  (:meth:`~repro.spack.concretize.encoder.ProblemEncoder.encode_delta`);
* the base is parsed and grounded exactly once per content hash (a digest of
  repository + compiler registry + platform + solver/criteria preset) via
  :class:`repro.asp.control.PreparedProgram`, and memoized process-wide so
  later sessions over the same inputs skip straight to forking;
* every solve forks the base grounding and grounds only its delta facts
  (semi-naive incremental grounding, see
  :meth:`repro.asp.grounder.Grounder.ground_delta`);
* results are memoized in a :class:`repro.spack.store.SolveCache`, so
  repeated specs — the dominant case in build-cache population runs — skip
  encode/ground/solve entirely and replay the extracted DAG.

Mutating the repository (a new package version), swapping compiler
registries, or switching presets changes the content hash, which transparently
bypasses every stale cache layer.

A session solves its specs one after another, in input order, each as one
solve (the unit the paper times).  Process parallelism lives one level
up: ``python -m repro.spack.service --workers N`` forks N serving
processes that share warm state through the on-disk cache.  See
``docs/ARCHITECTURE.md`` for the full data-flow picture and
``docs/CACHING.md`` for the on-disk contracts.

**Persistence** — ``SessionConfig(cache_dir=...)`` swaps the private
in-memory :class:`~repro.spack.store.SolveCache` for a
:class:`~repro.spack.store.PersistentSolveCache` and adds a
:class:`~repro.spack.store.PersistentGroundCache` plus a flat mmap-able
:class:`~repro.spack.store.SnapshotStore` under ``_base_for``, so a second
process pointed at the same directory replays a warm batch with zero
grounding and zero solver calls — attaching the shared ground snapshot
near-zero-copy instead of unpickling an object graph where possible.  All
layers are keyed by the same content hashes as the in-memory caches, so
repo/preset/store changes invalidate disk entries exactly like memory ones.

Every execution knob (the cache directory and its budgets, the async
front-end's concurrency) lives on one frozen
:class:`~repro.spack.concretize.config.SessionConfig` accepted by all
front-ends via ``session_config=``; the solver's search knobs live on the
session's :class:`~repro.asp.configs.SolverConfig` (``config=``).

For *serving* concretizations instead of batching them, the
:class:`~repro.spack.concretize.async_session.AsyncConcretizationSession`
front-end wraps a session in ``asyncio``: awaitable solves, an
``as_completed()`` streaming API whose cache misses solve concurrently on
one set of solver threads, bounded concurrency, and clean cancellation —
sharing this module's caches and statistics, and element-wise identical to
:meth:`ConcretizationSession.solve`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.asp.configs import SolverConfig
from repro.asp.control import PreparedProgram
from repro.asp.snapshot import SnapshotError
from repro.spack.architecture import Platform, default_platform
from repro.spack.compilers import CompilerRegistry
from repro.spack.concretize.concretizer import (
    ConcretizationResult,
    UnsatOutcome,
    result_from_solve,
)
from repro.spack.concretize.config import SessionConfig
from repro.spack.concretize.explain import explain_unsat
from repro.spack.concretize.criteria import (
    BUILD_PRIORITY_OFFSET,
    CRITERIA,
    NUMBER_OF_BUILDS_LEVEL,
)
from repro.spack.concretize.encoder import EncodedLayer, ProblemEncoder
from repro.spack.concretize.logic import logic_program
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.repo import Repository, ShardedRepository, builtin_repository
from repro.spack.spec import Spec
from repro.spack.spec_parser import parse_spec
from repro.spack.store import (
    PersistentGroundCache,
    PersistentSolveCache,
    SnapshotStore,
    SolveCache,
)


# ---------------------------------------------------------------------------
# Content hashing
# ---------------------------------------------------------------------------


def _describe_compilers(compilers: CompilerRegistry) -> Tuple:
    return tuple(
        sorted((compiler.name, str(compiler.version)) for compiler in compilers)
    )


def _describe_platform(platform: Platform) -> Tuple:
    return (
        platform.name,
        platform.family,
        platform.default_target,
        platform.default_os,
        tuple(platform.operating_systems),
    )


def _describe_criteria() -> Tuple:
    return (
        BUILD_PRIORITY_OFFSET,
        NUMBER_OF_BUILDS_LEVEL,
        tuple((c.number, c.name, c.scope) for c in CRITERIA),
    )


def _context_description(
    platform: Platform,
    compilers: CompilerRegistry,
    config: SolverConfig,
    reuse: bool,
) -> Tuple:
    """Everything but the repository that the shared program depends on."""
    return (
        _describe_platform(platform),
        _describe_compilers(compilers),
        repr(config),
        _describe_criteria(),
        logic_program(),
        bool(reuse),
    )


def compute_context_token(
    platform: Platform,
    compilers: CompilerRegistry,
    config: SolverConfig,
    reuse: bool = False,
) -> str:
    """Digest of the repository-independent shared-program inputs.

    Sharded sessions key their per-shard ground layers on this token plus
    the chain of shard hashes, so a single-shard edit leaves every other
    layer's key — and its cached grounding — untouched.
    """
    description = _context_description(platform, compilers, config, reuse)
    return hashlib.sha256(repr(description).encode("utf-8")).hexdigest()[:32]


def compute_content_hash(
    repo: Repository,
    platform: Platform,
    compilers: CompilerRegistry,
    config: SolverConfig,
    reuse: bool = False,
) -> str:
    """Digest of everything the shared (spec-independent) program depends on.

    Two sessions with equal content hashes may share grounded programs and
    solve-cache entries; any difference — a new package version, another
    compiler, a different solver/criteria preset — changes the hash and
    bypasses every cached artifact derived from the old inputs.  (Installed
    stores are hashed separately, per solve, since they mutate mid-session.)

    The repository contributes through :meth:`Repository.content_hash`,
    which for a :class:`~repro.spack.repo.ShardedRepository` is the
    Merkle-style combination of its per-shard hashes — editing one shard
    re-hashes only that shard, and the layers above see exactly which shard
    moved (:meth:`~repro.spack.repo.ShardedRepository.shard_hashes`).
    """
    description = (
        repo.content_hash(),
        _context_description(platform, compilers, config, reuse),
    )
    digest = hashlib.sha256(repr(description).encode("utf-8"))
    return digest.hexdigest()[:32]


def _canonical_spec(spec: Spec) -> str:
    """A canonical rendering of an abstract spec for cache keys (stable under
    variant/dependency declaration order)."""
    parts = [spec.name or ""]
    if not spec.versions.is_any:
        parts.append(f"@{spec.versions}")
    for variant in sorted(spec.variants):
        value = spec.variants[variant]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in sorted(value))
        parts.append(f" {variant}={value}")
    if spec.compiler:
        parts.append(f" %{spec.compiler}")
        if not spec.compiler_versions.is_any:
            parts.append(f"@{spec.compiler_versions}")
    if spec.os:
        parts.append(f" os={spec.os}")
    if spec.target:
        parts.append(f" target={spec.target}")
    for dep_name in sorted(spec.dependencies):
        parts.append(f" ^{_canonical_spec(spec.dependencies[dep_name])}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Shared grounded bases
# ---------------------------------------------------------------------------


class _GroundedBase:
    """One spec-independent fact layer, encoded and grounded once.

    Holds the base :class:`ProblemEncoder` (forked per solve to continue its
    condition-id sequence) and the :class:`PreparedProgram` whose grounding is
    forked per solve.

    For a monolithic :class:`Repository` the whole base is encoded and
    grounded in one shot.  For a :class:`~repro.spack.repo.ShardedRepository`
    it is built as a *chain* of prepared programs — a context layer plus one
    layer per shard (:meth:`ProblemEncoder.encode_base_layers`), each
    ``extend``-ed incrementally onto the previous one and cached per chain
    prefix (in memory and, with a ``cache_dir``, on disk) — so a session
    over an edited shard replays every unaffected prefix and re-grounds only
    the layers from the edited shard on.  The encoder always re-runs in full
    (fact generation is cheap and deterministic); only *grounding* is
    skipped on warm prefixes.
    """

    def __init__(self, session: "ConcretizationSession", abstract: Sequence[Spec]):
        self.encoder = ProblemEncoder(
            session.repo,
            platform=session.platform,
            compilers=session.compilers,
            store=session.store,
            reuse=session.reuse,
        )
        #: layer bookkeeping (all zero on the monolithic path)
        self.layers_total = 0
        self.layers_grounded = 0
        self.layers_replayed_memory = 0
        self.layers_replayed_disk = 0
        #: True when the grounding came from an mmap-attached snapshot
        self.snapshot_attached = False
        if isinstance(session.repo, ShardedRepository):
            self._build_layered(session, abstract)
        else:
            self._build_monolithic(session, abstract)

    def _build_monolithic(self, session: "ConcretizationSession", abstract: Sequence[Spec]):
        encoder = self.encoder

        # Stream encoder -> grounder: every emitted fact is interned into
        # the ground state as soon as `_fact` produces it, so no
        # intermediate base-fact list is materialized on the hot path (the
        # encoder still records facts for provenance/explanations).  The
        # source *returns* the root-possibility hints because
        # `possible_packages` is only known once encoding ran: grounding
        # the base as if any possible package could be a root lets every
        # node/version/variant rule instantiate once, up front, so
        # per-spec deltas only ground the input conditions themselves.
        # Hinted-but-unsupported atoms are forced false by completion, so
        # solves stay exact.
        def stream_base(write):
            encoder.encode_base(abstract, sink=write)
            return [("root", name) for name in sorted(encoder.possible_packages)]

        self.prepared = PreparedProgram(
            logic_program(), config=session.config, fact_source=stream_base
        )

    def _build_layered(self, session: "ConcretizationSession", abstract: Sequence[Spec]):
        layers = self.encoder.encode_base_layers(abstract)
        self.layers_total = len(layers)
        keys = session._layer_keys(layers, self.encoder)

        # Longest warm prefix first (deepest key wins; a fully warm chain is
        # one lookup), then extend with the remaining layers, registering and
        # persisting every freshly grounded prefix.
        prepared: Optional[PreparedProgram] = None
        start = 0
        for index in range(len(layers) - 1, -1, -1):
            found = session._lookup_layer(keys[index])
            if found is None:
                continue
            prepared, source = found
            start = index + 1
            if source == "disk":
                self.layers_replayed_disk = start
            else:
                self.layers_replayed_memory = start
            # write-through, so warm starts find the replayed prefix on disk
            session._persist_layer(keys[index], prepared)
            break
        for index in range(start, len(layers)):
            layer = layers[index]
            if prepared is None:
                prepared = PreparedProgram(
                    logic_program(),
                    layer.facts,
                    config=session.config,
                    possible_hints=layer.hints,
                )
            else:
                prepared = prepared.extend(layer.facts, possible_hints=layer.hints)
            self.layers_grounded += 1
            session._remember_layer(keys[index], prepared)
            session._persist_layer(keys[index], prepared)
        self.prepared = prepared

    @classmethod
    def from_snapshot(
        cls,
        session: "ConcretizationSession",
        abstract: Sequence[Spec],
        prepared: PreparedProgram,
    ) -> "_GroundedBase":
        """A base whose *grounding* was attached from a flat mmap snapshot.

        Only the ground state comes from disk (see
        :mod:`repro.asp.snapshot`); the encoder re-runs over the repository
        with a discarding sink to rebuild its provenance log, condition-id
        sequence, and possible-package set — fact generation is cheap and
        deterministic, the same trade the layered path makes on every warm
        replay.  No grounder runs at all, so the session's
        ``base_groundings`` counter stays at zero on this path.
        """
        base = cls.__new__(cls)
        base.encoder = ProblemEncoder(
            session.repo,
            platform=session.platform,
            compilers=session.compilers,
            store=session.store,
            reuse=session.reuse,
        )
        base.layers_total = 0
        base.layers_grounded = 0
        base.layers_replayed_memory = 0
        base.layers_replayed_disk = 0
        base.snapshot_attached = True
        base.encoder.encode_base(abstract, sink=_discard_fact)
        base.prepared = prepared
        return base

    def statistics(self) -> Dict[str, object]:
        stats = self.prepared.statistics()
        if self.layers_total:
            stats["layers"] = {
                "total": self.layers_total,
                "grounded": self.layers_grounded,
                "replayed_memory": self.layers_replayed_memory,
                "replayed_disk": self.layers_replayed_disk,
            }
        if self.snapshot_attached:
            stats["snapshot_attached"] = True
        return stats


def _discard_fact(fact) -> None:
    """Null encoder sink for snapshot-attached bases (grounding is on disk)."""


#: Process-wide memo of grounded bases, keyed by
#: (content hash, frozenset of possible packages).
_SHARED_BASES: "OrderedDict[Tuple, _GroundedBase]" = OrderedDict()
_SHARED_BASES_LIMIT = 8

#: Process-wide memo of layered base *prefixes* (sharded repositories only),
#: keyed by (context token, store token, providers digest, possible-package
#: family, chain of (layer name, shard hash) pairs).  Editing one shard
#: leaves every shorter prefix key valid, so rebuilding a base after the
#: edit replays the longest warm prefix and grounds only the layers above
#: it.  Sized for several families x ~9 layers each.
_SHARED_LAYERS: "OrderedDict[Tuple, PreparedProgram]" = OrderedDict()
_SHARED_LAYERS_LIMIT = 64


def clear_shared_bases() -> None:
    """Drop all memoized grounded bases, so the next session grounds (or
    loads from disk) its own; tests and benchmarks call it to isolate
    their measurements."""
    _SHARED_BASES.clear()
    _SHARED_LAYERS.clear()


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


@dataclass
class SessionStatistics:
    """Counters proving (or disproving) that work was shared."""

    #: how many spec-independent layers this session encoded+grounded itself
    base_groundings: int = 0
    #: how many times a memoized grounded base was reused instead
    base_cache_hits: int = 0
    #: how many grounded bases were loaded from the on-disk ground cache
    base_disk_hits: int = 0
    #: disk loads (monolithic bases or shard-layer prefixes) that *attached*
    #: a flat mmap snapshot instead of unpickling an object graph
    snapshot_attaches: int = 0
    #: flat snapshots this session wrote through to disk
    snapshot_writes: int = 0
    #: sharded repositories: shard/context layers this session delta-ground
    shard_layers_grounded: int = 0
    #: sharded repositories: layers replayed from the in-memory prefix memo
    shard_layers_replayed: int = 0
    #: sharded repositories: layers replayed from the on-disk ground cache
    shard_layers_disk: int = 0
    #: solves that forked the base and ground only their delta facts
    delta_groundings: int = 0
    #: solves answered straight from the solve cache (no grounding at all)
    solve_cache_hits: int = 0
    solve_cache_misses: int = 0
    #: total specs concretized through this session
    specs_solved: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "base_groundings": self.base_groundings,
            "base_cache_hits": self.base_cache_hits,
            "base_disk_hits": self.base_disk_hits,
            "snapshot_attaches": self.snapshot_attaches,
            "snapshot_writes": self.snapshot_writes,
            "shard_layers_grounded": self.shard_layers_grounded,
            "shard_layers_replayed": self.shard_layers_replayed,
            "shard_layers_disk": self.shard_layers_disk,
            "delta_groundings": self.delta_groundings,
            "solve_cache_hits": self.solve_cache_hits,
            "solve_cache_misses": self.solve_cache_misses,
            "specs_solved": self.specs_solved,
        }


class ConcretizationSession:
    """Concretize many root specs while sharing everything shareable.

    Drop-in relationship to :class:`~repro.spack.concretize.Concretizer`:
    ``session.solve(specs)`` returns one :class:`ConcretizationResult` per
    input spec, element-wise identical to running a fresh concretizer per
    spec — just without re-lexing, re-grounding, and re-solving the shared
    portion of the problem every time.

    Execution knobs live on one frozen
    :class:`~repro.spack.concretize.config.SessionConfig` passed as
    ``session_config=`` — persistence (``cache_dir``,
    ``cache_max_entries`` / ``cache_max_bytes``); see
    :class:`SessionConfig` for per-knob semantics.  Problem inputs stay
    explicit parameters, mirroring :class:`Concretizer`, plus:

    * ``solve_cache`` — a :class:`repro.spack.store.SolveCache` to share
      across sessions (defaults to a private one, or to a
      :class:`repro.spack.store.PersistentSolveCache` when
      ``session_config.cache_dir`` is given).

    With a ``cache_dir``, solved results are written through as versioned
    JSON, grounded bases as versioned pickles, and additionally as flat
    mmap-able ground snapshots
    (:class:`repro.spack.store.SnapshotStore`) that later *processes*
    attach near-zero-copy instead of unpickling; see ``docs/CACHING.md``.

    Grounded bases are memoized process-wide, so a later session over the
    same inputs reuses them; :func:`clear_shared_bases` drops that memo.
    Finding or grounding a base holds the session's ground lock, so calls
    from several threads (the async session's solver threads, or a sync
    caller beside them) ground each base once.
    """

    def __init__(
        self,
        repo: Optional[Repository] = None,
        platform: Optional[Platform] = None,
        compilers: Optional[CompilerRegistry] = None,
        store=None,
        reuse: bool = False,
        config: Optional[SolverConfig] = None,
        solve_cache: Optional[SolveCache] = None,
        session_config: Optional[SessionConfig] = None,
    ):
        cfg = session_config if session_config is not None else SessionConfig()
        if not isinstance(cfg, SessionConfig):
            raise TypeError(
                f"session_config must be a SessionConfig, got {type(cfg).__name__}"
            )
        self.session_config = cfg
        self.repo = repo or builtin_repository()
        self.platform = platform or default_platform()
        self.compilers = compilers or CompilerRegistry()
        self.store = store
        self.reuse = reuse
        self.config = config or SolverConfig.preset("tweety")
        cache_dir = cfg.cache_dir
        self.cache_dir = cache_dir
        if solve_cache is not None:
            self.solve_cache = solve_cache
        elif cache_dir is not None:
            self.solve_cache = PersistentSolveCache(
                cache_dir,
                max_disk_entries=cfg.cache_max_entries,
                max_disk_bytes=cfg.cache_max_bytes,
            )
        else:
            self.solve_cache = SolveCache()
        self.ground_cache: Optional[PersistentGroundCache] = None
        self.snapshot_store: Optional[SnapshotStore] = None
        if cache_dir is not None:
            self.ground_cache = PersistentGroundCache(
                cache_dir,
                max_entries=cfg.cache_max_entries,
                max_bytes=cfg.cache_max_bytes,
            )
            self.snapshot_store = SnapshotStore(
                cache_dir,
                max_entries=cfg.cache_max_entries,
                max_bytes=cfg.cache_max_bytes,
            )
        self.stats = SessionStatistics()
        # held by _base_for on whichever thread runs it
        self._ground_lock = threading.Lock()
        self._content_hash: Optional[str] = None
        self._context_token: Optional[str] = None
        self._last_base: Optional[_GroundedBase] = None
        self._local_bases: "OrderedDict[Tuple, _GroundedBase]" = OrderedDict()
        # session-local memo of layered base prefixes (sharded repositories);
        # the process-wide _SHARED_LAYERS is consulted after it
        self._local_layers: "OrderedDict[Tuple, PreparedProgram]" = OrderedDict()
        # base keys known to have a valid disk ground-cache entry (avoids a
        # probe per solve)
        self._ground_persisted: set = set()
        # likewise for the flat snapshot layer
        self._snapshot_persisted: set = set()

    # ------------------------------------------------------------------

    def content_hash(self) -> str:
        """Digest of (repository, platform, compilers, solver/criteria preset).

        Computed once per session — mutate those inputs through a *new*
        session.  The installed-package store is deliberately *not* part of
        this hash: it may legitimately grow mid-session (install, then
        re-solve), so its state is tracked per solve via
        :meth:`Database.content_hash` instead.
        """
        if self._content_hash is None:
            self._content_hash = compute_content_hash(
                self.repo,
                self.platform,
                self.compilers,
                self.config,
                self.reuse,
            )
        return self._content_hash

    def _store_token(self) -> Optional[str]:
        if self.reuse and self.store is not None:
            return self.store.content_hash()
        return None

    def context_token(self) -> str:
        """Digest of the repository-independent shared-program inputs
        (memoized; see :func:`compute_context_token`)."""
        if self._context_token is None:
            self._context_token = compute_context_token(
                self.platform, self.compilers, self.config, self.reuse
            )
        return self._context_token

    # -- layered bases (sharded repositories) ---------------------------

    def _layer_keys(
        self, layers: Sequence[EncodedLayer], encoder: ProblemEncoder
    ) -> List[Tuple]:
        """One cache key per chain *prefix* of a layered base.

        The key of prefix ``0..i`` embeds everything its grounding depends
        on: the context token, the store token (installed versions leak into
        shard layers under reuse), the provider/preference tables (weights
        shift when any provider registers, even outside the possible set),
        the possible-package family, and the ``(layer name, shard hash)``
        chain up to ``i``.  An edit to shard *k* therefore changes exactly
        the keys of prefixes ``k..n`` — everything below stays warm.
        """
        repo: ShardedRepository = self.repo
        shard_hashes = dict(repo.shard_hashes())
        prefix = (
            "shard-layer",
            self.context_token(),
            self._store_token(),
            repo.providers_digest(),
            frozenset(encoder.possible_packages),
        )
        keys: List[Tuple] = []
        chain: List[Tuple[str, str]] = []
        for layer in layers:
            chain.append((layer.name, shard_hashes.get(layer.shard, "")))
            keys.append(prefix + (tuple(chain),))
        return keys

    def _lookup_layer(self, key: Tuple) -> Optional[Tuple[PreparedProgram, str]]:
        """A memoized or persisted prefix program: (program, source) or None."""
        prepared = self._local_layers.get(key)
        if prepared is not None:
            self._local_layers.move_to_end(key)
            return prepared, "memory"
        prepared = _SHARED_LAYERS.get(key)
        if prepared is not None:
            _SHARED_LAYERS.move_to_end(key)
            self._local_layers[key] = prepared
            return prepared, "memory"
        if self.snapshot_store is not None:
            # flat snapshot first (same preference as the monolithic path);
            # an attached layer is already on disk in its preferred form, so
            # the pickle write-through is skipped for it as well
            prepared = self._materialize_snapshot(key)
            if prepared is not None:
                self._snapshot_persisted.add(key)
                self._ground_persisted.add(key)
                self._remember_layer(key, prepared)
                return prepared, "disk"
        if self.ground_cache is not None:
            loaded = self.ground_cache.get(key)
            if isinstance(loaded, PreparedProgram):  # reject foreign payloads
                self._ground_persisted.add(key)
                self._remember_layer(key, loaded)
                return loaded, "disk"
        return None

    def _remember_layer(self, key: Tuple, prepared: PreparedProgram) -> None:
        self._local_layers[key] = prepared
        while len(self._local_layers) > _SHARED_LAYERS_LIMIT:
            self._local_layers.popitem(last=False)
        _SHARED_LAYERS[key] = prepared
        while len(_SHARED_LAYERS) > _SHARED_LAYERS_LIMIT:
            _SHARED_LAYERS.popitem(last=False)

    def _persist_layer(self, key: Tuple, prepared: PreparedProgram) -> None:
        """Write a prefix program through to disk (validated, self-healing).

        Mirrors the monolithic write-through: even a prefix replayed from a
        process-wide memo is persisted if the directory lacks a valid entry,
        so warm starts always find every prefix this session used — as a
        flat snapshot (preferred) and as a pickle.
        """
        self._persist_snapshot(key, prepared)
        if self.ground_cache is None or key in self._ground_persisted:
            return
        if not isinstance(self.ground_cache.get(key), PreparedProgram):
            self.ground_cache.put(key, prepared)
        self._ground_persisted.add(key)

    def _persist_snapshot(self, key: Tuple, prepared: PreparedProgram) -> None:
        """Write a flat snapshot through to disk (validated, self-healing)."""
        if self.snapshot_store is None or key in self._snapshot_persisted:
            return
        if not self.snapshot_store.has_valid(key):
            if self.snapshot_store.put(key, prepared):
                self.stats.snapshot_writes += 1
        self._snapshot_persisted.add(key)

    def _materialize_snapshot(self, key: Tuple) -> Optional[PreparedProgram]:
        """Attach + materialize the snapshot for ``key``, or None on any
        miss.  A snapshot that attaches but turns out corrupt during the
        lazy decode degrades to None too (tallied as a load error on the
        store) — the caller then grounds cold and the subsequent
        write-through replaces the damaged file."""
        snapshot = self.snapshot_store.load(key)
        if snapshot is None:
            return None
        try:
            prepared = snapshot.materialize()
        except SnapshotError:
            self.snapshot_store.note_load_error(key)
            snapshot.close()
            return None
        self.stats.snapshot_attaches += 1
        return prepared

    def statistics(self) -> Dict[str, object]:
        """Session counters plus the active base's grounder statistics."""
        result: Dict[str, object] = dict(self.stats.as_dict())
        result["solve_cache"] = self.solve_cache.statistics()
        if self.snapshot_store is not None:
            result["snapshot_store"] = self.snapshot_store.statistics()
        if self._last_base is not None:
            result["base"] = self._last_base.statistics()
        return result

    # ------------------------------------------------------------------

    def _as_specs(self, specs: Sequence[Union[str, Spec]]) -> List[Spec]:
        parsed: List[Spec] = []
        for spec in specs:
            parsed.append(parse_spec(spec) if isinstance(spec, str) else spec.copy())
        return parsed

    def _possible_packages(self, abstract: Sequence[Spec]) -> frozenset:
        # the exact computation the encoder itself performs, so base-cache
        # keys can never diverge from what was actually encoded
        return frozenset(ProblemEncoder.possible_packages_for(self.repo, abstract))

    def _base_for(self, abstract: Sequence[Spec]) -> _GroundedBase:
        """The grounded base for one spec's reachable package set.

        Specs over the same possible-package family (the overwhelmingly
        common case in batch/build-cache runs: variants, versions, compilers
        of the same roots) share one base; each solve then runs on a program
        exactly as large as a standalone concretizer's, so sharing never
        slows the search down.

        Runs under the session's ground lock, held on the calling thread:
        a caller that stops waiting (a cancelled async call) cannot let
        another call ground the same base beside this one.
        """
        with self._ground_lock:
            key = self._base_key(abstract)
            sharded = isinstance(self.repo, ShardedRepository)
            base = self._local_bases.get(key)
            if base is not None:
                self._local_bases.move_to_end(key)
                self.stats.base_cache_hits += 1
                self._last_base = base
                return base
            base = _SHARED_BASES.get(key)
            if base is not None:
                _SHARED_BASES.move_to_end(key)
                self.stats.base_cache_hits += 1
            from_snapshot = False
            if base is None and self.snapshot_store is not None and not sharded:
                # flat snapshots first: attaching is O(header) + a lazy
                # decode, cheaper than walking a pickled object graph of the
                # same base
                base = self._attach_snapshot(key, abstract)
                if base is not None:
                    from_snapshot = True
                    self.stats.base_disk_hits += 1
                    self._snapshot_persisted.add(key)
            probed_disk = False
            if base is None and self.ground_cache is not None and not sharded:
                probed_disk = True
                loaded = self.ground_cache.get(key)
                if isinstance(loaded, _GroundedBase):  # reject foreign payloads
                    base = loaded
                    self.stats.base_disk_hits += 1
                    self._ground_persisted.add(key)
            if base is None:
                base = _GroundedBase(self, abstract)
                if base.layers_total:
                    # layered construction (sharded repository): account at
                    # layer granularity — a fully replayed chain grounds
                    # nothing
                    self.stats.shard_layers_grounded += base.layers_grounded
                    self.stats.shard_layers_replayed += base.layers_replayed_memory
                    self.stats.shard_layers_disk += base.layers_replayed_disk
                    if base.layers_grounded:
                        self.stats.base_groundings += 1
                    elif base.layers_replayed_disk:
                        self.stats.base_disk_hits += 1
                    else:
                        self.stats.base_cache_hits += 1
                else:
                    self.stats.base_groundings += 1
            if (
                self.ground_cache is not None
                and not sharded
                and not from_snapshot
                and key not in self._ground_persisted
            ):
                # Write through even when the base came from the in-memory
                # memo (e.g. grounded by a cache_dir-less session): warm
                # starts must find every base this session used on disk.
                # The probe is a *validated* load (not a bare existence
                # check), so corrupted or version-skewed entries get
                # overwritten — the cache self-heals.  (Sharded bases
                # persist per chain prefix instead, inside
                # _GroundedBase._build_layered; snapshot-attached bases are
                # already on disk in their preferred form.)
                if probed_disk or not isinstance(
                    self.ground_cache.get(key), _GroundedBase
                ):
                    self.ground_cache.put(key, base)
                self._ground_persisted.add(key)
            if not sharded:
                # Same write-through contract for the flat snapshot beside
                # the pickle: a validated attach probe, so damaged or skewed
                # files are overwritten and the layer self-heals.  (Sharded
                # bases snapshot per chain prefix inside _persist_layer.)
                self._persist_snapshot(key, base.prepared)
            _SHARED_BASES[key] = base
            while len(_SHARED_BASES) > _SHARED_BASES_LIMIT:
                _SHARED_BASES.popitem(last=False)
            self._local_bases[key] = base
            while len(self._local_bases) > _SHARED_BASES_LIMIT:
                self._local_bases.popitem(last=False)
            self._last_base = base
            return base

    def _attach_snapshot(
        self, key: Tuple, abstract: Sequence[Spec]
    ) -> Optional[_GroundedBase]:
        """A monolithic base materialized from an mmap-attached ground
        snapshot, or None on any miss (see :meth:`_materialize_snapshot`)."""
        prepared = self._materialize_snapshot(key)
        if prepared is None:
            return None
        return _GroundedBase.from_snapshot(self, abstract, prepared)

    def _base_key(self, abstract: Sequence[Spec]) -> Tuple:
        return (
            self.content_hash(),
            self._store_token(),
            self._possible_packages(abstract),
        )

    def _solve_key(self, spec: Spec) -> Tuple:
        return (self.content_hash(), self._store_token(), _canonical_spec(spec))

    # ------------------------------------------------------------------

    def solve(self, specs: Sequence[Union[str, Spec]]) -> List[ConcretizationResult]:
        """Concretize every spec (one independent solve each, in input
        order), sharing the grounded base across the batch and replaying
        cached solves.

        ``solve(specs)[i]`` always answers ``specs[i]``; the first
        unsatisfiable spec raises its
        :class:`~repro.spack.errors.UnsatisfiableSpecError`.
        """
        return [self._solve_one(spec) for spec in self._as_specs(specs)]

    def concretize(self, spec: Union[str, Spec]) -> ConcretizationResult:
        """Concretize a single abstract spec through the session caches."""
        return self.solve([spec])[0]

    # ------------------------------------------------------------------

    def _solve_uncached(self, spec: Spec, base: _GroundedBase) -> ConcretizationResult:
        """One full solve on ``base``, bypassing the solve cache.

        ``base`` is the grounded base of ``spec``'s family
        (:meth:`_base_for`).  It is only forked, never mutated, so the async
        session runs several of these at once on its solver threads; the
        first solve on a base builds its completion template under the
        base's lock.  Cache lookups, cache writes and statistics stay with
        the caller.
        """
        encoder = base.encoder.fork()

        # Stream the per-spec delta facts from the encoder straight into
        # the forked grounder (no intermediate list on the hot path); the
        # encoder's own fact log still accumulates for the explainer.  The
        # fork times the stream as "setup".
        delta_facts: List[Tuple] = []

        def stream_delta(write):
            delta_facts.extend(encoder.encode_delta([spec], sink=write))

        control = base.prepared.fork(config=self.config, fact_source=stream_delta)
        result = control.solve()
        statistics: Dict[str, object] = {
            "encoding": encoder.stats.as_dict(),
            **result.statistics,
            "session": {
                "solve_cache": "miss",
                "shared_base": True,
                **base.statistics(),
            },
        }

        def explainer():
            provenance = list(getattr(base.encoder, "provenance", ())) + list(
                encoder.provenance
            )
            return explain_unsat(
                list(base.encoder.facts) + list(delta_facts),
                provenance,
                self.config,
            )

        return result_from_solve([spec], result, statistics, explainer=explainer)

    def _solve_one(self, spec: Spec) -> ConcretizationResult:
        self.stats.specs_solved += 1
        key = self._solve_key(spec)
        cached = self.solve_cache.get(key)
        if cached is not None:
            # cache first, base lazily: a fully-cached batch never encodes
            # or grounds anything at all
            self.stats.solve_cache_hits += 1
            if isinstance(cached, UnsatOutcome):
                raise cached.to_error()
            return self._replay(cached)
        self.stats.solve_cache_misses += 1

        try:
            concretization = self._solve_uncached(spec, self._base_for([spec]))
        except UnsatisfiableSpecError as error:
            # unsat outcomes (message + minimal core) are cached under the
            # same content-hash key, so warm replays raise identically
            self.stats.delta_groundings += 1
            self.solve_cache.put(key, UnsatOutcome.from_error(error))
            raise
        self.stats.delta_groundings += 1
        # cache a pristine copy: callers may freely mutate the returned DAG
        self.solve_cache.put(key, self._copy_result(concretization))
        return concretization

    @staticmethod
    def _copy_specs(result: ConcretizationResult) -> Tuple[List[Spec], Dict[str, Spec]]:
        specs: Dict[str, Spec] = {}
        roots: List[Spec] = []
        for root in result.roots:
            copy = root.copy()
            roots.append(copy)
            for node in copy.traverse():
                specs[node.name] = node
        for name, spec in result.specs.items():
            if name not in specs:
                specs[name] = spec.copy()
        return roots, specs

    def _copy_result(
        self,
        result: ConcretizationResult,
        statistics: Optional[Dict[str, object]] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> ConcretizationResult:
        roots, specs = self._copy_specs(result)
        return ConcretizationResult(
            roots=roots,
            specs=specs,
            costs=dict(result.costs),
            timings=dict(result.timings) if timings is None else timings,
            statistics=dict(result.statistics) if statistics is None else statistics,
            built=set(result.built),
            reused=set(result.reused),
            model=result.model,
        )

    def _replay(self, cached: ConcretizationResult) -> ConcretizationResult:
        """An independent copy of a cached result (callers may mutate specs)."""
        statistics: Dict[str, object] = dict(cached.statistics)
        statistics["session"] = {
            **(cached.statistics.get("session") or {}),
            "solve_cache": "hit",
        }
        timings = {"setup": 0.0, "load": 0.0, "ground": 0.0, "solve": 0.0, "total": 0.0}
        return self._copy_result(cached, statistics=statistics, timings=timings)
