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
  :class:`repro.asp.control.PreparedProgram` — in one step for a
  :class:`~repro.spack.repo.Repository`, as a chain of one step per shard
  layer for a :class:`~repro.spack.repo.ShardedRepository` — and memoized
  process-wide so later sessions over the same inputs skip straight to
  forking;
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
:class:`~repro.spack.store.PersistentGroundCache` plus a
:class:`~repro.spack.store.SnapshotStore` under ``_base_for``, so a second
process pointed at the same directory replays a warm batch with zero
grounding and zero solver calls.  Both hold each chain step of a base as
its ground :class:`~repro.asp.control.PreparedProgram`, pickled (the
snapshot is preferred), and the snapshot of a base's last step holds its
completion template as well, so a process that reads the base from its
snapshot builds none; a base found on disk runs its encoder
again, which is cheap, for the provenance its explanations need.  All
layers are keyed by the same content hashes as the in-memory caches, so
repo/preset/store changes invalidate disk entries exactly like memory
ones.

Every execution knob (the cache directory and its budgets, the service's
concurrency) lives on one frozen
:class:`~repro.spack.concretize.config.SessionConfig` accepted by all
front-ends via ``session_config=``; the solver's search knobs live on the
session's :class:`~repro.asp.configs.SolverConfig` (``config=``).

One solve is two halves: a solve-cache lookup (``_lookup``) and, on a miss,
``_solve_miss`` — find the base in the process-wide memo or, on a memo
miss, under the process-wide ground lock, solve on it, write the outcome to
the cache.  :meth:`solve` runs
both per spec, in input order; the HTTP service
(:class:`~repro.spack.service.app.ConcretizationService`) runs a batch's
lookups on its request thread with ``_cache_pass``, which also folds
in-batch duplicates into one miss, and each distinct miss on a tenant's
solver threads, so the two share one implementation of a miss.  The
counters are updated under a lock, and both halves may run on several
threads at once.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.asp.configs import SolverConfig
from repro.asp.control import PreparedProgram
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
    """One spec-independent fact layer: its encoder and its grounding.

    Holds the base :class:`ProblemEncoder` (forked per solve to continue its
    condition-id sequence) and the :class:`PreparedProgram` whose grounding is
    forked per solve.

    The grounding is a *chain* of steps, each a :class:`PreparedProgram`
    found under its own key (:meth:`ConcretizationSession._find`).  A
    monolithic :class:`Repository` is a one-step chain keyed by its base key
    and grounded in one shot.  A :class:`~repro.spack.repo.ShardedRepository`
    is a context layer plus one layer per shard
    (:meth:`ProblemEncoder.encode_base_layers`), each ``extend``-ed onto the
    previous one and keyed per chain prefix, so a session over an edited
    shard replays every unaffected prefix and grounds only the layers from
    the edited shard on.  The deepest step found wins; the steps above it
    are ground.  The encoder always runs in full (fact generation is cheap
    and deterministic): a grounding found in memory or on disk still gets
    the encoder's provenance log, condition-id sequence and possible-package
    set, and only grounding is skipped.

    ``steps`` pairs the key and program of every step this base found or
    ground; each session that uses the base writes them through to disk.
    """

    def __init__(
        self, session: "ConcretizationSession", abstract: Sequence[Spec], key: Tuple
    ):
        self.encoder = ProblemEncoder(
            session.repo,
            platform=session.platform,
            compilers=session.compilers,
            store=session.store,
            reuse=session.reuse,
        )
        self.sharded = isinstance(session.repo, ShardedRepository)
        layers: Optional[List[EncodedLayer]] = None
        keys = [key]
        if self.sharded:
            layers = self.encoder.encode_base_layers(abstract)
            keys = session._layer_keys(layers, self.encoder)

        # deepest step first (a fully warm chain is one lookup), then ground
        # the steps above it, each into the process-wide memo
        prepared: Optional[PreparedProgram] = None
        source, start = None, 0
        for index in range(len(keys) - 1, -1, -1):
            found = session._find(keys[index])
            if found is not None:
                (prepared, source), start = found, index + 1
                break
        self.steps: List[Tuple[Tuple, PreparedProgram]] = (
            [(keys[start - 1], prepared)] if start else []
        )
        for index in range(start, len(keys)):
            prepared = self._ground(session, abstract, layers, index, prepared)
            _remember(_SHARED_STEPS, _SHARED_STEPS_LIMIT, keys[index], prepared)
            self.steps.append((keys[index], prepared))
        if start and not self.sharded:
            # the grounding was found whole: run the encoder for its state
            self.encoder.encode_base(abstract, sink=_discard_fact)
        self.prepared = prepared
        self.layers = {"total": len(keys), "grounded": len(keys) - start}
        self.layers["replayed_memory"] = start if source == "memory" else 0
        self.layers["replayed_disk"] = start if source in ("snapshot", "pickle") else 0
        #: True when no grounder ran: the grounding came from a snapshot
        self.snapshot_attached = source == "snapshot" and start == len(keys)

    def _ground(
        self,
        session: "ConcretizationSession",
        abstract: Sequence[Spec],
        layers: Optional[List[EncodedLayer]],
        index: int,
        below: Optional[PreparedProgram],
    ) -> PreparedProgram:
        """Ground chain step ``index`` onto ``below`` (None for the first)."""
        if layers is None:
            encoder = self.encoder

            # Stream encoder -> grounder: every emitted fact is interned
            # into the ground state as soon as `_fact` produces it, so no
            # intermediate base-fact list is materialized on the hot path
            # (the encoder still records facts for provenance/explanations).
            # The source *returns* the root-possibility hints because
            # `possible_packages` is only known once encoding ran: grounding
            # the base as if any possible package could be a root lets every
            # node/version/variant rule instantiate once, up front, so
            # per-spec deltas only ground the input conditions themselves.
            # Hinted-but-unsupported atoms are forced false by completion,
            # so solves stay exact.
            def stream_base(write):
                encoder.encode_base(abstract, sink=write)
                return [("root", name) for name in sorted(encoder.possible_packages)]

            return PreparedProgram(
                logic_program(), config=session.config, fact_source=stream_base
            )
        layer = layers[index]
        if below is None:
            return PreparedProgram(
                logic_program(),
                layer.facts,
                config=session.config,
                possible_hints=layer.hints,
            )
        return below.extend(layer.facts, possible_hints=layer.hints)

    def counters(self) -> Dict[str, int]:
        """What finding or grounding this base adds to the
        :class:`SessionStatistics` of the session that built it: a
        grounding if any step was ground, else a disk hit if the chain came
        from disk, else a memo hit; layer counts for sharded bases only."""
        layers = self.layers
        if layers["grounded"]:
            counts = {"base_groundings": 1}
        elif layers["replayed_disk"]:
            counts = {"base_disk_hits": 1}
        else:
            counts = {"base_cache_hits": 1}
        if self.sharded:
            counts.update(
                shard_layers_grounded=layers["grounded"],
                shard_layers_replayed=layers["replayed_memory"],
                shard_layers_disk=layers["replayed_disk"],
            )
        return counts

    def statistics(self) -> Dict[str, object]:
        stats = self.prepared.statistics()
        if self.sharded:
            stats["layers"] = dict(self.layers)
        if self.snapshot_attached:
            stats["snapshot_attached"] = True
        return stats


def _discard_fact(fact) -> None:
    """Null encoder sink for bases whose grounding was found whole."""


#: Held while a base is found on disk or ground, by every session in the
#: process, so callers of one family ground its base once.  Only a miss in
#: the base memo takes it; a memo hit never waits for another grounding.
_GROUND_LOCK = threading.Lock()

#: Held for each read or write of the two memos below, never for longer.
_MEMO_LOCK = threading.Lock()

#: Process-wide memo of grounded bases, keyed by (content hash, store
#: token, frozenset of possible packages).
_SHARED_BASES: "OrderedDict[Tuple, _GroundedBase]" = OrderedDict()
_SHARED_BASES_LIMIT = 8

#: Process-wide memo of chain steps: a monolithic base's one step under its
#: base key, and every prefix of a sharded base's layer chain under (context
#: token, store token, providers digest, possible-package family, chain of
#: (layer name, shard hash) pairs).  Editing one shard leaves every shorter
#: prefix key valid, so rebuilding a base after the edit replays the longest
#: warm prefix and grounds only the layers above it.  Sized for several
#: families x ~9 layers each.
_SHARED_STEPS: "OrderedDict[Tuple, PreparedProgram]" = OrderedDict()
_SHARED_STEPS_LIMIT = 64


def _recall(memo: OrderedDict, key: Tuple):
    """``memo[key]``, now the most recently used entry, or None."""
    with _MEMO_LOCK:
        value = memo.get(key)
        if value is not None:
            memo.move_to_end(key)
        return value


def _remember(memo: OrderedDict, limit: int, key: Tuple, value) -> None:
    """Store ``value`` under ``key``, dropping the least recently used
    entries beyond ``limit``."""
    with _MEMO_LOCK:
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > limit:
            memo.popitem(last=False)


def clear_shared_bases() -> None:
    """Drop all memoized grounded bases and chain steps, so the next session
    grounds (or loads from disk) its own; tests and benchmarks call it to
    isolate their measurements."""
    with _MEMO_LOCK:
        _SHARED_BASES.clear()
        _SHARED_STEPS.clear()


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


@dataclass
class SessionStatistics:
    """Counters proving (or disproving) that work was shared."""

    #: how many bases this session grounded itself (a sharded base once,
    #: however many of its layers it ground)
    base_groundings: int = 0
    #: how many times a memoized grounded base was reused instead
    base_cache_hits: int = 0
    #: how many grounded bases were loaded from the on-disk ground cache
    base_disk_hits: int = 0
    #: disk loads (monolithic bases or shard-layer prefixes) that came from
    #: a ground snapshot, completion template included, not the pickle
    snapshot_attaches: int = 0
    #: ground snapshots this session wrote through to disk
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
    JSON, and every chain step of a grounded base as a versioned
    :class:`~repro.asp.control.PreparedProgram` pickle and as a ground
    snapshot (:class:`repro.spack.store.SnapshotStore`) that later
    *processes* read first, with the base's completion template in its
    last step's snapshot; a base this session took from the memo is
    written too.  See
    ``docs/CACHING.md``.

    Grounded bases are memoized process-wide, so a later session over the
    same inputs reuses them; :func:`clear_shared_bases` drops that memo.
    A memo hit takes one short lock; only a memo miss takes the
    process-wide ground lock, so calls from several threads and sessions
    (a service's solver threads, its tenants, or a sync caller beside them)
    ground each base once, and none waits for another family's grounding
    when its own base is in the memo.
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
        # lookups and misses update the counters and the write-through sets
        # below from several threads
        self._lock = threading.Lock()
        self._content_hash: Optional[str] = None
        self._context_token: Optional[str] = None
        self._last_base: Optional[_GroundedBase] = None
        # chain-step keys this session found in, or wrote through to, the
        # pickle ground cache (avoids a probe per solve)
        self._ground_persisted: set = set()
        # likewise for the snapshot layer
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

    # -- base chains: step keys, lookup, write-through ------------------

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

    def _find(self, key: Tuple) -> Optional[Tuple[PreparedProgram, str]]:
        """The ground program of one chain step and where it came from: the
        process-wide memo (``"memory"``), a ground snapshot (``"snapshot"``,
        tried first on disk: it carries the completion template the pickle
        lacks) or the pickle ground cache (``"pickle"``); None when none
        has it.  A step found on disk joins the memo and is not written
        back to where it was found; one read from its snapshot is on disk
        in its preferred form, so its pickle write-through is skipped as
        well."""
        prepared = _recall(_SHARED_STEPS, key)
        if prepared is not None:
            return prepared, "memory"
        source = None
        if self.snapshot_store is not None:
            prepared = self.snapshot_store.load(key)
        if prepared is not None:
            source = "snapshot"
            self._count(snapshot_attaches=1)
            self._claim(self._snapshot_persisted, key)
        elif self.ground_cache is not None:
            loaded = self.ground_cache.get(key)
            if isinstance(loaded, PreparedProgram):  # reject foreign payloads
                prepared, source = loaded, "pickle"
        if prepared is None:
            return None
        self._claim(self._ground_persisted, key)
        _remember(_SHARED_STEPS, _SHARED_STEPS_LIMIT, key, prepared)
        return prepared, source

    def _claim(self, persisted: set, key: Tuple) -> bool:
        """Add ``key`` to ``persisted``; True if it was not there yet."""
        with self._lock:
            if key in persisted:
                return False
            persisted.add(key)
            return True

    def _write_through(self, key: Tuple, prepared: PreparedProgram, last: bool) -> None:
        """Write one chain step through to disk, at most once per key per
        session: a snapshot and a pickle, each behind a validated probe
        (a header check or a load, not a bare existence check), so a valid entry
        is left alone and a damaged or version-skewed one is overwritten —
        the cache self-heals.  Steps that came from the memo are written
        too, so warm starts find on disk every step this session used.  The
        ``last`` step, the one solves run on, is snapshotted with its
        completion template (built now if no solve built it yet); the
        shorter prefixes of a sharded chain are never solved on, so they
        go without."""
        if self.snapshot_store is not None and self._claim(self._snapshot_persisted, key):
            if not self.snapshot_store.has_valid(key):
                if self.snapshot_store.put(key, prepared, with_template=last):
                    self._count(snapshot_writes=1)
        if self.ground_cache is not None and self._claim(self._ground_persisted, key):
            if not isinstance(self.ground_cache.get(key), PreparedProgram):
                self.ground_cache.put(key, prepared)

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

        A hit in the process-wide memo takes no ground lock, so it never
        waits for another family's grounding.  A miss takes the ground lock
        on the calling thread and looks again once it holds it: callers of
        one family, from any session, ground its base once, and a caller
        that stops waiting (a request whose deadline passed) cannot let
        another call ground the same base beside this one.  Every step of
        the base is then written through to disk (:meth:`_write_through`).
        """
        key = self._base_key(abstract)
        base = _recall(_SHARED_BASES, key)
        counts: Dict[str, int] = {"base_cache_hits": 1}
        if base is None:
            with _GROUND_LOCK:
                base = _recall(_SHARED_BASES, key)
                if base is None:
                    base = _GroundedBase(self, abstract, key)
                    _remember(_SHARED_BASES, _SHARED_BASES_LIMIT, key, base)
                    counts = base.counters()
        self._count(**counts)
        last = len(base.steps) - 1
        for index, (step_key, prepared) in enumerate(base.steps):
            self._write_through(step_key, prepared, last=index == last)
        self._last_base = base
        return base

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

    def _count(self, **deltas: int) -> None:
        """Add ``deltas`` to the named :class:`SessionStatistics` counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def _solve_uncached(self, spec: Spec, base: _GroundedBase) -> ConcretizationResult:
        """One full solve on ``base``, bypassing the solve cache.

        ``base`` is the grounded base of ``spec``'s family
        (:meth:`_base_for`).  It is only forked, never mutated, so several
        threads may solve on it at once; the first solve on a base builds
        its completion template under the base's lock.  Cache lookups,
        cache writes and statistics stay with the caller.
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

    def _lookup(
        self, key: Tuple
    ) -> Union[ConcretizationResult, UnsatisfiableSpecError, None]:
        """The cache half of one solve, counted: a replayed result, the
        cached unsat error, or None on a miss."""
        # cache first, base lazily: a fully-cached batch never encodes or
        # grounds anything at all
        cached = self.solve_cache.get(key)
        if cached is None:
            self._count(specs_solved=1, solve_cache_misses=1)
            return None
        self._count(specs_solved=1, solve_cache_hits=1)
        if isinstance(cached, UnsatOutcome):
            return cached.to_error()
        return self._replay(cached)

    def _cache_pass(
        self, specs: Sequence[Spec]
    ) -> Tuple[
        List[Tuple[int, ConcretizationResult]],
        List[Tuple[int, UnsatisfiableSpecError]],
        Dict[Tuple, List[int]],
    ]:
        """The cache half of a batch, counted: ``(hits, failures, misses)``.

        ``hits`` and ``failures`` pair an input index with its replayed
        result or its cached unsat error; ``misses`` maps each distinct
        missing solve key to the input indices that ask for it, first one
        first, so the caller solves it once (:meth:`_solve_miss`) and
        replays it for the rest.  A repeat of a missing key counts as a
        cache hit, as in :meth:`solve`, where the first copy fills the
        cache before the repeat looks.
        """
        hits: List[Tuple[int, ConcretizationResult]] = []
        failures: List[Tuple[int, UnsatisfiableSpecError]] = []
        misses: Dict[Tuple, List[int]] = {}
        for index, spec in enumerate(specs):
            key = self._solve_key(spec)
            if key in misses:
                self._count(specs_solved=1, solve_cache_hits=1)
                misses[key].append(index)
                continue
            found = self._lookup(key)
            if found is None:
                misses[key] = [index]
            elif isinstance(found, UnsatisfiableSpecError):
                failures.append((index, found))
            else:
                hits.append((index, found))
        return hits, failures, misses

    def _solve_miss(self, key: Tuple, spec: Spec) -> ConcretizationResult:
        """The miss half of one solve: find or ground the base, solve on it,
        and write the outcome to the solve cache under ``key``."""
        try:
            concretization = self._solve_uncached(spec, self._base_for([spec]))
        except UnsatisfiableSpecError as error:
            # unsat outcomes (message + minimal core) are cached under the
            # same content-hash key, so warm replays raise identically
            self._count(delta_groundings=1)
            self.solve_cache.put(key, UnsatOutcome.from_error(error))
            raise
        self._count(delta_groundings=1)
        # cache a pristine copy: callers may freely mutate the returned DAG
        self.solve_cache.put(key, self._copy_result(concretization))
        return concretization

    def _solve_one(self, spec: Spec) -> ConcretizationResult:
        key = self._solve_key(spec)
        found = self._lookup(key)
        if isinstance(found, UnsatisfiableSpecError):
            raise found
        if found is not None:
            return found
        return self._solve_miss(key, spec)

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
