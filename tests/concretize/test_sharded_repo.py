"""Sharded repositories: hash composition, layered grounding, invalidation.

The contract under test (ISSUE 3 tentpole):

* a :class:`ShardedRepository` behaves exactly like a flat
  :class:`Repository` through the whole concretization stack — results are
  element-wise identical to the monolithic encoder path, including reuse
  mode, virtual providers spanning shards, and dependency edges pointing at
  *later* shards (which exercise the grounder's choice re-expansion);
* each shard has a stable content hash; mutating one shard changes only
  that shard's hash and the Merkle-composed repository/session hash;
* the spec-independent grounding is a stack of per-shard layers cached per
  chain prefix: after a warm run, editing one shard re-grounds exactly one
  layer per spec family and replays every other layer from the persistent
  ground cache.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.asp.control import PreparedProgram
from repro.spack.concretize import (
    AsyncConcretizationSession,
    ConcretizationSession,
    Concretizer,
    SessionConfig,
)
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.directives import depends_on, version
from repro.spack.errors import PackageError
from repro.spack.package import Package
from repro.spack.repo import Repository, RepositoryShard, ShardedRepository
from repro.spack.store import Database, SolveCache

from tests.conftest import MICRO_PACKAGES

#: one spec family (the ``example`` closure: core + mpi + apps shards)
FAMILY_BATCH = ["example", "example+bzip", "example@1.0.0"]
#: several families, spanning every micro shard and both virtuals
MIXED_BATCH = ["example", "minitool", "minitool+mpi", "miniapp", "oldcode"]

_BY_NAME = {cls.name: cls for cls in MICRO_PACKAGES}
_SHARD_LAYOUT = (
    ("core", ("zlib", "bzip2", "hwloc")),
    ("mpi", ("mpich", "openmpi")),
    ("math", ("miniblas", "reflapack")),
    ("apps", ("example", "minitool", "miniapp", "oldcode")),
)


def _preferences(repo):
    repo.set_provider_preference("mpi", ["mpich", "openmpi"])
    repo.set_provider_preference("blas", ["miniblas", "reflapack"])
    repo.set_provider_preference("lapack", ["miniblas", "reflapack"])
    return repo


def micro_sharded() -> ShardedRepository:
    """The micro catalog split into four shards (apps last)."""
    shards = [
        RepositoryShard(name, [_BY_NAME[n] for n in names])
        for name, names in _SHARD_LAYOUT
    ]
    return _preferences(ShardedRepository(name="micro", shards=shards))


def micro_flat() -> Repository:
    return _preferences(Repository(name="micro", packages=MICRO_PACKAGES))


def signature(result):
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        {level: cost for level, cost in result.costs.items() if cost},
        sorted(result.built),
        sorted(result.reused),
    )


def fresh_session(repo, cache_dir=None, max_concurrency=None, **kwargs):
    """A session with an empty process-wide memo, as a new process has."""
    clear_shared_bases()
    config = SessionConfig(cache_dir=cache_dir, max_concurrency=max_concurrency)
    return ConcretizationSession(repo=repo, session_config=config, **kwargs)


class _Newapp(Package):
    version("1.0")
    depends_on("zlib")


# ---------------------------------------------------------------------------
# Equivalence with the monolithic path
# ---------------------------------------------------------------------------


def test_sharded_is_elementwise_identical_to_monolithic():
    flat = micro_flat()
    session = fresh_session(micro_sharded())
    for spec, result in zip(MIXED_BATCH, session.solve(MIXED_BATCH)):
        sequential = Concretizer(repo=flat).solve([spec])
        assert signature(result) == signature(sequential), spec


def test_sharded_reuse_mode_matches_monolithic():
    flat = micro_flat()
    store = Database()
    store.install(Concretizer(repo=flat).concretize("example~bzip").spec)
    session = fresh_session(micro_sharded(), store=store, reuse=True)
    for spec in ("example~bzip", "minitool", "miniapp"):
        result = session.concretize(spec)
        sequential = Concretizer(repo=flat, store=store, reuse=True).solve([spec])
        assert signature(result) == signature(sequential), spec
    assert session.concretize("example~bzip").number_reused > 0


def test_dependency_on_a_later_shard_is_complete():
    """A shard-1 package depending on a shard-2 package: the version choice
    for the target instantiates before its declarations arrive and must be
    re-expanded by the grounder (stale, empty choices would be unsat)."""

    class Ftool(Package):
        version("1.0")
        depends_on("zlate@2.0:")

    class Zlate(Package):
        version("2.5")
        version("2.0")
        version("1.0")

    sharded = ShardedRepository(
        name="fw",
        shards=[RepositoryShard("first", [Ftool]), RepositoryShard("second", [Zlate])],
    )
    flat = Repository(name="fw", packages=(Ftool, Zlate))
    result = fresh_session(sharded).concretize("ftool")
    assert signature(result) == signature(Concretizer(repo=flat).concretize("ftool"))
    assert str(result.specs["zlate"].versions) == "2.5"


def test_sharded_parallel_solve_matches_sequential():
    """Concurrent misses on a layered base: an async batch solves two spec
    families at once on the session's threads."""
    specs = FAMILY_BATCH + ["minitool"]
    sequential = fresh_session(micro_sharded()).solve(specs)

    async def solve_concurrently():
        async with AsyncConcretizationSession(
            session=fresh_session(micro_sharded(), max_concurrency=2)
        ) as session:
            return await session.concretize_batch(specs)

    concurrent = asyncio.run(solve_concurrently())
    for spec, a, b in zip(specs, concurrent, sequential):
        assert signature(a) == signature(b), spec


@pytest.mark.slow
def test_builtin_sharded_matches_monolithic(builtin_repo, hdf5_result):
    """The builtin catalog (8 shards, virtuals and conditional dependencies
    spanning all of them) concretizes identically through both flavors."""
    assert isinstance(builtin_repo, ShardedRepository)
    session = fresh_session(builtin_repo)
    assert signature(session.concretize("hdf5")) == signature(hdf5_result)


# ---------------------------------------------------------------------------
# Hash composition
# ---------------------------------------------------------------------------


def test_shard_hashes_are_stable_across_constructions():
    assert micro_sharded().shard_hashes() == micro_sharded().shard_hashes()
    assert micro_sharded().content_hash() == micro_sharded().content_hash()


def test_mutating_one_shard_changes_only_that_hash():
    reference = dict(micro_sharded().shard_hashes())
    edited = micro_sharded()
    composed_before = edited.content_hash()
    edited.add(_Newapp, shard="apps")
    after = dict(edited.shard_hashes())
    assert after["apps"] != reference["apps"]
    for name in ("core", "mpi", "math"):
        assert after[name] == reference[name]
    assert edited.content_hash() != composed_before


def test_preferences_change_composed_hash_but_no_shard_hash():
    repo = micro_sharded()
    shard_hashes = repo.shard_hashes()
    composed = repo.content_hash()
    repo.set_provider_preference("mpi", ["openmpi", "mpich"])
    assert repo.shard_hashes() == shard_hashes
    assert repo.content_hash() != composed


def test_session_content_hash_follows_shard_edits():
    one = fresh_session(micro_sharded())
    two = fresh_session(micro_sharded())
    assert one.content_hash() == two.content_hash()
    edited = micro_sharded()
    edited.add(_Newapp, shard="apps")
    assert fresh_session(edited).content_hash() != one.content_hash()


# ---------------------------------------------------------------------------
# Registration semantics
# ---------------------------------------------------------------------------


def test_add_does_not_mutate_the_package_class():
    class Standalone(Package):
        version("1.0")

    Repository(name="one", packages=(Standalone,))
    RepositoryShard("shard", packages=(Standalone,))
    assert "repository" not in vars(Standalone)


def test_same_class_may_join_many_repositories():
    class Shared(Package):
        version("1.0")

    one = Repository(name="one", packages=(Shared,))
    two = Repository(name="two", packages=(Shared,))
    shard = RepositoryShard("extra", packages=(Shared,))
    assert one.get("shared") is two.get("shared") is shard.get("shared")


def test_duplicate_package_across_shards_is_rejected():
    class Dup(Package):
        version("1.0")

    class Dup2(Package):
        name = "dup"
        version("1.0")

    with pytest.raises(PackageError):
        ShardedRepository(
            shards=[RepositoryShard("a", [Dup]), RepositoryShard("b", [Dup2])]
        )


def test_shard_routing_and_lookup():
    repo = micro_sharded()
    assert repo.shard_of("example").name == "apps"
    assert repo.shard_of("zlib").name == "core"
    assert [shard.name for shard in repo.shards] == ["core", "mpi", "math", "apps"]
    repo.add(_Newapp, shard="math")
    assert repo.shard_of("newapp").name == "math"
    assert repo.get("newapp") is _Newapp  # composed lookup sees shard adds
    with pytest.raises(PackageError):
        repo.shard("nope")


# ---------------------------------------------------------------------------
# Layered grounding + per-shard invalidation
# ---------------------------------------------------------------------------

#: the example family touches context + core + mpi + apps (math unused)
FAMILY_LAYERS = 4


def test_cold_session_grounds_one_layer_per_included_shard():
    session = fresh_session(micro_sharded())
    session.solve(FAMILY_BATCH)
    assert session.stats.base_groundings == 1
    assert session.stats.shard_layers_grounded == FAMILY_LAYERS
    assert session.stats.shard_layers_disk == 0
    layers = session.statistics()["base"]["layers"]
    assert layers["total"] == FAMILY_LAYERS
    assert layers["grounded"] == FAMILY_LAYERS


def test_warm_session_replays_every_layer_from_disk(tmp_path):
    cold = fresh_session(micro_sharded(), cache_dir=str(tmp_path))
    expected = [signature(r) for r in cold.solve(FAMILY_BATCH)]
    assert cold.stats.shard_layers_grounded == FAMILY_LAYERS

    warm = fresh_session(micro_sharded(), cache_dir=str(tmp_path))
    # bypass the solve cache so the grounded base itself is exercised
    warm.solve_cache = SolveCache()
    results = [signature(r) for r in warm.solve(FAMILY_BATCH)]
    assert results == expected
    assert warm.stats.shard_layers_grounded == 0
    assert warm.stats.shard_layers_disk == FAMILY_LAYERS
    assert warm.stats.base_groundings == 0


def test_editing_one_shard_regrounds_exactly_one_layer(tmp_path):
    cold = fresh_session(micro_sharded(), cache_dir=str(tmp_path))
    cold.solve(FAMILY_BATCH)

    edited = micro_sharded()
    edited.add(_Newapp, shard="apps")
    session = fresh_session(edited, cache_dir=str(tmp_path))
    results = session.solve(FAMILY_BATCH)

    # the composed hash moved, so solves are cold -- but of the base layers
    # only the apps layer re-grounds; every other shard's persistent ground
    # entry is still warm
    assert session.stats.solve_cache_misses == len(FAMILY_BATCH)
    assert session.stats.shard_layers_grounded == 1
    assert session.stats.shard_layers_disk == FAMILY_LAYERS - 1
    for spec, result in zip(FAMILY_BATCH, results):
        assert signature(result) == signature(
            Concretizer(repo=edited).solve([spec])
        ), spec


def test_editing_an_unreached_shard_keeps_every_layer_warm(tmp_path):
    """The math shard is outside the example family's possible set: editing
    it must not invalidate a single ground layer (only the solve keys)."""
    cold = fresh_session(micro_sharded(), cache_dir=str(tmp_path))
    cold.solve(FAMILY_BATCH)

    edited = micro_sharded()
    edited.add(_Newapp, shard="math")
    session = fresh_session(edited, cache_dir=str(tmp_path))
    session.solve(FAMILY_BATCH)
    assert session.stats.shard_layers_grounded == 0
    assert session.stats.shard_layers_disk == FAMILY_LAYERS


def test_in_memory_prefixes_are_shared_between_sessions():
    repo = micro_sharded()
    one = ConcretizationSession(repo=repo)
    one.solve(["example"])
    assert one.stats.shard_layers_grounded == FAMILY_LAYERS

    edited = micro_sharded()
    edited.add(_Newapp, shard="apps")
    two = ConcretizationSession(repo=edited)
    two.solve(["example"])
    assert two.stats.shard_layers_grounded == 1
    assert two.stats.shard_layers_replayed == FAMILY_LAYERS - 1


# ---------------------------------------------------------------------------
# The grounder primitive underneath: choice re-expansion across layers
# ---------------------------------------------------------------------------

CHOICE_PROGRAM = r"""
1 { pick(P, V) : cand(P, V) } 1 :- want(P).
"""


def test_ground_delta_reexpands_choices_in_place():
    prepared = PreparedProgram(CHOICE_PROGRAM, [("want", "a")])
    layered = prepared.extend([("cand", "a", "v1"), ("cand", "a", "v2")])
    result = layered.fork().solve()
    assert result.satisfiable
    assert len(result.model.atoms("pick")) == 1

    # the base program is untouched: its (empty) choice is still unsatisfiable
    assert not prepared.fork().solve().satisfiable

    # a second extension keeps upgrading the same choice instance
    wider = layered.extend([("cand", "a", "v3")])
    assert wider.fork().solve().satisfiable
    assert len(wider._base.ground_program.choices) == len(
        layered._base.ground_program.choices
    )
