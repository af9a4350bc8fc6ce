"""Multi-catalog composition and dirty-shard reordering.

The contract under test (ISSUE 4 tentpole, repository half):

* ``ShardedRepository.compose(user, builtin)`` stacks both catalogs' shards
  behind one repository — argument order is precedence (user wins name
  clashes), layering order is the reverse (builtin grounds first, user shards
  sink to the end of the chain);
* sessions over a composed repository are element-wise identical to sessions
  over an equivalent flat merge, and editing a *user* package re-grounds
  exactly one base layer while every builtin layer replays from cache;
* post-attach edits mark shards dirty, and dirty shards ground last
  (``layering_shards``), so repeated edits to a *middle* shard converge to
  one-layer re-grounds.
"""

from __future__ import annotations

import pytest

from repro.spack.concretize import ConcretizationSession, Concretizer, SessionConfig
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.directives import depends_on, version
from repro.spack.errors import PackageError
from repro.spack.package import Package
from repro.spack.repo import Repository, RepositoryShard, ShardedRepository
from tests.conftest import MICRO_PACKAGES

# ---------------------------------------------------------------------------
# Catalog fixtures
# ---------------------------------------------------------------------------

#: the micro catalog split into shards, builtin-style (apps last)
SHARD_LAYOUT = (
    ("core", ("zlib", "bzip2", "hwloc")),
    ("mpi", ("mpich", "openmpi")),
    ("math", ("miniblas", "reflapack")),
    ("apps", ("example", "minitool", "miniapp", "oldcode")),
)


def micro_builtin() -> ShardedRepository:
    by_name = {cls.name: cls for cls in MICRO_PACKAGES}
    repo = ShardedRepository(
        name="micro",
        shards=[
            RepositoryShard(name, [by_name[n] for n in names])
            for name, names in SHARD_LAYOUT
        ],
    )
    repo.set_provider_preference("mpi", ["mpich", "openmpi"])
    repo.set_provider_preference("blas", ["miniblas", "reflapack"])
    repo.set_provider_preference("lapack", ["miniblas", "reflapack"])
    return repo


class Usertool(Package):
    """A user package consuming builtin packages and virtuals."""

    version("1.0")
    depends_on("zlib")
    depends_on("mpi")


class Userlib(Package):
    version("0.5")
    depends_on("zlib@1.2.8:")


def user_catalog(*extra) -> Repository:
    return Repository(name="user", packages=(Usertool, Userlib) + tuple(extra))


def signature(result):
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        {level: cost for level, cost in result.costs.items() if cost},
        sorted(result.built),
        sorted(result.reused),
    )


def fresh_session(repo, cache_dir=None):
    clear_shared_bases()
    config = SessionConfig(cache_dir=cache_dir)
    return ConcretizationSession(repo=repo, session_config=config)


# ---------------------------------------------------------------------------
# Composition structure
# ---------------------------------------------------------------------------


def test_compose_stacks_user_shards_after_builtin():
    composed = ShardedRepository.compose(user_catalog(), micro_builtin())
    names = [shard.name for shard in composed.shards]
    assert names == [
        "micro/core",
        "micro/mpi",
        "micro/math",
        "micro/apps",
        "user/packages",
    ]
    assert composed.layering_shards() == composed.shards  # nothing dirty yet
    assert len(composed) == len(MICRO_PACKAGES) + 2
    assert composed.shard_of("usertool").name == "user/packages"
    assert composed.shard_of("zlib").name == "micro/core"


def test_compose_leaves_sources_untouched():
    user, builtin = user_catalog(), micro_builtin()
    composed = ShardedRepository.compose(user, builtin)
    composed.add(
        type("Extra", (Package,), {"name": "extra-pkg"}), shard="user/packages"
    )
    assert "extra-pkg" in composed
    assert "extra-pkg" not in user
    assert "extra-pkg" not in builtin
    assert builtin.shard("apps").generation == micro_builtin().shard("apps").generation


def test_compose_flat_repository_becomes_one_shard():
    composed = ShardedRepository.compose(user_catalog(), micro_builtin())
    # the flat user catalog contributes a single "<name>/packages" shard
    assert composed.shard("user/packages").package_names() == ["userlib", "usertool"]


def test_compose_precedence_shadows_base_packages():
    class UserZlib(Package):
        name = "zlib"
        version("99.0")

    composed = ShardedRepository.compose(
        Repository(name="user", packages=[UserZlib]), micro_builtin()
    )
    assert composed.get("zlib") is UserZlib
    assert ("zlib", "user", "micro") in composed.shadowed
    assert composed.shard_of("zlib").name == "user/packages"
    # the shadowing package concretizes (it is the only zlib now)
    result = Concretizer(repo=composed).concretize("zlib")
    assert str(result.spec.versions) == "99.0"


def test_compose_merges_provider_preferences_with_precedence():
    user = user_catalog()
    user.set_provider_preference("mpi", ["openmpi", "mpich"])  # flip the default
    composed = ShardedRepository.compose(user, micro_builtin())
    assert composed.providers_for("mpi") == ["openmpi", "mpich"]
    # untouched virtuals keep the base preference
    assert composed.providers_for("blas") == ["miniblas", "reflapack"]


def test_compose_requires_at_least_one_catalog():
    with pytest.raises(PackageError):
        ShardedRepository.compose()


def test_compose_disambiguates_same_named_catalogs():
    composed = ShardedRepository.compose(
        Repository(name="user", packages=[Usertool]),
        Repository(name="user", packages=[Userlib]),
    )
    assert len(composed.shards) == 2
    assert len(composed) == 2


def test_composed_content_hash_tracks_every_source():
    baseline = ShardedRepository.compose(user_catalog(), micro_builtin())

    class Extra(Package):
        name = "extra-pkg"
        version("1.0")

    edited_user = ShardedRepository.compose(user_catalog(Extra), micro_builtin())
    assert edited_user.content_hash() != baseline.content_hash()
    rebuilt = ShardedRepository.compose(user_catalog(), micro_builtin())
    assert rebuilt.content_hash() == baseline.content_hash()


# ---------------------------------------------------------------------------
# Solving through a composed catalog
# ---------------------------------------------------------------------------

WORKLOAD = ("usertool", "userlib", "example", "usertool ^openmpi")


def merged_flat() -> Repository:
    repo = Repository(
        name="merged", packages=tuple(MICRO_PACKAGES) + (Usertool, Userlib)
    )
    repo.set_provider_preference("mpi", ["mpich", "openmpi"])
    repo.set_provider_preference("blas", ["miniblas", "reflapack"])
    repo.set_provider_preference("lapack", ["miniblas", "reflapack"])
    return repo


def test_composed_solves_match_flat_merge():
    composed = ShardedRepository.compose(user_catalog(), micro_builtin())
    session = fresh_session(composed)
    results = session.solve(list(WORKLOAD))
    flat = merged_flat()
    for spec, result in zip(WORKLOAD, results):
        assert signature(result) == signature(
            Concretizer(repo=flat).solve([spec])
        ), spec


def test_user_packages_resolve_builtin_dependencies():
    composed = ShardedRepository.compose(user_catalog(), micro_builtin())
    result = fresh_session(composed).concretize("usertool")
    assert result.spec["zlib"].name == "zlib"
    assert result.spec["mpich"].name == "mpich"  # the preferred mpi provider


def test_editing_the_user_layer_regrounds_exactly_one_layer(tmp_path):
    cold = fresh_session(
        ShardedRepository.compose(user_catalog(), micro_builtin()),
        cache_dir=str(tmp_path),
    )
    cold.solve(["usertool"])
    total = cold.stats.shard_layers_grounded
    assert total >= 3  # context + several builtin shards + the user shard

    class Extra(Package):
        name = "extra-pkg"
        version("1.0")

    edited = ShardedRepository.compose(user_catalog(), micro_builtin())
    edited.add(Extra, shard="user/packages")
    session = fresh_session(edited, cache_dir=str(tmp_path))
    session.solve(["usertool"])
    assert session.stats.shard_layers_grounded == 1
    assert session.stats.shard_layers_disk == total - 1


# ---------------------------------------------------------------------------
# Dirty-shard reordering
# ---------------------------------------------------------------------------


class _EditOne(Package):
    name = "edit-one"
    version("1.0")


class _EditTwo(Package):
    name = "edit-two"
    version("1.0")


def test_post_attach_edits_sink_the_shard_to_the_end():
    repo = micro_builtin()
    repo.add(_EditOne, shard="core")
    assert [s.name for s in repo.shards] == ["core", "mpi", "math", "apps"]
    assert [s.name for s in repo.layering_shards()] == [
        "mpi",
        "math",
        "apps",
        "core",
    ]
    assert repo.dirty_shards() == ["core"]


def test_dirty_order_follows_most_recent_edit():
    repo = micro_builtin()
    repo.add(_EditOne, shard="core")
    repo.add(_EditTwo, shard="mpi")
    assert [s.name for s in repo.layering_shards()] == [
        "math",
        "apps",
        "core",
        "mpi",
    ]
    # editing core again moves it behind mpi
    repo.add(type("EditThree", (Package,), {"name": "edit-three"}), shard="core")
    assert [s.name for s in repo.layering_shards()] == [
        "math",
        "apps",
        "mpi",
        "core",
    ]


def test_attach_time_packages_are_not_edits():
    repo = micro_builtin()
    assert repo.dirty_shards() == []
    assert repo.layering_shards() == repo.shards


def test_repeated_middle_shard_edits_converge_to_one_layer(tmp_path):
    """The ROADMAP scenario: the first edit to a middle shard re-grounds the
    reordered suffix once; every subsequent edit re-grounds exactly one
    layer because the edited shard now lives at the end of the chain."""
    cold = fresh_session(micro_builtin(), cache_dir=str(tmp_path))
    cold.solve(["example"])
    total = cold.stats.shard_layers_grounded

    first = micro_builtin()
    first.add(_EditOne, shard="core")
    session = fresh_session(first, cache_dir=str(tmp_path))
    results = session.solve(["example"])
    assert session.stats.shard_layers_grounded < total  # prefix stayed warm
    assert signature(results[0]) == signature(
        Concretizer(repo=first).solve(["example"])
    )

    second = micro_builtin()
    second.add(_EditOne, shard="core")
    second.add(_EditTwo, shard="core")
    session = fresh_session(second, cache_dir=str(tmp_path))
    results = session.solve(["example"])
    assert session.stats.shard_layers_grounded == 1
    assert signature(results[0]) == signature(
        Concretizer(repo=second).solve(["example"])
    )


def test_reordered_grounding_is_elementwise_identical():
    repo = micro_builtin()
    repo.add(_EditOne, shard="mpi")
    batch = ["example", "example+bzip", "minitool+mpi"]
    results = fresh_session(repo).solve(batch)
    for spec, result in zip(batch, results):
        assert signature(result) == signature(
            Concretizer(repo=repo).solve([spec])
        ), spec
