"""Figure 6: concretizing hdf5 with and without reuse optimization.

Paper numbers: with purely hash-based reuse every package misses and 20
installations must be built from source (6a); with the reuse encoding 16
installed packages are reused and only 4 are built (6b).

To reproduce the "all hashes miss" situation, the store is populated with an
hdf5 stack built with an older compiler (gcc 10.3.1) — exactly the kind of
small configuration drift that defeats exact-hash reuse but that the
reuse-aware solver happily absorbs.
"""

import pytest

from benchmarks.reporting import record
from repro.spack.concretize import Concretizer, OriginalConcretizer
from repro.spack.store import Database

REQUEST = "hdf5"


@pytest.fixture(scope="module")
def populated_store(repo):
    """A buildcache containing an hdf5 stack built with gcc 10.3.1."""
    database = Database()
    result = Concretizer(repo=repo).concretize("hdf5 %gcc@10.3.1")
    database.install(result.spec)
    return database


@pytest.fixture(scope="module")
def reuse_comparison(repo, populated_store):
    hash_based = OriginalConcretizer(repo=repo, store=populated_store).concretize(REQUEST)
    solver_based = Concretizer(repo=repo, store=populated_store, reuse=True).concretize(REQUEST)
    # a second, partially-matching request: one variant differs
    partial = Concretizer(repo=repo, store=populated_store, reuse=True).concretize("hdf5+hl")

    rows = [
        ("6a hash-based reuse", len(hash_based.specs), hash_based.number_reused,
         hash_based.number_of_builds),
        ("6b solver reuse", len(solver_based.specs), solver_based.number_reused,
         solver_based.number_of_builds),
        ("6b solver reuse (hdf5+hl)", len(partial.specs), partial.number_reused,
         partial.number_of_builds),
        ("paper 6a (hash)", 20, 0, 20),
        ("paper 6b (reuse)", 20, 16, 4),
    ]
    record(
        "fig6_reuse",
        "Figure 6: hdf5 concretization with and without reuse",
        ["scenario", "packages", "reused", "to build"],
        rows,
    )
    return hash_based, solver_based, partial


def test_fig6a_hash_based_reuse_misses_everything(reuse_comparison):
    hash_based, _, _ = reuse_comparison
    assert hash_based.number_reused == 0
    assert hash_based.number_of_builds == len(hash_based.specs)


def test_fig6b_solver_reuse_reuses_most_packages(reuse_comparison):
    _, solver_based, partial = reuse_comparison
    assert solver_based.number_reused >= 0.8 * len(solver_based.specs)
    # the partially-matching request rebuilds only the changed root
    assert "hdf5" in partial.built
    assert partial.number_reused >= 0.8 * len(partial.specs)


def test_fig6_reused_packages_keep_installed_configuration(repo, populated_store):
    """Reuse takes priority over the defaults for already-installed software
    (the cmake 3.21.1 vs 3.21.4 point in the paper): the reused packages keep
    their gcc 10.3.1 build instead of triggering gcc 11.2.0 rebuilds."""
    result = Concretizer(repo=repo, store=populated_store, reuse=True).concretize(REQUEST)
    reused_compilers = {
        str(result.specs[name].compiler_versions) for name in result.reused
    }
    assert "10.3.1" in reused_compilers
