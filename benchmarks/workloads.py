"""Shared workloads and fixtures for the benchmark harness.

Everything the benchmarks agree on lives here, in one place:

* the micro catalog (flat and sharded flavors) and the result ``signature``
  every equivalence assertion compares on — updating the identity semantics
  here updates every harness;
* the builtin-catalog package samples (``PACKAGE_SAMPLE`` /
  ``SMALL_SAMPLE``) the paper-figure benchmarks sweep over;
* the 16-spec overlapping spec family (``FAMILY_WORKLOAD_16``) the
  warm-start and service benchmarks batch.
"""

from __future__ import annotations

from repro.spack.generator import SyntheticRepoBuilder
from repro.spack.repo import Repository, RepositoryShard, ShardedRepository
from tests.conftest import MICRO_PACKAGES

#: Packages spanning the possible-dependency range of the builtin repository,
#: from leaves to MPI-reaching packages (the x-axis of Figures 7a-7c).
PACKAGE_SAMPLE = (
    "zlib",
    "bzip2",
    "readline",
    "openssl",
    "pkgconf",
    "libxml2",
    "zfp",
    "hwloc",
    "sz",
    "c-blosc",
    "hdf5",
)

#: Smaller sample for the preset / old-vs-new comparisons (kept small because
#: every entry is solved several times).
SMALL_SAMPLE = ("zlib", "openssl", "hwloc", "sz", "hdf5")

#: 16 distinct, overlapping micro-repo specs from one spec family (versions x
#: variants x dependency constraints of the paper's Figure 2 ``example``
#: package): the shape of an E4S-style build-cache population batch.
FAMILY_WORKLOAD_16 = (
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example@1.1.0",
    "example@1.0.0+bzip",
    "example@1.0.0~bzip",
    "example@1.1.0+bzip",
    "example@1.1.0~bzip",
    "example ^zlib+pic",
    "example ^zlib~pic",
    "example+bzip ^zlib+pic",
    "example~bzip ^zlib~pic",
    "example+bzip ^bzip2+shared",
    "example+bzip ^bzip2~shared",
    "example@1.0.0 ^zlib~pic",
)

#: the micro catalog split into four shards (apps last, like the builtin one)
MICRO_SHARD_LAYOUT = (
    ("core", ("zlib", "bzip2", "hwloc")),
    ("mpi", ("mpich", "openmpi")),
    ("math", ("miniblas", "reflapack")),
    ("apps", ("example", "minitool", "miniapp", "oldcode")),
)


def _micro_preferences(repo):
    repo.set_provider_preference("mpi", ["mpich", "openmpi"])
    repo.set_provider_preference("blas", ["miniblas", "reflapack"])
    repo.set_provider_preference("lapack", ["miniblas", "reflapack"])
    return repo


def micro_repo() -> Repository:
    """The flat (monolithic) micro repository."""
    return _micro_preferences(Repository(name="micro", packages=MICRO_PACKAGES))


def micro_sharded_repo() -> ShardedRepository:
    """The same catalog as :func:`micro_repo`, split into shards."""
    by_name = {cls.name: cls for cls in MICRO_PACKAGES}
    shards = [
        RepositoryShard(name, [by_name[n] for n in names])
        for name, names in MICRO_SHARD_LAYOUT
    ]
    return _micro_preferences(ShardedRepository(name="micro", shards=shards))


def signature(result):
    """Everything that must match for two results to count as identical.

    Cost levels with zero cost are dropped (a shared base grounds minimize
    literals a minimal per-spec grounding never materializes, adding empty
    levels); collections are sorted so the rendering is stable across
    processes and JSON round trips.
    """
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        tuple(sorted((level, cost) for level, cost in result.costs.items() if cost)),
        sorted(result.built),
        sorted(result.reused),
    )


# ---------------------------------------------------------------------------
# Solver-heavy workload (grounder/solver hot-path benchmarks)
# ---------------------------------------------------------------------------

#: Builder knobs of the solver-heavy synthetic catalog.  320 packages across
#: 6 layers with a fan-out of up to 6 dependencies makes the deepest roots
#: reach ~70-package closures — big enough that grounding and solving (not
#: session bookkeeping) dominate wall time.
SOLVER_HEAVY_PACKAGES = 320
SOLVER_HEAVY_SEED = 7

#: The deepest root of that catalog (69 possible packages in its closure).
SOLVER_HEAVY_ROOT = "synth-0296"

#: One spec family over that root (same possible-package set, so the whole
#: batch shares a single grounded base, like the micro family workload —
#: but each solve grounds and searches a ~70-package problem).
SOLVER_HEAVY_WORKLOAD = (
    "synth-0296",
    "synth-0296+opt0",
    "synth-0296~opt0",
    "synth-0296+opt1",
    "synth-0296+opt0+opt1",
    "synth-0296~opt0~opt1",
)


def solver_heavy_repo() -> Repository:
    """The >=300-package synthetic catalog behind ``SOLVER_HEAVY_WORKLOAD``.

    Deterministic (fixed seed), so every benchmark run and both join
    strategies see byte-identical package definitions.
    """
    return SyntheticRepoBuilder(
        num_packages=SOLVER_HEAVY_PACKAGES,
        max_dependencies=6,
        layers=6,
        seed=SOLVER_HEAVY_SEED,
    ).build()
