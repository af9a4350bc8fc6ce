"""Shared fixtures: a micro package repository and cached concretizers.

Most concretizer tests run against ``micro_repo``, a hand-built repository
small enough that every solve finishes in well under a second.  It mirrors the
paper's running examples:

* ``example`` is the Figure 2 package (versions 1.0.0/1.1.0, a ``bzip``
  variant, conditional dependencies on bzip2/zlib, a virtual ``mpi``
  dependency, and conflicts);
* ``mpich`` / ``openmpi`` provide the ``mpi`` virtual;
* ``minitool`` reproduces the hpctoolkit conditional-dependency shape;
* ``miniblas`` / ``reflapack`` provide ``blas``/``lapack`` for provider tests.

Integration tests that need the full builtin catalog use the session-scoped
``builtin_repo`` fixture instead.
"""

from __future__ import annotations

import pytest

from repro.spack.compilers import CompilerRegistry
from repro.spack.directives import conflicts, depends_on, provides, variant, version
from repro.spack.package import Package
from repro.spack.repo import Repository, builtin_repository


# ---------------------------------------------------------------------------
# Micro repository packages
# ---------------------------------------------------------------------------


class Example(Package):
    """The paper's Figure 2 example package."""

    version("1.1.0")
    version("1.0.0")
    version("0.9.0", deprecated=True)

    variant("bzip", default=True, description="enable bzip")

    depends_on("bzip2@1.0.7:", when="+bzip")
    depends_on("zlib")
    depends_on("zlib@1.2.8:", when="@1.1.0:")
    depends_on("mpi")

    conflicts("%intel")
    conflicts("target=aarch64:")


class Zlib(Package):
    version("1.3")
    version("1.2.11")
    version("1.2.8")
    version("1.2.3")
    variant("pic", default=True, description="position independent code")


class Bzip2(Package):
    version("1.0.8")
    version("1.0.7")
    version("1.0.6")
    variant("shared", default=True, description="shared libraries")


class Mpich(Package):
    version("4.0")
    version("3.1")
    provides("mpi")
    depends_on("zlib")


class Openmpi(Package):
    version("4.1.0")
    version("3.1.6")
    provides("mpi")
    depends_on("zlib")
    depends_on("hwloc")


class Hwloc(Package):
    version("2.8.0")
    version("2.7.1")


class Minitool(Package):
    """The hpctoolkit shape: a conditional dependency on a virtual."""

    version("2023.1")
    version("2022.1")
    variant("mpi", default=False, description="enable MPI support")
    depends_on("mpi", when="+mpi")
    depends_on("zlib")


class Miniblas(Package):
    """An openblas-like provider with a threads variant."""

    version("0.3.23")
    version("0.3.20")
    provides("blas")
    provides("lapack", when="@0.3.21:")
    variant(
        "threads",
        default="none",
        values=("none", "openmp", "pthreads"),
        description="threading model",
    )


class Reflapack(Package):
    """A netlib-like reference provider."""

    version("3.11.0")
    provides("blas")
    provides("lapack")


class Miniapp(Package):
    """A berkeleygw-like consumer with provider specialization."""

    version("3.0")
    version("2.1")
    variant("openmp", default=True, description="OpenMP support")
    depends_on("lapack")
    depends_on("miniblas threads=openmp", when="+openmp ^miniblas")
    depends_on("mpi")


class Oldcode(Package):
    """A package whose newest version carries extra restrictions, so the solver
    must be able to backtrack to an older version."""

    version("2.0")
    version("1.0")
    depends_on("zlib")
    depends_on("zlib@:1.2.8", when="@2.0")
    conflicts("%clang", when="@2.0")


MICRO_PACKAGES = (
    Example,
    Zlib,
    Bzip2,
    Mpich,
    Openmpi,
    Hwloc,
    Minitool,
    Miniblas,
    Reflapack,
    Miniapp,
    Oldcode,
)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def isolated_ground_memo():
    """Every test starts with an empty process-wide grounded-base memo, so
    its sessions ground (or load from disk) their own bases and the
    sharing counters it asserts count only its own work."""
    from repro.spack.concretize.session import clear_shared_bases

    clear_shared_bases()


@pytest.fixture(scope="session")
def micro_repo() -> Repository:
    repo = Repository(name="micro", packages=MICRO_PACKAGES)
    repo.set_provider_preference("mpi", ["mpich", "openmpi"])
    repo.set_provider_preference("blas", ["miniblas", "reflapack"])
    repo.set_provider_preference("lapack", ["miniblas", "reflapack"])
    return repo


@pytest.fixture(scope="session")
def builtin_repo() -> Repository:
    return builtin_repository()


@pytest.fixture(scope="session")
def compiler_registry() -> CompilerRegistry:
    return CompilerRegistry()


@pytest.fixture(scope="session")
def micro_concretizer(micro_repo):
    from repro.spack.concretize import Concretizer

    return Concretizer(repo=micro_repo)


@pytest.fixture(scope="session")
def example_result(micro_concretizer):
    """Cached concretization of the Figure 2 example package."""
    return micro_concretizer.concretize("example")


@pytest.fixture(scope="session")
def builtin_concretizer(builtin_repo):
    from repro.spack.concretize import Concretizer

    return Concretizer(repo=builtin_repo)


@pytest.fixture(scope="session")
def hdf5_result(builtin_concretizer):
    """Cached concretization of hdf5 against the builtin repo (used by several
    integration tests so the ~10 s solve happens only once per session)."""
    return builtin_concretizer.concretize("hdf5")
