"""A Spack-like package-manager substrate.

This subpackage models the parts of Spack the paper's concretizer needs:

* :mod:`repro.spack.version` — versions, ranges, and ``@1.2:`` constraints;
* :mod:`repro.spack.architecture` — microarchitecture targets, families,
  operating systems, and platforms;
* :mod:`repro.spack.compilers` — compilers, versions, and which targets each
  can generate code for;
* :mod:`repro.spack.spec` / :mod:`repro.spack.spec_parser` — the spec DAG
  model and the sigil syntax of Table I;
* :mod:`repro.spack.package` / :mod:`repro.spack.directives` — the package
  DSL (Figure 2);
* :mod:`repro.spack.repo` — package repositories and possible-dependency
  expansion;
* :mod:`repro.spack.store` — the installed-package database / buildcache;
* :mod:`repro.spack.concretize` — the ASP-based concretizer (the paper's
  contribution) and the original greedy concretizer (the baseline);
* :mod:`repro.spack.service` — the HTTP concretization service.

The names re-exported here (and listed in ``__all__``) are the supported
public surface: the spec/version model, the sessions and their
:class:`~repro.spack.concretize.config.SessionConfig`, the service, the
error hierarchy, and :func:`~repro.spack.concretize.explain.explain_unsat`.
``tools/check_docs.py`` holds the README and docs to this surface.
"""

from repro.spack.concretize import (
    ConcretizationResult,
    ConcretizationSession,
    SessionConfig,
    explain_unsat,
)
from repro.spack.errors import (
    SpackError,
    SpecSyntaxError,
    UnknownPackageError,
    UnsatisfiableSpecError,
)
from repro.spack.spec import Spec
from repro.spack.spec_parser import parse_spec
from repro.spack.version import Version, VersionList, VersionRange, ver

__all__ = [
    "ConcretizationResult",
    "ConcretizationSession",
    "SessionConfig",
    "SpackError",
    "Spec",
    "SpecSyntaxError",
    "UnknownPackageError",
    "UnsatisfiableSpecError",
    "Version",
    "VersionList",
    "VersionRange",
    "explain_unsat",
    "parse_spec",
    "ver",
]
