"""Concretizers: the ASP-based solver (the paper's contribution) and the
original greedy baseline.

* :class:`repro.spack.concretize.concretizer.Concretizer` — drives the ASP
  pipeline: encode facts (setup), load the logic program, ground, solve,
  extract a concrete Spec DAG (Section V of the paper), with optional reuse of
  installed packages (Section VI).
* :class:`repro.spack.concretize.original.OriginalConcretizer` — the greedy
  fixed-point algorithm Spack used before, which is neither complete nor
  optimal (Section III-C); used as the baseline in Figure 7h and in the
  usability comparisons of Section VI-B.
* :class:`repro.spack.concretize.session.ConcretizationSession` — batch
  concretization: many root specs against one shared, incrementally layered
  grounding, with content-hash-keyed ground and solve caches, solved in
  input order.  All tuning rides in one frozen
  :class:`repro.spack.concretize.config.SessionConfig`:
  ``SessionConfig(cache_dir=...)`` persists the ground/solve caches — plus
  ground *snapshots* from which a second process reads a base with its
  completion template — on disk across processes (see ``docs/ARCHITECTURE.md`` and
  ``docs/CACHING.md``).
  Serving is :class:`repro.spack.service.app.ConcretizationService`, which
  answers cache hits on its request threads and solves each distinct miss
  on a tenant's solver threads through the same session.
* :func:`repro.spack.concretize.explain.explain_unsat` — the minimal
  conflict core behind every
  :class:`~repro.spack.errors.UnsatisfiableSpecError`.
"""

from repro.spack.concretize.concretizer import ConcretizationResult, Concretizer
from repro.spack.concretize.config import SessionConfig, default_worker_count
from repro.spack.concretize.criteria import CRITERIA, Criterion, describe_costs
from repro.spack.concretize.explain import ConstraintProvenance, explain_unsat
from repro.spack.concretize.original import OriginalConcretizer
from repro.spack.concretize.session import (
    ConcretizationSession,
    SessionStatistics,
    compute_content_hash,
)

__all__ = [
    "CRITERIA",
    "ConcretizationResult",
    "ConcretizationSession",
    "Concretizer",
    "ConstraintProvenance",
    "Criterion",
    "OriginalConcretizer",
    "SessionConfig",
    "SessionStatistics",
    "compute_content_hash",
    "default_worker_count",
    "describe_costs",
    "explain_unsat",
]
