"""repro: a reproduction of *Using Answer Set Programming for HPC Dependency Solving*.

The package is organised in two layers:

``repro.asp``
    A self-contained Answer Set Programming system (parser, grounder, CDCL
    solver with stable-model semantics and multi-level optimization).  It
    plays the role of *clingo* in the paper.

``repro.spack``
    A Spack-like package manager substrate: spec syntax, version semantics,
    microarchitecture/compiler model, package DSL, repositories, an installed
    package store, and two concretizers — the paper's ASP-based concretizer
    and the original greedy baseline.
"""

from repro.asp.configs import SolverConfig
from repro.asp.control import Control, PreparedProgram, SolveResult
from repro.spack.concretize import (
    ConcretizationResult,
    ConcretizationSession,
    Concretizer,
    SessionConfig,
    explain_unsat,
)
from repro.spack.store import Database, SolveCache

__version__ = "6.0.0"

__all__ = [
    "ConcretizationResult",
    "ConcretizationSession",
    "Concretizer",
    "Control",
    "Database",
    "PreparedProgram",
    "SessionConfig",
    "SolveCache",
    "SolveResult",
    "SolverConfig",
    "explain_unsat",
    "__version__",
]
