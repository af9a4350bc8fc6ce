"""Solver configuration presets.

clingo ships six configuration presets (frumpy, jumpy, tweety, trendy,
crafty, handy); the paper benchmarks *tweety* (typical ASP programs),
*trendy* (industrial problems) and *handy* (large problems) and picks tweety
as Spack's default (Figure 7d).

Our CDCL solver exposes the analogous knobs — decision heuristic, default
phase and restart policy.  Every preset decides the objective
variables first, and false, before its heuristic and default phase act
(objective-first decisions, :mod:`repro.asp.optimization`), so on the
concretizer's programs the presets search much alike and the Figure 7d
curves (``benchmarks/bench_fig7d_presets.py``) lie close together; the
measurements are in ``docs/PERFORMANCE.md``.  Like Spack, a session solves
with one configuration (tweety by default); the presets are compared
offline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

#: legal values of the CDCL knobs (the solver treats any other heuristic as
#: VSIDS, so a typo must fail here instead)
HEURISTICS = ("vsids", "fixed")
RESTART_STRATEGIES = ("luby", "geometric", "none")


@dataclass(frozen=True)
class SolverConfig:
    """A named bundle of search-strategy parameters, validated on creation."""

    name: str = "tweety"
    heuristic: str = "vsids"  # "vsids" or "fixed"
    default_phase: bool = False
    restart_strategy: str = "luby"  # "luby", "geometric", or "none"
    restart_base: int = 100
    var_decay: float = 0.95
    enforce_stability: bool = True
    description: str = ""

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise ValueError(
                f"unknown heuristic {self.heuristic!r} (expected one of {HEURISTICS})"
            )
        if self.restart_strategy not in RESTART_STRATEGIES:
            raise ValueError(
                f"unknown restart strategy {self.restart_strategy!r} "
                f"(expected one of {RESTART_STRATEGIES})"
            )
        if not isinstance(self.restart_base, int) or self.restart_base < 1:
            raise ValueError(
                f"restart_base must be a positive integer, got {self.restart_base!r}"
            )
        if not isinstance(self.var_decay, (int, float)) or not (
            0.0 < float(self.var_decay) <= 1.0
        ):
            raise ValueError(f"var_decay must be in (0, 1], got {self.var_decay!r}")
        if not isinstance(self.default_phase, bool):
            raise ValueError(f"default_phase must be a bool, got {self.default_phase!r}")

    @classmethod
    def presets(cls) -> Dict[str, "SolverConfig"]:
        return dict(_PRESETS)

    @classmethod
    def preset(cls, name: str) -> "SolverConfig":
        try:
            return _PRESETS[name]
        except KeyError:
            known = ", ".join(sorted(_PRESETS))
            raise KeyError(f"unknown solver preset {name!r} (known: {known})") from None

    def with_overrides(self, **kwargs) -> "SolverConfig":
        """A validated copy with ``kwargs`` applied (``ValueError`` on an
        unknown knob or an invalid value)."""
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(f"unknown solver option(s): {sorted(unknown)}")
        return replace(self, **kwargs)

    def solver_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :class:`~repro.asp.solver.CDCLSolver`."""
        return {
            "heuristic": self.heuristic,
            "default_phase": self.default_phase,
            "restart_strategy": self.restart_strategy,
            "restart_base": self.restart_base,
            "var_decay": self.var_decay,
        }


_PRESETS: Dict[str, SolverConfig] = {
    "tweety": SolverConfig(
        name="tweety",
        heuristic="vsids",
        default_phase=False,
        restart_strategy="luby",
        restart_base=100,
        var_decay=0.95,
        description="Geared towards typical ASP programs (the paper's default).",
    ),
    "trendy": SolverConfig(
        name="trendy",
        heuristic="vsids",
        default_phase=False,
        restart_strategy="geometric",
        restart_base=256,
        var_decay=0.99,
        description="Geared towards industrial problems (slower restarts).",
    ),
    "handy": SolverConfig(
        name="handy",
        heuristic="vsids",
        default_phase=True,
        restart_strategy="luby",
        restart_base=500,
        var_decay=0.99,
        description="Geared towards large problems (conservative restarts).",
    ),
    "frumpy": SolverConfig(
        name="frumpy",
        heuristic="fixed",
        default_phase=False,
        restart_strategy="geometric",
        restart_base=100,
        var_decay=0.95,
        description="Conservative defaults reminiscent of older solvers.",
    ),
    "jumpy": SolverConfig(
        name="jumpy",
        heuristic="vsids",
        default_phase=False,
        restart_strategy="luby",
        restart_base=50,
        var_decay=0.90,
        description="Aggressive restarts.",
    ),
    "crafty": SolverConfig(
        name="crafty",
        heuristic="vsids",
        default_phase=True,
        restart_strategy="geometric",
        restart_base=128,
        var_decay=0.97,
        description="Geared towards crafted (combinatorial) problems.",
    ),
}
