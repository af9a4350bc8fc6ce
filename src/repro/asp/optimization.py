"""Lexicographic multi-level optimization over stable models.

The paper relies on clingo's multi-objective ``#minimize`` support: criteria
are evaluated in strict priority order (Table II), and the reuse scheme of
Section VI splits every criterion into a "build" bucket and a "reuse" bucket
plus a "number of builds" level between them (Figure 5).

This module provides the equivalent machinery on top of our CDCL solver:

* **objective-first decisions:** before the first solve, every objective
  variable joins the solver's preferred prefix
  (:meth:`~repro.asp.solver.CDCLSolver.prefer_false`), by descending
  priority and then term order, so each descent decides them first, and
  false, before any other variable.  The first stable model is thus built
  greedily level by level, much like clasp's optimization-specific sign
  heuristic (``--opt-heuristic``) or a clingo ``#heuristic`` directive;
* priorities are optimized from highest to lowest;
* within one priority level the driver performs model-guided branch-and-bound
  (find a model, then demand a strictly better objective value via a guarded
  linear constraint, repeat until UNSAT);
* every accepted model is checked for stability by the
  :class:`repro.asp.unfounded.StableModelEnforcer`.

A greedy first model is not guaranteed optimal: a variable decided false
early can force costlier ones true later.  Optimality comes from the bound
proofs alone: each level is fixed to its minimal achievable value (given
all higher levels) before the next level is explored.  When the first model
is already optimal, each nonzero level costs one UNSAT proof instead of a
chain of re-descents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.asp.completion import CompletedProgram, ObjectiveTerm
from repro.asp.unfounded import StableModelEnforcer


@dataclass
class OptimizationResult:
    """Outcome of an optimization run."""

    satisfiable: bool
    optimal: bool = False
    atoms: Set[int] = field(default_factory=set)
    costs: Dict[int, int] = field(default_factory=dict)
    models_found: int = 0

    def cost_tuple(self) -> Tuple[int, ...]:
        """Costs ordered by descending priority (lexicographic comparison order)."""
        return tuple(self.costs[p] for p in sorted(self.costs, reverse=True))


class Optimizer:
    """Drives lexicographic optimization over a :class:`CompletedProgram`."""

    def __init__(
        self,
        completed: CompletedProgram,
        enforce_stability: bool = True,
        on_model=None,
    ):
        self.completed = completed
        self.enforcer = StableModelEnforcer(completed, enabled=enforce_stability)
        self.on_model = on_model
        self.models_found = 0

    # -- helpers ---------------------------------------------------------------

    def _snapshot(self) -> Tuple[Set[int], Dict[int, int]]:
        atoms = self.enforcer.model_atoms
        costs = self.completed.cost_vector()
        self.models_found += 1
        if self.on_model is not None:
            self.on_model(atoms, costs)
        return atoms, costs

    def _level_terms(self, priority: int) -> List[ObjectiveTerm]:
        return self.completed.objectives.get(priority, [])

    def _add_upper_bound(
        self, terms: Sequence[ObjectiveTerm], bound: int, guard: Optional[int] = None
    ) -> bool:
        """Constrain ``sum(weight_i * var_i) <= bound`` (optionally guarded).

        Encoded as ``sum(weight_i * not var_i) >= total - bound``; when a guard
        literal is given the constraint only applies if the guard is true.
        """
        total = sum(term.weight for term in terms)
        required = total - bound
        if required <= 0:
            return True
        literals = [-term.variable for term in terms]
        coefficients = [term.weight for term in terms]
        if guard is not None:
            literals.append(-guard)
            coefficients.append(required)
        return self.completed.solver.add_linear_geq(literals, coefficients, required)

    # -- main driver -----------------------------------------------------------------

    def optimize(self) -> OptimizationResult:
        solver = self.completed.solver
        objectives = self.completed.objectives
        solver.prefer_false(
            term.variable
            for priority in sorted(objectives, reverse=True)
            for term in objectives[priority]
        )

        if not self.enforcer.solve():
            return OptimizationResult(satisfiable=False)
        best_atoms, best_costs = self._snapshot()

        priorities = sorted(
            set(self.completed.objectives) | set(self.completed.objective_bases),
            reverse=True,
        )

        for priority in priorities:
            terms = self._level_terms(priority)
            base = self.completed.objective_bases.get(priority, 0)
            if not terms:
                best_costs[priority] = base
                continue

            best_value = best_costs.get(priority, base)

            # Branch and bound: demand strictly better values until UNSAT.
            while best_value > base:
                guard = solver.new_var()
                target = best_value - base - 1
                self._add_upper_bound(terms, target, guard=guard)
                if not solver.ok:
                    break
                if self.enforcer.solve([guard]):
                    best_atoms, best_costs = self._snapshot()
                    best_value = best_costs[priority]
                else:
                    solver.add_clause([-guard])
                    break

            # Freeze this level at its optimum before optimizing lower levels.
            self._add_upper_bound(terms, best_value - base)
            best_costs[priority] = best_value

        return OptimizationResult(
            satisfiable=True,
            optimal=True,
            atoms=best_atoms,
            costs=best_costs,
            models_found=self.models_found,
        )

    def statistics(self) -> Dict[str, int]:
        stats = dict(self.enforcer.statistics())
        stats["models_found"] = self.models_found
        return stats
