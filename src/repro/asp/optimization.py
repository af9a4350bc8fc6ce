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
early can force costlier ones true later.  Its optimality is proved one of
two ways:

* **from the descent's own trail** (:meth:`Optimizer.certified`): when
  every level's cost was forced by the decisions of the levels above it,
  the first model is optimal as it stands, with no further solve call
  (the case for every solve of the benchmark's workloads);
* **by bound proofs** otherwise: each level is fixed to its minimal
  achievable value (given all higher levels) before the next level is
  explored.  When the first model is already optimal, each nonzero level
  costs one UNSAT proof instead of a chain of re-descents.
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

    def certified(self, costs: Dict[int, int]) -> bool:
        """Whether the trail of the first model proves its ``costs`` optimal.

        Walk the levels from the highest priority down, with ``depth`` the
        number of decisions made on higher levels' variables (0 at first).
        A level is certified when its base plus the weight of its true
        terms assigned at decision level ``depth`` or below equals its
        cost; ``depth`` then advances past the decisions right after it
        that set one of the level's variables false.

        Why that proves optimality, by induction over the levels: every
        stable model that is optimal on the higher levels satisfies the
        first ``depth`` decisions, hence everything propagated at those
        decision levels (implied by the completion, learnt clauses and
        loop nogoods, which every stable model satisfies).  So it pays at
        least the forced weight at this level, and the first model, which
        pays exactly that, is optimal here too.  Weights are positive, so a
        stable model at this optimum has every other term of the level
        false, in particular the variables of the level's own decisions:
        objective variables come first in the decision order, by priority,
        and are decided false, so each level's decisions form one block
        right after the higher levels' blocks.  A stable model optimal on
        this level too therefore satisfies every decision up to the
        advanced ``depth``, which carries the induction to the next level.

        Reads the trail of the first solve, which has no assumptions.
        """
        solver = self.completed.solver
        objectives = self.completed.objectives
        bases = self.completed.objective_bases
        decisions = solver.decisions()
        level = solver.level
        depth = 0
        for priority in sorted(objectives, reverse=True):
            terms = objectives[priority]
            forced = bases.get(priority, 0) + sum(
                term.weight
                for term in terms
                if solver.model_value(term.variable) and level(term.variable) <= depth
            )
            if forced != costs[priority]:
                return False
            block = {-term.variable for term in terms}
            while depth < len(decisions) and decisions[depth] in block:
                depth += 1
        return True

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
        if self.certified(best_costs):
            return OptimizationResult(
                satisfiable=True,
                optimal=True,
                atoms=best_atoms,
                costs=best_costs,
                models_found=self.models_found,
            )

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
