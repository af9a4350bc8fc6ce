"""Clark completion: translate a :class:`GroundProgram` into a CDCL instance.

Every ground atom becomes a solver variable.  Every rule body gets a *body
literal* (an auxiliary variable for bodies with more than one literal) so the
completion ("an atom is true only if one of its supporting bodies is true")
can be expressed compactly and so that the unfounded-set checker and the
optimization driver can refer to rule bodies directly.

Choice rules contribute *support* for their candidate atoms without forcing
them, plus cardinality constraints for their bounds, exactly mirroring the
semantics used by the paper's encoding (e.g. "pick exactly one version per
node", "pick at most one installed hash per package").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.asp.errors import SolveError
from repro.asp.ground import GroundProgram
from repro.asp.solver import CDCLSolver


class Support(NamedTuple):
    """One way an atom can be derived: a body literal plus the body's positive
    atoms (needed by the unfounded-set check to identify external support)."""

    body_literal: int
    positive_atoms: Tuple[int, ...]


@dataclass
class ObjectiveTerm:
    """A weighted solver literal contributing to one optimization level."""

    weight: int
    variable: int
    key: Tuple = ()


@dataclass
class CompletedProgram:
    """The result of completion: a solver plus the mappings around it."""

    solver: CDCLSolver
    ground_program: GroundProgram
    atom_to_var: Dict[int, int] = field(default_factory=dict)
    var_to_atom: Dict[int, int] = field(default_factory=dict)
    supports: Dict[int, List[Support]] = field(default_factory=dict)
    fact_atoms: Set[int] = field(default_factory=set)
    objectives: Dict[int, List[ObjectiveTerm]] = field(default_factory=dict)
    objective_bases: Dict[int, int] = field(default_factory=dict)
    true_literal: int = 0
    #: suspect-group index -> selector variable, for retractable facts: the
    #: fact atoms of a group hold iff their selector is assumed true, so an
    #: unsat core over selector assumptions names the guilty fact groups
    selectors: Dict[int, int] = field(default_factory=dict)

    def variable(self, atom_id: int) -> int:
        return self.atom_to_var[atom_id]

    def true_atoms(self) -> Set[int]:
        """Atoms true in the solver's current model."""
        model = self.solver.model()
        return {atom_id for atom_id, var in self.atom_to_var.items() if model[var]}

    def level_cost(self, priority: int) -> int:
        """Cost of the current model at one priority level."""
        base = self.objective_bases.get(priority, 0)
        total = base
        for term in self.objectives.get(priority, []):
            if self.solver.model_value(term.variable):
                total += term.weight
        return total

    def cost_vector(self) -> Dict[int, int]:
        """Costs of the current model at every priority level (descending)."""
        priorities = sorted(
            set(self.objectives) | set(self.objective_bases), reverse=True
        )
        return {priority: self.level_cost(priority) for priority in priorities}


class CompletionBuilder:
    """Builds a :class:`CompletedProgram` from a :class:`GroundProgram`.

    Every atom of the program's table gets a solver variable up front
    (atom ``a`` is variable ``a + offset``), so literals are computed
    instead of looked up.  Clauses are buffered in emission order and handed
    to :meth:`CDCLSolver.add_clauses` in bulk: before each linear constraint
    and at the end.  The solver sees the same clauses in the same order as
    with one ``add_clause`` call each, so its state is the same.
    """

    def __init__(
        self,
        ground_program: GroundProgram,
        solver: Optional[CDCLSolver] = None,
        retractable: Optional[Dict[int, int]] = None,
    ):
        self.ground_program = ground_program
        self.solver = solver or CDCLSolver()
        self.completed = CompletedProgram(solver=self.solver, ground_program=ground_program)
        self._body_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        # fact atom id -> suspect-group index; these facts are guarded by a
        # per-group selector instead of being asserted unconditionally
        self._retractable: Dict[int, int] = dict(retractable or {})
        self._offset = 0
        self._clauses: List[List[int]] = []

    # -- low-level helpers --------------------------------------------------

    def _flush(self):
        """Hand the buffered clauses to the solver."""
        self.solver.add_clauses(self._clauses)
        self._clauses = []

    def _body_literal(self, pos: Sequence[int], neg: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of the body."""
        offset = self._offset
        if not neg:
            if len(pos) == 1:
                return pos[0] + offset
            if not pos:
                return self.completed.true_literal
        elif not pos and len(neg) == 1:
            return -neg[0] - offset
        key = (tuple(sorted(pos)), tuple(sorted(neg)))
        cached = self._body_cache.get(key)
        if cached is not None:
            return cached
        literals = [a + offset for a in pos]
        literals += [-a - offset for a in neg]
        aux = self.solver.new_var()
        clauses = self._clauses
        for literal in literals:
            clauses.append([-aux, literal])
        clauses.append([aux] + [-literal for literal in literals])
        self._body_cache[key] = aux
        return aux

    # -- build steps ------------------------------------------------------------

    def build(self) -> CompletedProgram:
        self._create_true_constant()
        self._intern_all_atoms()
        self._add_retractable_support()
        self._add_facts()
        self._add_normal_rules()
        self._add_choice_rules()
        self._add_constraints()
        self._add_completion_clauses()
        self._add_objectives()
        self._flush()
        return self.completed

    def _create_true_constant(self):
        true_var = self.solver.new_var()
        self._clauses.append([true_var])
        self.completed.true_literal = true_var

    def _intern_all_atoms(self):
        count = len(self.ground_program.atoms)
        offset = self._offset = self.solver.new_vars(count) - 1
        atoms = range(1, count + 1)
        self.completed.atom_to_var = {atom_id: atom_id + offset for atom_id in atoms}
        self.completed.var_to_atom = {atom_id + offset: atom_id for atom_id in atoms}

    def _add_facts(self):
        offset = self._offset
        for atom_id in self.ground_program.facts:
            if atom_id in self._retractable:
                continue  # guarded by a selector, not asserted unconditionally
            self.completed.fact_atoms.add(atom_id)
            self._clauses.append([atom_id + offset])

    def _add_retractable_support(self):
        """Selector-guarded support for retractable atoms.

        A retractable atom is true iff its group's selector is (assumed)
        true; the selector acts as external support so the unfounded-set
        check treats the atom like any derived one.
        """
        for atom_id, group in sorted(self._retractable.items()):
            selector = self.completed.selectors.get(group)
            if selector is None:
                selector = self.solver.new_var()
                self.completed.selectors[group] = selector
            self._clauses.append([-selector, atom_id + self._offset])
            self.completed.supports.setdefault(atom_id, []).append(
                Support(selector, ())
            )

    def _add_normal_rules(self):
        offset = self._offset
        clauses = self._clauses
        supports = self.completed.supports
        body_literal_of = self._body_literal
        for rule in self.ground_program.rules:
            body_literal = body_literal_of(rule.pos, rule.neg)
            clauses.append([-body_literal, rule.head + offset])
            supports.setdefault(rule.head, []).append(Support(body_literal, tuple(rule.pos)))

    def _add_choice_rules(self):
        offset = self._offset
        for choice in self.ground_program.choices:
            body_literal = self._body_literal(choice.pos, choice.neg)
            candidates: List[int] = []
            seen: Set[int] = set()
            for atom_id in choice.atoms:
                if atom_id in seen:
                    continue
                seen.add(atom_id)
                candidates.append(atom_id)
                self.completed.supports.setdefault(atom_id, []).append(
                    Support(body_literal, tuple(choice.pos))
                )
            candidate_vars = [a + offset for a in candidates]
            count = len(candidate_vars)

            lower = choice.lower
            upper = choice.upper
            if lower is not None and lower > 0:
                if lower > count:
                    # Body must never hold: the bound is unreachable.
                    self._clauses.append([-body_literal])
                else:
                    self._flush()
                    self.solver.add_linear_geq(
                        candidate_vars + [-body_literal],
                        [1] * count + [lower],
                        lower,
                    )
            if upper is not None and upper < count:
                slack_needed = count - upper
                self._flush()
                self.solver.add_linear_geq(
                    [-v for v in candidate_vars] + [-body_literal],
                    [1] * count + [slack_needed],
                    slack_needed,
                )

    def _add_constraints(self):
        offset = self._offset
        clauses = self._clauses
        for constraint in self.ground_program.constraints:
            clause = [-a - offset for a in constraint.pos]
            clause += [a + offset for a in constraint.neg]
            clauses.append(clause)

    def _add_completion_clauses(self):
        offset = self._offset
        clauses = self._clauses
        fact_atoms = self.completed.fact_atoms
        supports = self.completed.supports
        for atom_id in range(1, len(self.ground_program.atoms) + 1):
            if atom_id in fact_atoms:
                continue
            atom_supports = supports.get(atom_id)
            if not atom_supports:
                clauses.append([-atom_id - offset])
                continue
            clauses.append([-atom_id - offset] + [s.body_literal for s in atom_supports])

    def _add_objectives(self):
        grouped: Dict[Tuple, List] = {}
        for literal in self.ground_program.minimize_literals:
            grouped.setdefault(literal.key, []).append(literal)

        for key, elements in grouped.items():
            priority = elements[0].priority
            weight = elements[0].weight
            if weight < 0:
                raise SolveError("negative minimize weights are not supported")
            if weight == 0:
                continue

            unconditional = any(not e.pos and not e.neg for e in elements)
            if unconditional:
                base = self.completed.objective_bases.get(priority, 0)
                self.completed.objective_bases[priority] = base + weight
                continue

            # One objective variable per unique key; it is true iff at least
            # one of the element conditions holds.
            objective_var = self.solver.new_var()
            condition_literals: List[int] = []
            for element in elements:
                body_literal = self._body_literal(element.pos, element.neg)
                condition_literals.append(body_literal)
                self._clauses.append([-body_literal, objective_var])
            self._clauses.append([-objective_var] + condition_literals)

            self.completed.objectives.setdefault(priority, []).append(
                ObjectiveTerm(weight=weight, variable=objective_var, key=key)
            )


def complete(
    ground_program: GroundProgram,
    solver: Optional[CDCLSolver] = None,
    retractable: Optional[Dict[int, int]] = None,
) -> CompletedProgram:
    """Convenience wrapper around :class:`CompletionBuilder`."""
    return CompletionBuilder(ground_program, solver, retractable=retractable).build()
