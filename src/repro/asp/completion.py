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

**Completing a grounded base once.**  A session solves many specs over one
grounded base, each adding a small delta (a few facts, rules and
constraints).  Every clause of the base's completion stays valid under any
such delta except the per-atom *support closures* ("an atom implies one of
its supporting bodies"): a delta fact makes a base atom true without
support, and a delta rule adds a support.  :class:`BaseCompletion` therefore
loads each base once, without its closures, and keeps the result as a
:class:`CompletionTemplate` of flat arrays; every solve loads the template
into a fresh solver and adds only its delta and every closure.  The
template travels in the base's ground snapshot, so a process that reads the
base from its snapshot never loads it again.  A delta the
template cannot serve (the grounder upgraded a base choice instance in place,
or a delta minimize element shares a base element's key) is completed whole,
by the same :class:`CompletionBuilder` over an empty base.

**Tightness.**  A program whose positive dependency graph has no cycle is
*tight*, and every supported model of a tight program is stable (Fages
1994), so :class:`~repro.asp.unfounded.StableModelEnforcer` skips its
unfounded-set check on such programs.  The template records whether its base
is tight; a delta can only add a loop through one of its own rules.
"""

from __future__ import annotations

import sys
import threading
from array import array
from itertools import accumulate, chain, islice
from operator import is_
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.asp.errors import SolveError
from repro.asp.ground import GroundProgram
from repro.asp.solver import CDCLSolver, collector_paused


class Support(NamedTuple):
    """One way an atom can be derived: a body literal plus the body's positive
    atoms (needed by the unfounded-set check to identify external support)."""

    body_literal: int
    positive_atoms: Tuple[int, ...]


class ObjectiveTerm(NamedTuple):
    """A weighted solver literal contributing to one optimization level."""

    weight: int
    variable: int


class CompletedProgram:
    """The result of completion: a solver plus the mappings around it."""

    def __init__(self, solver: CDCLSolver, ground_program: GroundProgram):
        self.solver = solver
        self.ground_program = ground_program
        self.atom_to_var: Dict[int, int] = {}
        self.fact_atoms: Set[int] = set()
        self.objectives: Dict[int, List[ObjectiveTerm]] = {}
        self.objective_bases: Dict[int, int] = {}
        self.true_literal = 0
        #: suspect-group index -> selector variable, for retractable facts: the
        #: fact atoms of a group hold iff their selector is assumed true, so an
        #: unsat core over selector assumptions names the guilty fact groups
        self.selectors: Dict[int, int] = {}
        #: no positive loop: every supported model is stable
        self.tight = False
        #: the template the solver was loaded from, whose supports
        #: :attr:`supports` decodes on first use
        self.template: Optional[CompletionTemplate] = None
        self._added_supports: Dict[int, List[Support]] = {}
        self._supports: Optional[Dict[int, List[Support]]] = None

    @property
    def supports(self) -> Dict[int, List[Support]]:
        """Every atom's supports, in the order completion added them."""
        if self.template is None:
            return self._added_supports
        if self._supports is None:
            supports = self.template.supports()
            for atom_id, added in self._added_supports.items():
                supports[atom_id] = supports.get(atom_id, []) + added
            self._supports = supports
        return self._supports

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


class CompletionTemplate:
    """The completion of one grounded base, without its support closures.

    ``image`` is the solver's level-0 state after loading the base's facts,
    rules, choices, constraints and objectives.  Base atom ``a`` is variable
    ``a + 1`` (variable 1 is the true constant).  The supports of atom
    ``a`` are entries ``support_offsets[a]`` to ``support_offsets[a + 1]`` of
    ``support_bodies`` (their body literals); the positive atoms of support
    ``k`` are entries ``positive_offsets[k]`` to ``positive_offsets[k + 1]``
    of ``positive_atoms``.  ``ranks`` numbers the atoms in a post-order of
    the positive dependency graph (every edge goes to a lower rank) when the
    base is tight, and is None otherwise.  The objective terms are shared,
    read-only, by every program completed from the template.
    """

    __slots__ = (
        "image",
        "atoms",
        "support_offsets",
        "support_bodies",
        "positive_offsets",
        "positive_atoms",
        "ranks",
        "objectives",
        "objective_bases",
    )

    @classmethod
    def capture(cls, builder: "CompletionBuilder") -> "CompletionTemplate":
        """Freeze a builder that loaded a base (see :meth:`CompletionBuilder.build_template`)."""
        program = builder.ground_program
        count = len(program.atoms)
        supports = builder.supports
        per_atom = [supports.get(atom_id, ()) for atom_id in range(count + 1)]
        flat = list(chain.from_iterable(per_atom))
        template = cls()
        template.image = builder.solver.image()
        template.atoms = count
        template.support_offsets = array("i", chain((0, 0), accumulate(map(len, per_atom[1:]))))
        template.support_bodies = array("i", [support.body_literal for support in flat])
        template.positive_offsets = array(
            "i", chain((0,), accumulate(len(support.positive_atoms) for support in flat))
        )
        template.positive_atoms = array(
            "i", chain.from_iterable(support.positive_atoms for support in flat)
        )
        facts = program.facts
        template.ranks = _post_order_ranks(
            count, lambda atom_id: () if atom_id in facts else template.positives(atom_id)
        )
        completed = builder.completed
        template.objectives = {
            priority: tuple(terms) for priority, terms in completed.objectives.items()
        }
        template.objective_bases = dict(completed.objective_bases)
        return template

    def positives(self, atom_id: int) -> array:
        """The positive body atoms of every support of a base atom."""
        offsets = self.positive_offsets
        return self.positive_atoms[
            offsets[self.support_offsets[atom_id]] : offsets[self.support_offsets[atom_id + 1]]
        ]

    def supports(self) -> Dict[int, List[Support]]:
        """The base's supports, decoded into a fresh dict."""
        bodies = self.support_bodies
        offsets = self.positive_offsets
        positives = self.positive_atoms
        decoded: Dict[int, List[Support]] = {}
        for atom_id in range(1, self.atoms + 1):
            first, last = self.support_offsets[atom_id], self.support_offsets[atom_id + 1]
            if first < last:
                decoded[atom_id] = [
                    Support(bodies[k], tuple(positives[offsets[k] : offsets[k + 1]]))
                    for k in range(first, last)
                ]
        return decoded

    def nbytes(self) -> int:
        """Bytes held: the arrays plus the objective terms' own objects."""
        arrays = (
            self.support_offsets,
            self.support_bodies,
            self.positive_offsets,
            self.positive_atoms,
        ) + ((self.ranks,) if self.ranks is not None else ())
        groups = self.objectives.values()
        return (
            self.image.nbytes()
            + sum(len(part) * part.itemsize for part in arrays)
            + sum(sys.getsizeof(group) + len(group) * sys.getsizeof(group[0]) for group in groups)
        )


class BaseCompletion:
    """The completion side of one grounded base: its template and what
    solves on the base counted.

    The template is either handed in, read with the base from its ground
    snapshot (:mod:`repro.asp.snapshot`), or built by the
    first caller that asks for it: the first solve on the base, or the
    snapshot writer that persists it.  Solves on several threads share one
    instance: the first caller builds the template under a lock, later ones
    wait for it and read it.  ``template_builds`` counts the builds in this
    process only.
    """

    def __init__(
        self, base_program: GroundProgram, template: Optional[CompletionTemplate] = None
    ):
        self.base_program = base_program
        self._lock = threading.Lock()
        self._template = template
        self.template_builds = 0
        self.skipped_checks = 0

    def template(self) -> CompletionTemplate:
        """The base's template, built now unless it already exists (with
        the cyclic collector paused until the builder's solver is freed)."""
        template = self._template
        if template is None:
            with self._lock:
                template = self._template
                if template is None:
                    with collector_paused():
                        template = CompletionBuilder(self.base_program).build_template()
                    self._template = template
                    self.template_builds += 1
        return template

    def template_for(self, ground_program: GroundProgram) -> Optional[CompletionTemplate]:
        """The template, if it can serve ``ground_program`` (a fork of the
        base plus a delta), else None."""
        base = self.base_program
        # the grounder upgrades a choice instance by replacing it in place
        if not all(map(is_, base.choices, ground_program.choices)):
            return None
        template = self.template()
        added = ground_program.minimize_literals[len(base.minimize_literals) :]
        if added:
            keys = {literal.key for literal in base.minimize_literals}
            if any(literal.key in keys for literal in added):
                return None
        return template

    def count_skipped(self, checks: int) -> None:
        with self._lock:
            self.skipped_checks += checks

    def statistics(self) -> Dict[str, int]:
        template = self._template
        return {
            "template_builds": self.template_builds,
            "template_bytes": template.nbytes() if template is not None else 0,
            "stability_checks_skipped": self.skipped_checks,
        }


class CompletionBuilder:
    """Builds a :class:`CompletedProgram` from a :class:`GroundProgram`.

    Every atom gets a solver variable up front (``_var_of[a]``), so literals
    are looked up in one list.  Clauses are buffered in emission order and
    handed to :meth:`CDCLSolver.add_clauses` in bulk: before each linear
    constraint and at the end.  The solver sees the same clauses in the same
    order as with one ``add_clause`` call each, so its state is the same.

    :meth:`build` completes a whole program; :meth:`build_template` loads a
    base without its support closures, and :meth:`build_on` completes a
    base + delta program from that template.
    """

    def __init__(
        self,
        ground_program: GroundProgram,
        solver: Optional[CDCLSolver] = None,
        retractable: Optional[Dict[int, int]] = None,
    ):
        self.ground_program = ground_program
        self.solver = solver or CDCLSolver()
        self.completed = CompletedProgram(self.solver, ground_program)
        #: the supports this builder added, by atom
        self.supports: Dict[int, List[Support]] = {}
        self._body_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        # fact atom id -> suspect-group index; these facts are guarded by a
        # per-group selector instead of being asserted unconditionally
        self._retractable: Dict[int, int] = dict(retractable or {})
        self._var_of: List[int] = [0]
        self._template: Optional[CompletionTemplate] = None
        self._clauses: List[Sequence[int]] = []

    # -- the three builds ---------------------------------------------------------

    def build(self) -> CompletedProgram:
        """Complete the whole program."""
        program = self.ground_program
        self._create_true_constant()
        self._intern_atoms(len(program.atoms))
        self._add_retractable_support()
        self._load(program.facts, program.rules, program.choices, program.constraints)
        self._add_completion_clauses()
        self._add_objectives(program.minimize_literals)
        self._flush()
        facts = self.completed.fact_atoms
        supports = self.supports
        self.completed.tight = (
            _post_order_ranks(
                len(program.atoms),
                lambda atom_id: ()
                if atom_id in facts
                else [a for s in supports.get(atom_id, ()) for a in s.positive_atoms],
            )
            is not None
        )
        return self._finish()

    def build_template(self) -> CompletionTemplate:
        """Load the program as a base, without its support closures."""
        program = self.ground_program
        self._create_true_constant()
        self._intern_atoms(len(program.atoms))
        self._load(program.facts, program.rules, program.choices, program.constraints)
        self._add_objectives(program.minimize_literals)
        self._flush()
        return CompletionTemplate.capture(self)

    def build_on(self, template: CompletionTemplate, base: GroundProgram) -> CompletedProgram:
        """Complete this program, a fork of ``base`` plus a delta, from the
        base's template: load it, then add the delta and every closure."""
        program = self.ground_program
        completed = self.completed
        self.solver.load_image(template.image)
        self._template = template
        completed.template = template
        completed.true_literal = 1
        self._var_of = list(range(1, template.atoms + 2))
        self._var_of[0] = 0
        completed.objectives = {
            priority: list(terms) for priority, terms in template.objectives.items()
        }
        completed.objective_bases = dict(template.objective_bases)
        completed.fact_atoms = set(base.facts)

        self._intern_atoms(len(program.atoms) - template.atoms)
        self._load(
            program.facts - base.facts,
            program.rules[len(base.rules) :],
            program.choices[len(base.choices) :],
            program.constraints[len(base.constraints) :],
        )
        self._add_completion_clauses()
        self._add_objectives(program.minimize_literals[len(base.minimize_literals) :])
        self._flush()
        completed.tight = template.ranks is not None and not _closes_loop(
            template, self.supports, program.facts
        )
        return self._finish()

    def _finish(self) -> CompletedProgram:
        completed = self.completed
        completed._added_supports = self.supports
        var_of = self._var_of
        completed.atom_to_var = dict(zip(range(1, len(var_of)), islice(var_of, 1, None)))
        return completed

    # -- low-level helpers --------------------------------------------------

    def _flush(self):
        """Hand the buffered clauses to the solver."""
        self.solver.add_clauses(self._clauses)
        self._clauses = []

    def _body_literal(self, pos: Sequence[int], neg: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of the body."""
        var_of = self._var_of
        if not neg:
            if len(pos) == 1:
                return var_of[pos[0]]
            if not pos:
                return self.completed.true_literal
        elif not pos and len(neg) == 1:
            return -var_of[neg[0]]
        key = (tuple(sorted(pos)), tuple(sorted(neg)))
        cached = self._body_cache.get(key)
        if cached is not None:
            return cached
        literals = [var_of[a] for a in pos]
        literals += [-var_of[a] for a in neg]
        aux = self.solver.new_var()
        clauses = self._clauses
        for literal in literals:
            clauses.append([-aux, literal])
        clauses.append([aux] + [-literal for literal in literals])
        self._body_cache[key] = aux
        return aux

    # -- build steps ------------------------------------------------------------

    def _create_true_constant(self):
        true_var = self.solver.new_var()
        self._clauses.append([true_var])
        self.completed.true_literal = true_var

    def _intern_atoms(self, count: int):
        first = self.solver.new_vars(count)
        self._var_of.extend(range(first, first + count))

    def _load(self, facts: Iterable[int], rules, choices, constraints):
        self._add_facts(facts)
        self._add_normal_rules(rules)
        self._add_choice_rules(choices)
        self._add_constraints(constraints)

    def _add_facts(self, facts: Iterable[int]):
        var_of = self._var_of
        fact_atoms = self.completed.fact_atoms
        for atom_id in facts:
            if atom_id in self._retractable:
                continue  # guarded by a selector, not asserted unconditionally
            fact_atoms.add(atom_id)
            self._clauses.append([var_of[atom_id]])

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
            self._clauses.append([-selector, self._var_of[atom_id]])
            self.supports.setdefault(atom_id, []).append(Support(selector, ()))

    def _add_normal_rules(self, rules):
        var_of = self._var_of
        clauses = self._clauses
        supports = self.supports
        body_literal_of = self._body_literal
        for rule in rules:
            body_literal = body_literal_of(rule.pos, rule.neg)
            clauses.append([-body_literal, var_of[rule.head]])
            supports.setdefault(rule.head, []).append(Support(body_literal, tuple(rule.pos)))

    def _add_choice_rules(self, choices):
        var_of = self._var_of
        for choice in choices:
            body_literal = self._body_literal(choice.pos, choice.neg)
            candidates: List[int] = []
            seen: Set[int] = set()
            for atom_id in choice.atoms:
                if atom_id in seen:
                    continue
                seen.add(atom_id)
                candidates.append(atom_id)
                self.supports.setdefault(atom_id, []).append(
                    Support(body_literal, tuple(choice.pos))
                )
            candidate_vars = [var_of[a] for a in candidates]
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

    def _add_constraints(self, constraints):
        var_of = self._var_of
        clauses = self._clauses
        for constraint in constraints:
            clause = [-var_of[a] for a in constraint.pos]
            clause += [var_of[a] for a in constraint.neg]
            clauses.append(clause)

    def _add_completion_clauses(self):
        """Every non-fact atom's support closure: the atom implies one of
        its supporting bodies (its negation when it has none).  A base atom
        the template already holds false needs none."""
        var_of = self._var_of
        clauses = self._clauses
        fact_atoms = self.completed.fact_atoms
        supports = self.supports
        first = 1
        template = self._template
        if template is not None:
            values = self.solver.values
            offsets = template.support_offsets
            bodies = template.support_bodies
            for atom_id in range(1, template.atoms + 1):
                if atom_id in fact_atoms:
                    continue
                var = var_of[atom_id]
                if values[var << 1] == 0:
                    continue
                closure = [-var]
                closure += bodies[offsets[atom_id] : offsets[atom_id + 1]]
                added = supports.get(atom_id)
                if added:
                    closure += [s.body_literal for s in added]
                clauses.append(closure)
            first = template.atoms + 1
        for atom_id in range(first, len(var_of)):
            if atom_id in fact_atoms:
                continue
            atom_supports = supports.get(atom_id)
            if not atom_supports:
                clauses.append([-var_of[atom_id]])
                continue
            clauses.append([-var_of[atom_id]] + [s.body_literal for s in atom_supports])

    def _add_objectives(self, minimize_literals):
        grouped: Dict[Tuple, List] = {}
        for literal in minimize_literals:
            grouped.setdefault(literal.key, []).append(literal)

        for elements in grouped.values():
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
                ObjectiveTerm(weight=weight, variable=objective_var)
            )


def _post_order_ranks(
    count: int, successors: Callable[[int], Sequence[int]]
) -> Optional[array]:
    """Post-order ranks (from 1) of atoms ``1..count`` in the graph given by
    ``successors``, so every edge goes to a lower rank; None if it has a cycle."""
    rank = array("i", [0]) * (count + 1)  # 0 unvisited, -1 on the stack
    counter = 0
    for start in range(1, count + 1):
        if rank[start]:
            continue
        rank[start] = -1
        stack = [(start, iter(successors(start)))]
        while stack:
            atom_id, pending = stack[-1]
            for child in pending:
                state = rank[child]
                if state == 0:
                    rank[child] = -1
                    stack.append((child, iter(successors(child))))
                    break
                if state < 0:
                    return None
            else:
                stack.pop()
                counter += 1
                rank[atom_id] = counter
    return rank


def _closes_loop(
    template: CompletionTemplate, added: Dict[int, List[Support]], facts: Set[int]
) -> bool:
    """Whether the supports a delta added close a positive loop over a
    tight base.

    Such a loop passes through a delta edge ``h -> p`` and back from ``p``
    to ``h``.  Base edges go to lower ranks, so a search from the delta's
    heads never needs a base atom ranked below every base head (with no base
    head, it never needs a base atom at all).
    """
    edges = {
        head: [atom for support in supports for atom in support.positive_atoms]
        for head, supports in added.items()
        if head not in facts
    }
    edges = {head: targets for head, targets in edges.items() if targets}
    if not edges:
        return False
    base_atoms = template.atoms
    ranks = template.ranks
    floor = min((ranks[head] for head in edges if head <= base_atoms), default=None)

    def successors(atom_id: int) -> List[int]:
        children = list(edges.get(atom_id, ()))
        if atom_id <= base_atoms and atom_id not in facts:
            children.extend(template.positives(atom_id))
        return [
            child
            for child in children
            if child > base_atoms or (floor is not None and ranks[child] >= floor)
        ]

    state: Dict[int, int] = {}  # 1 on the stack, 2 done
    for head in edges:
        if head in state:
            continue
        state[head] = 1
        stack = [(head, iter(successors(head)))]
        while stack:
            atom_id, pending = stack[-1]
            for child in pending:
                seen = state.get(child)
                if seen is None:
                    state[child] = 1
                    stack.append((child, iter(successors(child))))
                    break
                if seen == 1:
                    return True
            else:
                state[atom_id] = 2
                stack.pop()
    return False


def complete(
    ground_program: GroundProgram,
    solver: Optional[CDCLSolver] = None,
    retractable: Optional[Dict[int, int]] = None,
    base: Optional[BaseCompletion] = None,
) -> CompletedProgram:
    """Complete ``ground_program``, from ``base``'s template when it is a
    fork of that base the template can serve, else whole."""
    builder = CompletionBuilder(ground_program, solver, retractable=retractable)
    if base is not None and not retractable:
        template = base.template_for(ground_program)
        if template is not None:
            return builder.build_on(template, base.base_program)
    return builder.build()
