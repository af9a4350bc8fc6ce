"""Minimal conflict cores for unsatisfiable concretizations.

When the solve phase reports UNSAT, this module answers *why*: which
source-level constraints — ``conflicts`` directives, ``depends_on``
conditions, or the requested input specs themselves — are jointly
unsatisfiable.  The answer is a **minimal unsatisfiable subset (MUS)** of
the retractable constraints: removing any single member yields SAT.

The mechanism mirrors assumption-based unsat cores in incremental SAT
solvers, with one twist forced by the grounder: certain facts are
*simplified out* of ground rule bodies, so the original ground program
cannot be relaxed after the fact.  The explainer therefore re-grounds the
problem once, feeding every suspect constraint's activating facts (recorded
as :class:`repro.spack.errors.ConstraintProvenance` by the encoder) as
*possible hints* rather than facts — they seed rule instantiation without
being asserted — and then:

1. completion guards each suspect group's atoms behind one fresh selector
   variable (``CompletionBuilder._add_retractable_support``), so assuming a
   selector true re-asserts that constraint and leaving it free retracts it;
2. solving under the assumption "all selectors true" reproduces the original
   UNSAT, and the solver's ``failed_assumptions`` (minisat's
   ``analyzeFinal``) give an initial, not-necessarily-minimal core;
3. deletion-based shrinking re-solves with one core member relaxed at a
   time: SAT proves the member necessary, UNSAT drops it — refined by the
   new failed-assumption set.  The solver instance is reused incrementally;
   learnt clauses and loop nogoods are implied by the selector-guarded
   formula, so they stay valid across assumption subsets.

Every SAT test goes through the
:class:`~repro.asp.unfounded.StableModelEnforcer` — a supported-but-unstable
model must not count as satisfiable evidence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.asp.completion import complete
from repro.asp.configs import SolverConfig
from repro.asp.control import parse_program_cached
from repro.asp.grounder import Grounder
from repro.asp.solver import CDCLSolver, collector_paused
from repro.asp.syntax import ground_atom
from repro.asp.unfounded import StableModelEnforcer
from repro.spack.concretize.logic import logic_program
from repro.spack.errors import ConstraintProvenance


def explain_unsat(
    facts: Sequence[Tuple],
    provenance: Sequence[ConstraintProvenance],
    config: Optional[SolverConfig] = None,
) -> List[ConstraintProvenance]:
    """Extract a minimal conflict core from an unsatisfiable problem.

    ``facts`` is the complete input fact list of the failing solve (base +
    delta layers for sessions, the one-shot encoding otherwise) and
    ``provenance`` the concatenated provenance of the encoders that produced
    it.  Returns the provenance entries of a MUS over the retractable
    constraint groups, ordered deterministically (by package, kind,
    directive, when) so every entry point — one-shot, session, service —
    produces an identical explanation for the same problem.
    Returns ``[]`` when the program is satisfiable with all constraints
    active (no diagnosis to give) or unsatisfiable even with every suspect
    constraint relaxed (the cause lies outside the retractable constraints).

    The cyclic collector stays paused until the explainer's grounding and
    solver are freed (:func:`~repro.asp.solver.collector_paused`).
    """
    with collector_paused():
        return _minimal_core(facts, provenance, config or SolverConfig.preset("tweety"))


def _minimal_core(
    facts: Sequence[Tuple],
    provenance: Sequence[ConstraintProvenance],
    config: SolverConfig,
) -> List[ConstraintProvenance]:
    suspect_atoms: Dict[Tuple, int] = {}
    groups: List[ConstraintProvenance] = []
    for entry in provenance:
        claimed = [
            tuple(fact) for fact in entry.facts if tuple(fact) not in suspect_atoms
        ]
        if not claimed:
            continue
        group_index = len(groups)
        for fact in claimed:
            suspect_atoms[fact] = group_index
        groups.append(entry)
    if not groups:
        return []

    # Re-ground with the suspect facts demoted to possibility hints: they
    # seed the same rule instances, but stay out of rule-body simplification
    # so completion can guard them behind selectors.
    kept = [ground_atom(*fact) for fact in facts if tuple(fact) not in suspect_atoms]
    hints = [ground_atom(*fact) for fact in suspect_atoms]
    grounder = Grounder(parse_program_cached(logic_program()), kept, possible_hints=hints)
    program = grounder.ground()

    retractable: Dict[int, int] = {}
    for fact, group_index in suspect_atoms.items():
        atom_id = program.atoms.lookup(ground_atom(*fact))
        if atom_id is not None:
            retractable[atom_id] = group_index
    if not retractable:
        return []

    solver = CDCLSolver(**config.solver_kwargs())
    completed = complete(program, solver, retractable=retractable)
    enforcer = StableModelEnforcer(completed, enabled=config.enforce_stability)
    selectors = completed.selectors  # group index -> selector variable
    selector_groups = {var: group for group, var in selectors.items()}

    def solve_with(active: Set[int]) -> bool:
        return bool(enforcer.solve([selectors[g] for g in sorted(active)]))

    def failed_groups() -> Set[int]:
        found: Set[int] = set()
        for literal in solver.failed_assumptions:
            group = selector_groups.get(abs(literal))
            if group is not None:
                found.add(group)
        return found

    if solve_with(set(selectors)):
        return []  # satisfiable with everything active: nothing to explain

    core = failed_groups()
    if not core:
        return []  # unsat even with every suspect relaxed

    # deletion-based minimization: the final core is a subset of every
    # tested set, so each SAT answer for `core - {member}` certifies that
    # member as necessary for the *final* core too (monotonicity)
    for member in sorted(core):
        if member not in core:
            continue
        trial = core - {member}
        if solve_with(trial):
            continue  # removing `member` frees the program: it is necessary
        refined = failed_groups()
        if not refined:
            return []  # became unsat independent of all suspects
        core = refined

    ordered = [groups[index] for index in sorted(core)]
    ordered.sort(key=lambda p: (p.package, p.kind, p.directive, p.when))
    return ordered
