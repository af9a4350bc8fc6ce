"""Stable-model enforcement via lazy unfounded-set checking.

The CDCL solver works on the Clark completion of the program, whose models
("supported models") are a superset of the stable models whenever the program
has positive recursion (loops).  The paper's encoding *does* have loops — the
classic example being circular possible dependencies such as
``mpilander -> cmake -> qt -> valgrind -> mpi`` — so supported-but-unstable
models must be rejected.

We use the ASSAT-style lazy approach: whenever the solver reports a model, we
compute the least model of the program reduct.  Atoms that are true in the
solver model but not derivable are *unfounded*; for each we add a loop nogood
("the atom implies one of its external supporting bodies") and ask the solver
to continue.  This is sound, complete, and terminates because there are
finitely many loop nogoods.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.asp.completion import CompletedProgram


def well_founded_atoms(completed: CompletedProgram, model_atoms: Set[int]) -> Set[int]:
    """Least fixpoint of derivable atoms given the solver model.

    A rule (or choice) fires when its body literal is true in the model and
    all its positive body atoms have already been derived; derived heads are
    limited to atoms true in the model because the model satisfies every rule.
    """
    model = completed.solver.model()
    derived: Set[int] = set(completed.fact_atoms)

    # Index supports by the positive atoms they are still waiting on.
    waiting: Dict[int, List[int]] = {}
    entries = []
    queue: List[int] = []

    for atom_id in model_atoms:
        if atom_id in derived:
            continue
        for support in completed.supports.get(atom_id, []):
            if model[abs(support.body_literal)] != (support.body_literal > 0):
                continue  # the body is not satisfied in this model
            missing = {a for a in support.positive_atoms if a not in derived}
            entry = [atom_id, missing]
            entries.append(entry)
            if not missing:
                queue.append(len(entries) - 1)
            else:
                for atom in missing:
                    waiting.setdefault(atom, []).append(len(entries) - 1)

    # Seed: propagate facts through the waiting index.
    for fact in list(derived):
        for entry_index in waiting.get(fact, []):
            entries[entry_index][1].discard(fact)
            if not entries[entry_index][1]:
                queue.append(entry_index)

    while queue:
        entry_index = queue.pop()
        head, missing = entries[entry_index]
        if missing or head in derived:
            continue
        derived.add(head)
        for waiter in waiting.get(head, []):
            waiting_entry = entries[waiter]
            waiting_entry[1].discard(head)
            if not waiting_entry[1] and waiting_entry[0] not in derived:
                queue.append(waiter)

    return derived


def find_unfounded_set(completed: CompletedProgram, model_atoms: Set[int]) -> Set[int]:
    """Atoms true in the model that have no well-founded derivation."""
    derived = well_founded_atoms(completed, model_atoms)
    return {atom_id for atom_id in model_atoms if atom_id not in derived}


def add_loop_nogoods(completed: CompletedProgram, unfounded: Set[int]) -> int:
    """Add the unfounded-set nogoods for ``unfounded``.

    The *external bodies* of an unfounded set ``U`` are the bodies of rules
    whose head lies in ``U`` but whose positive body does not touch ``U``.
    The standard loop formula states that each atom of ``U`` may only be true
    if one of those external bodies is true; all of them are false in the
    current model, so every added clause eliminates it.  Returns the number of
    clauses added.
    """
    solver = completed.solver
    external: List[int] = []
    seen: Set[int] = set()
    for atom_id in unfounded:
        for support in completed.supports.get(atom_id, []):
            if any(positive in unfounded for positive in support.positive_atoms):
                continue
            if support.body_literal not in seen:
                seen.add(support.body_literal)
                external.append(support.body_literal)

    added = 0
    for atom_id in unfounded:
        atom_var = completed.atom_to_var[atom_id]
        solver.add_clause([-atom_var] + external)
        added += 1
    return added


class StableModelEnforcer:
    """Couples a :class:`CompletedProgram` with the lazy unfounded-set loop."""

    def __init__(self, completed: CompletedProgram, enabled: bool = True):
        self.completed = completed
        self.enabled = enabled
        self.checks = 0
        self.rejected_models = 0
        self.loop_nogoods = 0
        #: true atoms of the model the last successful :meth:`solve` found
        self.model_atoms: Set[int] = set()

    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """Solve until a *stable* model is found (or UNSAT)."""
        assumptions = list(assumptions)
        while True:
            satisfiable = self.completed.solver.solve(assumptions)
            if not satisfiable:
                return False
            model_atoms = self.completed.true_atoms()
            if self.enabled:
                self.checks += 1
                unfounded = find_unfounded_set(self.completed, model_atoms)
                if unfounded:
                    self.rejected_models += 1
                    self.loop_nogoods += add_loop_nogoods(self.completed, unfounded)
                    continue
            self.model_atoms = model_atoms
            return True

    def statistics(self) -> Dict[str, int]:
        return {
            "stability_checks": self.checks,
            "rejected_supported_models": self.rejected_models,
            "loop_nogoods": self.loop_nogoods,
        }
