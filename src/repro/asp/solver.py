"""A flat-array CDCL (conflict-driven clause learning) solver with linear
constraints.

This is the propositional engine underneath the ASP system, playing the role
of *clasp* in the paper.  Features:

* two-watched-literal clause propagation,
* slack-counter propagation for linear (cardinality / pseudo-Boolean)
  constraints with non-negative coefficients,
* 1UIP conflict analysis with clause learning,
* VSIDS-style activity heuristic (or a fixed variable order), phase saving,
* Luby or geometric restarts,
* incremental solving: clauses and constraints may be added between calls to
  :meth:`CDCLSolver.solve`, and assumptions are supported (used by the
  optimization driver to guard tentative objective bounds).

Literals cross the interface in DIMACS convention: ``+v`` is variable ``v``
true, ``-v`` is variable ``v`` false, and variables are numbered from 1.
Inside, the kernel follows MiniSat's flat layout (Eén & Sörensson, "An
Extensible SAT-solver", SAT 2003):

* **Literal codes.**  ``+v`` is coded ``2v`` and ``-v`` is ``2v + 1``, so a
  code's negation is ``code ^ 1`` and its variable is ``code >> 1``.  One
  list indexed by code holds every literal's value (``1`` true, ``0`` false,
  ``-1`` unassigned; both codes of a variable always agree).  Clauses and
  reasons are plain sequences of codes: binary clauses are tuples, longer
  ones lists.
* **Watches.**  ``watches[code]`` holds the clauses whose first two codes
  include ``code`` and is visited when ``code`` becomes false.  A visit
  skips the clause if its other watched code is true; otherwise it moves
  the false code to position 1 and the watch to any non-false code at
  position 2 or later (swap-removing the clause from this list), or finds
  the clause unit or conflicting.  One loop in :meth:`propagate` does all
  of this inline, for every clause of every dequeued literal.  The order
  of a binary clause's codes, and of a longer clause's first two, is only
  read right after the visit that made the clause a reason or a conflict,
  so neither tuples nor skipped visits need it kept.
* **Slack counters.**  A linear constraint keeps ``slack = sum of the
  coefficients of its non-false literals - bound``.  Assigning a literal
  subtracts the coefficient of every term its negation falsifies (through
  ``linear_occurs``), and backtracking adds it back, so the counter is exact
  at every moment.  Propagation scans a constraint's terms only when its
  slack falls below its largest coefficient: only then can a term be forced
  (coefficient above slack) or the constraint be violated (slack below 0).
* **Decision order.**  Unbumped variables all have activity 0 and are
  ordered by index, so a cursor walks them; only bumped variables enter the
  ``(-activity, var)`` heap, on backtrack.  The pick is the unassigned
  variable of highest activity, ties to the lowest index.
* **Backtracking to level 0**, which every optimization step does, copies a
  snapshot of the level-0 values and slack counters back instead of
  undoing trail entries one by one (see :meth:`backtrack`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asp.errors import SolveError

_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1

#: activities are rescaled by 1e-100 once one exceeds this
_RESCALE_LIMIT = 1e100


def _code(lit: int) -> int:
    """The code of a DIMACS literal."""
    return (lit << 1) if lit > 0 else ((-lit << 1) | 1)


def _literal(code: int) -> int:
    """The DIMACS literal of a code."""
    return -(code >> 1) if code & 1 else code >> 1


class LinearConstraint:
    """A constraint ``sum(coeff_i * [lit_i is true]) >= bound`` over codes.

    ``slack`` is kept equal to the summed coefficients of the terms that are
    not false, minus ``bound``; the constraint is violated when it drops
    below 0 and forces every unassigned term whose coefficient exceeds it.
    """

    __slots__ = ("lits", "coeffs", "bound", "slack", "max_coeff")

    def __init__(self, lits: List[int], coeffs: List[int], bound: int):
        self.lits = lits
        self.coeffs = coeffs
        self.bound = bound
        self.slack = sum(coeffs) - bound
        self.max_coeff = max(coeffs)

    def __repr__(self):
        terms = " + ".join(f"{c}*({_literal(l)})" for c, l in zip(self.coeffs, self.lits))
        return f"LinearConstraint({terms} >= {self.bound})"


class SolverStatistics:
    """Counters exposed through :meth:`CDCLSolver.statistics`."""

    def __init__(self):
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.max_decision_level = 0
        self.solve_calls = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "max_decision_level": self.max_decision_level,
            "solve_calls": self.solve_calls,
        }


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while True:
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1


class CDCLSolver:
    """Conflict-driven clause-learning solver with an incremental interface."""

    def __init__(
        self,
        heuristic: str = "vsids",
        default_phase: bool = False,
        restart_strategy: str = "luby",
        restart_base: int = 100,
        var_decay: float = 0.95,
    ):
        self.heuristic = heuristic
        self.default_phase = default_phase
        self.restart_strategy = restart_strategy
        self.restart_base = restart_base
        self.var_decay = var_decay

        self.num_vars = 0
        # per code (codes 0 and 1 belong to the unused variable 0)
        self.values: List[int] = [_UNASSIGNED, _UNASSIGNED]
        self.watches: List[List[Sequence[int]]] = [[], []]
        #: ``(constraint, coeff)`` for every linear term over the code; the
        #: shared empty tuple until the code's first term
        self.linear_occurs: List[Sequence[Tuple[LinearConstraint, int]]] = [(), ()]
        #: 1 for the code that was true when its variable was last
        #: unassigned, 0 for its negation (initially the default phase)
        self._phase_pair = (_TRUE, _FALSE) if default_phase else (_FALSE, _TRUE)
        self.phase: List[int] = list(self._phase_pair)
        # per variable
        self.levels: List[int] = [0]
        self.reasons: List[Optional[Sequence[int]]] = [None]
        self.activity: List[float] = [0.0]

        #: problem clauses of two or more codes
        self.clauses: List[Sequence[int]] = []
        self.linears: List[LinearConstraint] = []

        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0

        self.var_inc = 1.0
        self.ok = True  # False once the clause set is unsatisfiable at level 0
        self.stats = SolverStatistics()
        self._model: Optional[List[int]] = None
        # assumptions involved in the last UNSAT answer (minisat analyzeFinal);
        # empty when the formula is unsatisfiable regardless of assumptions
        self.failed_assumptions: List[int] = []

        self._vsids = heuristic != "fixed"
        # (-activity, var) of bumped variables; stale entries are skipped
        self._order_heap: List[Tuple[float, int]] = []
        self._bumped: List[int] = []
        # every unassigned variable of activity 0 is at or above the cursor
        self._cursor = 1
        # the level-0 state as of the last solve() call, which backtrack(0)
        # copies back while the level-0 trail still has this length
        self._root_trail = -1
        self._root_values: List[int] = []
        self._root_slacks: List[int] = []
        self._root_cursor = 1
        # the phases already hold the current assignment (it is a model)
        self._phase_saved = False

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self.values += (_UNASSIGNED, _UNASSIGNED)
        self.phase += self._phase_pair
        self.watches += ([], [])
        self.linear_occurs += ((), ())
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        return self.num_vars

    def new_vars(self, count: int) -> int:
        """Add ``count`` variables; returns the first one's number."""
        first = self.num_vars + 1
        self.num_vars += count
        self.values += [_UNASSIGNED] * (2 * count)
        self.phase += self._phase_pair * count
        self.watches += [[] for _ in range(2 * count)]
        self.linear_occurs += [()] * (2 * count)
        self.levels += [0] * count
        self.reasons += [None] * count
        self.activity += [0.0] * count
        return first

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause.  Returns False if the solver became UNSAT at level 0."""
        return self.add_clauses((list(lits),))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add clauses in order, exactly as one :meth:`add_clause` call each.

        Each clause is simplified against the level-0 assignment (duplicate
        and false literals dropped, satisfied clauses and tautologies
        skipped) and a unit is propagated before the next clause is read.
        Returns False if the solver became UNSAT at level 0.
        """
        if not self.ok:
            return False
        if self.trail_lim:
            self.backtrack(0)
        values = self.values
        watches = self.watches
        store = self.clauses.append
        for lits in clauses:
            if len(lits) == 2:  # the common case: two distinct unassigned variables
                first, second = lits
                if first != second and first != -second:
                    first = (first << 1) if first > 0 else ((-first << 1) | 1)
                    second = (second << 1) if second > 0 else ((-second << 1) | 1)
                    if values[first] == values[second] == _UNASSIGNED:
                        clause = (first, second)
                        store(clause)
                        watches[first].append(clause)
                        watches[second].append(clause)
                        continue
            codes: List[int] = []
            for lit in lits:
                code = (lit << 1) if lit > 0 else ((-lit << 1) | 1)
                value = values[code]
                if value == _TRUE or code ^ 1 in codes:
                    break  # satisfied at level 0, or a tautology
                if value == _FALSE or code in codes:
                    continue
                codes.append(code)
            else:
                if len(codes) > 1:
                    clause = codes if len(codes) > 2 else (codes[0], codes[1])
                    store(clause)
                    watches[codes[0]].append(clause)
                    watches[codes[1]].append(clause)
                elif not codes or not self._enqueue(codes[0], None) or (
                    self.propagate() is not None
                ):
                    self.ok = False
                    return False
        return True

    def add_linear_geq(self, lits: Sequence[int], coeffs: Sequence[int], bound: int) -> bool:
        """Add ``sum(coeff_i * lit_i) >= bound`` (coefficients must be >= 0)."""
        if not self.ok:
            return False
        if self.trail_lim:
            self.backtrack(0)

        values = self.values
        codes: List[int] = []
        kept: List[int] = []
        for lit, coeff in zip(lits, coeffs):
            if coeff < 0:
                raise SolveError("linear constraints require non-negative coefficients")
            if coeff == 0:
                continue
            code = _code(lit)
            value = values[code]
            if value == _TRUE:
                bound -= coeff
                continue
            if value == _FALSE:
                continue
            codes.append(code)
            kept.append(coeff)

        if bound <= 0:
            return True  # trivially satisfied
        if sum(kept) < bound:
            self.ok = False
            return False

        constraint = LinearConstraint(codes, kept, bound)
        self.linears.append(constraint)
        occurs = self.linear_occurs
        for code, coeff in zip(codes, kept):
            if occurs[code]:
                occurs[code].append((constraint, coeff))
            else:
                occurs[code] = [(constraint, coeff)]

        # Propagate anything already forced at level 0.
        if self._linear_propagate(constraint) is not None or self.propagate() is not None:
            self.ok = False
            return False
        return True

    def add_at_most(self, lits: Sequence[int], k: int) -> bool:
        """Add ``at most k of lits are true`` as a linear constraint."""
        negated = [-lit for lit in lits]
        return self.add_linear_geq(negated, [1] * len(negated), len(negated) - k)

    def add_at_least(self, lits: Sequence[int], k: int) -> bool:
        """Add ``at least k of lits are true``."""
        return self.add_linear_geq(list(lits), [1] * len(lits), k)

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        if self._model is None:
            raise SolveError("no model available")
        return self._model[var << 1] == _TRUE

    def model(self) -> List[bool]:
        """The last model, indexed by variable (index 0 is unused)."""
        if self._model is None:
            raise SolveError("no model available")
        return list(map(_TRUE.__eq__, self._model[0::2]))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _enqueue(self, code: int, reason: Optional[Sequence[int]]) -> bool:
        """Make ``code`` true at the current level; False if it is false."""
        values = self.values
        value = values[code]
        if value != _UNASSIGNED:
            return value == _TRUE
        values[code] = _TRUE
        values[code ^ 1] = _FALSE
        var = code >> 1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(code)
        for constraint, coeff in self.linear_occurs[code ^ 1]:
            constraint.slack -= coeff
        return True

    def propagate(self) -> Optional[Sequence[int]]:
        """Propagate every enqueued assignment.

        Returns a conflicting clause (codes that are all false) or None.  Clause watches of a dequeued literal are visited
        before the linear constraints over it.
        """
        trail = self.trail
        values = self.values
        watches = self.watches
        occurs = self.linear_occurs
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        start = head = self.qhead
        conflict = None
        while head < len(trail):
            false_code = trail[head] ^ 1
            head += 1
            watchers = watches[false_code]
            index = 0
            end = len(watchers)
            while index < end:
                clause = watchers[index]
                first = clause[0]
                if first == false_code:
                    first = clause[1]
                first_value = values[first]
                if first_value == _TRUE:
                    index += 1
                    continue
                if len(clause) > 2:
                    clause[0] = first
                    clause[1] = false_code
                    moved = False
                    for position in range(2, len(clause)):
                        other = clause[position]
                        if values[other]:  # true or unassigned: watch it instead
                            clause[1] = other
                            clause[position] = false_code
                            end -= 1
                            watchers[index] = watchers[end]
                            watchers.pop()
                            watches[other].append(clause)
                            moved = True
                            break
                    if moved:
                        continue
                if first_value == _FALSE:
                    conflict = clause
                    break
                values[first] = _TRUE
                values[first ^ 1] = _FALSE
                var = first >> 1
                levels[var] = level
                reasons[var] = clause
                trail.append(first)
                for constraint, coeff in occurs[first ^ 1]:
                    constraint.slack -= coeff
                index += 1
            if conflict is not None:
                break
            for constraint, _ in occurs[false_code]:
                if constraint.slack < constraint.max_coeff:
                    conflict = self._linear_propagate(constraint)
                    if conflict is not None:
                        break
            if conflict is not None:
                break
        self.stats.propagations += head - start
        self.qhead = head
        return conflict

    def _linear_propagate(self, constraint: LinearConstraint) -> Optional[List[int]]:
        """Check/propagate one linear constraint.  Returns a conflict clause.

        The reason of a forced term, and the conflict clause, is the term
        plus every currently false term of the constraint.
        """
        values = self.values
        false_codes = [code for code in constraint.lits if values[code] == _FALSE]
        slack = constraint.slack
        if slack < 0:
            return false_codes
        for code, coeff in zip(constraint.lits, constraint.coeffs):
            if coeff > slack and values[code] == _UNASSIGNED:
                self._enqueue(code, [code] + false_codes)
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _rescale_activity(self):
        activity = self.activity
        for var in range(1, self.num_vars + 1):
            activity[var] *= 1e-100
        self.var_inc *= 1e-100
        values = self.values
        self._order_heap = [
            (-activity[var], var)
            for var in range(1, self.num_vars + 1)
            if activity[var] and values[var << 1] == _UNASSIGNED
        ]
        heapify(self._order_heap)

    def analyze(self, conflict: Sequence[int]) -> Tuple[List[int], int]:
        """1UIP conflict analysis.  Returns (learnt clause, backjump level).

        Precondition: at least one literal of ``conflict`` was assigned at the
        current decision level (the solve loop guarantees this by backtracking
        to the highest level present in the conflict before calling analyze).
        Every variable met is bumped; all of them are assigned, so they reach
        the order heap when backtracking unassigns them.
        """
        levels = self.levels
        reasons = self.reasons
        trail = self.trail
        activity = self.activity
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = set()
        counter = 0
        resolved = 0  # variable 0 appears in no clause
        clause = conflict
        index = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            for code in clause:
                var = code >> 1
                if var == resolved or var in seen:
                    continue
                level = levels[var]
                if level > 0:
                    seen.add(var)
                    if not activity[var]:
                        self._bumped.append(var)
                    activity[var] += self.var_inc
                    if activity[var] > _RESCALE_LIMIT:
                        self._rescale_activity()
                    if level >= current_level:
                        counter += 1
                    else:
                        learnt.append(code)

            # Select the next literal on the trail to resolve on.
            while trail[index] >> 1 not in seen:
                index -= 1
            code = trail[index]
            resolved = code >> 1
            seen.discard(resolved)
            index -= 1
            counter -= 1
            if counter <= 0:
                break
            clause = reasons[resolved]

        learnt[0] = code ^ 1

        # Compute backjump level: highest level among the other literals.
        if len(learnt) == 1:
            backjump = 0
        else:
            max_index = 1
            for position in range(2, len(learnt)):
                if levels[learnt[position] >> 1] > levels[learnt[max_index] >> 1]:
                    max_index = position
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backjump = levels[learnt[1] >> 1]
        return learnt, backjump

    # ------------------------------------------------------------------
    # Backtracking and decisions
    # ------------------------------------------------------------------

    def backtrack(self, level: int):
        """Unassign every level above ``level``: save phases, restore the
        slack counters, and return the variables to the decision order.

        Backtracking to level 0 while the level-0 trail is as long as when
        :meth:`solve` last started copies that root state back instead of
        undoing each trail entry: the values and slack counters from the
        snapshot (variables and constraints created since are unassigned
        and untouched at level 0), every bumped variable into the heap, and
        the root cursor.  Right after a model the phases already hold the
        assignment, so no trail entry is visited at all.
        """
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        trail = self.trail
        limit = trail_lim[level]
        values = self.values
        phase = self.phase
        if level == 0 and limit == self._root_trail:
            if not self._phase_saved:
                for code in trail[limit:]:
                    phase[code] = _TRUE
                    phase[code ^ 1] = _FALSE
            root = self._root_values
            values[: len(root)] = root
            values[len(root):] = [_UNASSIGNED] * (len(values) - len(root))
            linears = self.linears
            slacks = self._root_slacks
            for constraint, slack in zip(linears, slacks):
                constraint.slack = slack
            for constraint in linears[len(slacks):]:
                constraint.slack = sum(constraint.coeffs) - constraint.bound
            if self._vsids:
                heap = self._order_heap
                activity = self.activity
                for var in self._bumped:
                    if activity[var] and values[var << 1] == _UNASSIGNED:
                        heappush(heap, (-activity[var], var))
            self._cursor = self._root_cursor
        else:
            occurs = self.linear_occurs
            activity = self.activity
            heap = self._order_heap if self._vsids else None
            cursor = self._cursor
            for code in trail[limit:]:
                var = code >> 1
                values[code] = _UNASSIGNED
                values[code ^ 1] = _UNASSIGNED
                phase[code] = _TRUE
                phase[code ^ 1] = _FALSE
                for constraint, coeff in occurs[code ^ 1]:
                    constraint.slack += coeff
                if heap is not None and activity[var]:
                    heappush(heap, (-activity[var], var))
                elif var < cursor:
                    cursor = var
            self._cursor = cursor
        self._phase_saved = False
        del trail[limit:]
        del trail_lim[level:]
        self.qhead = limit

    def _pick_branch_var(self) -> Optional[int]:
        values = self.values
        if self._vsids:
            heap = self._order_heap
            while heap:
                var = heappop(heap)[1]
                if values[var << 1] == _UNASSIGNED:
                    return var
        # no bumped variable is unassigned: the lowest unassigned index
        try:
            var = values.index(_UNASSIGNED, self._cursor << 1) >> 1
        except ValueError:
            self._cursor = self.num_vars + 1
            return None
        self._cursor = var
        return var

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Search for a model.

        Returns True (SAT, model available via :meth:`model`) or False (UNSAT
        under the given assumptions; see :attr:`failed_assumptions`).
        """
        stats = self.stats
        stats.solve_calls += 1
        self._model = None
        self.failed_assumptions = []
        if not self.ok:
            return False
        self.backtrack(0)
        if self.propagate() is not None:
            self.ok = False
            return False

        assumptions = [_code(lit) for lit in assumptions]
        levels = self.levels
        values = self.values
        trail = self.trail
        trail_lim = self.trail_lim
        self._root_trail = len(trail)
        self._root_values = values[:]
        self._root_slacks = [constraint.slack for constraint in self.linears]
        self._root_cursor = self._cursor
        restarts = 0
        conflicts_until_restart = self._next_restart_limit(0)

        while True:
            conflict = self.propagate()
            if conflict is not None:
                stats.conflicts += 1

                conflict_level = 0
                for code in conflict:
                    level = levels[code >> 1]
                    if level > conflict_level:
                        conflict_level = level
                if conflict_level == 0:
                    self.ok = False
                    return False
                if conflict_level < len(trail_lim):
                    self.backtrack(conflict_level)

                learnt, backjump = self.analyze(conflict)
                self.backtrack(backjump)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return False
                else:
                    stats.learned_clauses += 1
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= self.var_decay

                if conflicts_until_restart is not None:
                    conflicts_until_restart -= 1
                    if conflicts_until_restart <= 0:
                        restarts += 1
                        stats.restarts += 1
                        conflicts_until_restart = self._next_restart_limit(restarts)
                        self.backtrack(0)
                continue

            depth = len(trail_lim)
            if depth > stats.max_decision_level:
                stats.max_decision_level = depth

            # Place assumptions first (one pseudo decision level each).
            if depth < len(assumptions):
                assumption = assumptions[depth]
                value = values[assumption]
                if value == _TRUE:
                    trail_lim.append(len(trail))
                    continue
                if value == _FALSE:
                    self.failed_assumptions = self._analyze_final(assumption)
                    self.backtrack(0)
                    return False
                stats.decisions += 1
                trail_lim.append(len(trail))
                self._enqueue(assumption, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                self._model = values[:]
                self.phase = values[:]
                self._phase_saved = True
                return True
            stats.decisions += 1
            trail_lim.append(len(trail))
            code = var << 1
            self._enqueue(code if self.phase[code] == _TRUE else code | 1, None)

    def _analyze_final(self, failed: int) -> List[int]:
        """The subset of the current assumptions that forced ``failed`` FALSE,
        as DIMACS literals.

        Called during assumption placement, when every assigned variable
        with a ``None`` reason above level 0 is itself an earlier assumption
        (no branch decisions have been made yet).  Walking the implication
        graph backwards from the failed assumption collects exactly the
        earlier assumptions it depends on — minisat's ``analyzeFinal`` —
        including an earlier assumption of its own negation.  A level-0
        falsification means the base formula alone refutes the assumption,
        so the core is the assumption by itself.
        """
        out = [_literal(failed)]
        var = failed >> 1
        levels = self.levels
        if levels[var] == 0:
            return out
        trail = self.trail
        reasons = self.reasons
        seen = {var}
        for position in range(len(trail) - 1, -1, -1):
            if not seen:
                break
            trail_var = trail[position] >> 1
            if trail_var not in seen:
                continue
            seen.discard(trail_var)
            reason = reasons[trail_var]
            if reason is None:
                out.append(_literal(trail[position]))
            else:
                for code in reason:
                    code_var = code >> 1
                    if code_var != trail_var and levels[code_var] > 0:
                        seen.add(code_var)
        return out

    def _next_restart_limit(self, restarts: int) -> Optional[int]:
        if self.restart_strategy == "none":
            return None
        if self.restart_strategy == "geometric":
            return int(self.restart_base * (1.5 ** restarts))
        return self.restart_base * _luby(restarts + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        stats = self.stats.as_dict()
        stats.update(
            {
                "variables": self.num_vars,
                "clauses": len(self.clauses),
                "linear_constraints": len(self.linears),
            }
        )
        return stats
