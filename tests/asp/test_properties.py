"""Property-based tests for the ASP core (hypothesis).

The key invariants: for small random programs, the CDCL-based engine agrees
with a brute-force stable-model enumerator on satisfiability, any model it
returns *is* a stable model, and under ``#minimize`` its cost vector is the
lexicographic minimum over all stable models.  Both oracles also solve on a
second path: some of the program's facts ground into a shared base and the
rest arrive as delta facts of two forks, the second of which is completed
from the base's template.  The CDCL kernel on its own is checked against
truth tables, including weighted linear constraints added between solves and
the assumption cores it reports.
"""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.asp.control import PreparedProgram, solve_program
from repro.asp.solver import CDCLSolver
from repro.asp.syntax import compare_ground_values

ATOMS = ["a", "b", "c", "d"]


# ---------------------------------------------------------------------------
# Random normal logic programs, checked against brute force
# ---------------------------------------------------------------------------

rule_strategy = st.tuples(
    st.sampled_from(ATOMS),  # head
    st.lists(st.sampled_from(ATOMS), max_size=2, unique=True),  # positive body
    st.lists(st.sampled_from(ATOMS), max_size=2, unique=True),  # negative body
)

program_strategy = st.lists(rule_strategy, min_size=1, max_size=8)

#: atoms given as facts: True puts a fact in the delta of a prepared
#: program's forks, False in its grounded base
facts_strategy = st.dictionaries(st.sampled_from(ATOMS), st.booleans(), max_size=3)


def program_text(rules):
    lines = []
    for head, pos, neg in rules:
        body = [p for p in pos] + [f"not {n}" for n in neg]
        if body:
            lines.append(f"{head} :- {', '.join(body)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines)


def least_model(reduct):
    derived = set()
    changed = True
    while changed:
        changed = False
        for head, pos in reduct:
            if head not in derived and all(p in derived for p in pos):
                derived.add(head)
                changed = True
    return derived


def holds(pos, neg, model):
    return all(a in model for a in pos) and not any(a in model for a in neg)


def within_bounds(atoms, lower, upper, model):
    chosen = len(set(atoms) & model)
    return (lower or 0) <= chosen and (upper is None or chosen <= upper)


def fact_rules(facts):
    """The facts as bodiless rules, for brute force."""
    return [(atom, [], []) for atom in sorted(facts)]


def solve_both_paths(text, facts):
    """One-shot results, then two forks of one :class:`PreparedProgram`
    grounded over the base facts; the second fork starts from the base's
    completion template."""
    base = [(atom,) for atom, in_delta in sorted(facts.items()) if not in_delta]
    delta = [(atom,) for atom, in_delta in sorted(facts.items()) if in_delta]
    prepared = PreparedProgram(text, base)
    one_shot = solve_program(text, [(atom,) for atom in sorted(facts)])
    return [one_shot] + [prepared.fork(delta).solve() for _ in range(2)]


#: a base with the positive loop a <-> b; the delta fact d takes away a's
#: external support c, and "b :- not a, not b" forces a, so the supported
#: model {a, b, d} is the solver's first and no model is stable
LOOP_RULES = [
    ("a", ["b"], []),
    ("b", ["a"], []),
    ("a", ["c"], []),
    ("c", [], ["d"]),
    ("d", [], ["c"]),
    ("b", [], ["a", "b"]),
]


def brute_force_stable_models(rules, choices=(), constraints=()):
    """Enumerate stable models of a ground program by definition.

    ``rules`` are ``(head, pos, neg)``, ``choices`` are ``(atoms, pos, neg,
    lower, upper)`` and ``constraints`` are ``(pos, neg)``.  The reduct of a
    choice rule whose negative body the candidate does not block derives the
    candidate's chosen atoms from the positive body; its bounds then
    constrain the candidate wherever its body holds.
    """
    models = []
    for size in range(len(ATOMS) + 1):
        for candidate in combinations(ATOMS, size):
            model = set(candidate)
            reduct = [(head, pos) for head, pos, neg in rules if not set(neg) & model]
            for atoms, pos, neg, _, _ in choices:
                if not set(neg) & model:
                    reduct += [(atom, pos) for atom in atoms if atom in model]
            if least_model(reduct) != model:
                continue
            if any(
                holds(pos, neg, model) and not within_bounds(atoms, lower, upper, model)
                for atoms, pos, neg, lower, upper in choices
            ):
                continue
            if any(holds(pos, neg, model) for pos, neg in constraints):
                continue
            models.append(model)
    return models


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, facts_strategy)
@example(LOOP_RULES, {"d": True})
def test_solver_agrees_with_brute_force(rules, facts):
    text = program_text(rules)
    expected = brute_force_stable_models(rules + fact_rules(facts))
    for result in solve_both_paths(text, facts):
        assert result.satisfiable == bool(expected)
        if result.satisfiable:
            model_atoms = {atom[0] for atom in result.model.atoms()}
            assert model_atoms in expected


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.sampled_from(ATOMS))
def test_constraints_only_remove_models(rules, banned):
    """Adding an integrity constraint can never invent new stable models."""
    base = solve_program(program_text(rules))
    constrained = solve_program(program_text(rules) + f"\n:- {banned}.")
    if constrained.satisfiable:
        assert base.satisfiable
        model_atoms = {atom[0] for atom in constrained.model.atoms()}
        assert banned not in model_atoms


# ---------------------------------------------------------------------------
# Random CNF instances: CDCL agrees with exhaustive enumeration
# ---------------------------------------------------------------------------

clause_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
        unique_by=abs,
    ),
    min_size=1,
    max_size=10,
)


def brute_force_sat(num_vars, clauses):
    for bits in range(1 << num_vars):
        assignment = [(bits >> i) & 1 == 1 for i in range(num_vars)]
        if all(any(assignment[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


@settings(max_examples=80, deadline=None)
@given(clause_strategy)
def test_cdcl_agrees_with_truth_table(clauses):
    solver = CDCLSolver()
    for _ in range(4):
        solver.new_var()
    status = True
    for clause in clauses:
        status = solver.add_clause(list(clause)) and status
    result = solver.solve() if status else False
    assert bool(result) == brute_force_sat(4, clauses)
    if result:
        model = solver.model()
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


# ---------------------------------------------------------------------------
# Cardinality constraints against itertools ground truth
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_cardinality_window(num_vars, lower, upper):
    solver = CDCLSolver()
    variables = [solver.new_var() for _ in range(num_vars)]
    ok = solver.add_at_least(variables, lower)
    ok = solver.add_at_most(variables, upper) and ok
    satisfiable = bool(ok and solver.solve())
    expected = lower <= num_vars and lower <= upper
    assert satisfiable == expected
    if satisfiable:
        count = sum(solver.model_value(v) for v in variables)
        assert lower <= count <= upper


# ---------------------------------------------------------------------------
# The CDCL kernel, incrementally: clauses, weighted linear constraints and
# assumption solves interleaved, against truth tables
# ---------------------------------------------------------------------------

KERNEL_VARS = 6

kernel_literal = st.integers(min_value=1, max_value=KERNEL_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
kernel_step = st.one_of(
    st.builds(lambda lits: ("clause", lits), st.lists(kernel_literal, min_size=1, max_size=4)),
    st.builds(
        lambda terms, bound: ("linear", terms, bound),
        st.lists(
            st.tuples(kernel_literal, st.integers(min_value=0, max_value=4)),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=-1, max_value=9),
    ),
    st.builds(lambda lits: ("solve", lits), st.lists(kernel_literal, max_size=3)),
)


def satisfies(model, clauses, linears, units=()):
    """``model[v]`` is variable ``v``'s value."""

    def true(lit):
        return model[abs(lit)] == (lit > 0)

    return (
        all(any(true(lit) for lit in clause) for clause in clauses)
        and all(sum(c for lit, c in terms if true(lit)) >= bound for terms, bound in linears)
        and all(true(lit) for lit in units)
    )


def brute_force_models(clauses, linears, units=()):
    for bits in range(1 << KERNEL_VARS):
        model = [False] + [(bits >> i) & 1 == 1 for i in range(KERNEL_VARS)]
        if satisfies(model, clauses, linears, units):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(
    st.lists(kernel_step, min_size=1, max_size=12),
    st.sampled_from(["vsids", "fixed"]),
    st.sampled_from([1, 100]),
    st.lists(st.integers(min_value=1, max_value=KERNEL_VARS), unique=True),
)
def test_incremental_kernel_agrees_with_truth_tables(steps, heuristic, restart_base, preferred):
    """Every solve answers as brute force does on the constraints added so
    far.  A model satisfies all of them and the assumptions; an UNSAT answer
    under assumptions names a subset of them that is UNSAT on its own (none
    when the constraints alone are).  Restarting after every conflict
    exercises undoing the slack counters mid-search, and a drawn prefix of
    variables decided false first changes the search order, never the
    answer."""
    solver = CDCLSolver(heuristic=heuristic, restart_base=restart_base)
    for _ in range(KERNEL_VARS):
        solver.new_var()
    solver.prefer_false(preferred)
    clauses, linears = [], []
    for step in steps + [("solve", [])]:
        if step[0] == "clause":
            clauses.append(step[1])
            solver.add_clause(step[1])
        elif step[0] == "linear":
            terms, bound = step[1], step[2]
            linears.append((terms, bound))
            solver.add_linear_geq([lit for lit, _ in terms], [c for _, c in terms], bound)
        else:
            assumptions = step[1]
            result = solver.solve(assumptions)
            assert result == brute_force_models(clauses, linears, assumptions)
            if result:
                assert satisfies(solver.model(), clauses, linears, assumptions)
            else:
                failed = solver.failed_assumptions
                assert set(failed) <= set(assumptions)
                assert not brute_force_models(clauses, linears, failed)


# ---------------------------------------------------------------------------
# Lexicographic optimization against brute-force stable models
# ---------------------------------------------------------------------------

choice_strategy = st.tuples(
    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3, unique=True),  # atoms
    st.lists(st.sampled_from(ATOMS), max_size=1, unique=True),  # positive body
    st.lists(st.sampled_from(ATOMS), max_size=1, unique=True),  # negative body
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)),  # lower bound
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)),  # upper bound
)
constraint_strategy = st.tuples(
    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(ATOMS), max_size=1, unique=True),
)
# one list of (weight, positive condition, negative condition) per level
levels_strategy = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.lists(st.sampled_from(ATOMS), max_size=2, unique=True),
            st.lists(st.sampled_from(ATOMS), max_size=1, unique=True),
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=3,
)


def body_text(pos, neg):
    return ", ".join(list(pos) + [f"not {atom}" for atom in neg])


def optimization_text(rules, choices, constraints, levels):
    lines = [program_text(rules)] if rules else []
    for atoms, pos, neg, lower, upper in choices:
        head = "{ " + "; ".join(atoms) + " }"
        if lower is not None:
            head = f"{lower} {head}"
        if upper is not None:
            head = f"{head} {upper}"
        body = body_text(pos, neg)
        lines.append(f"{head} :- {body}." if body else f"{head}.")
    for pos, neg in constraints:
        lines.append(f":- {body_text(pos, neg)}.")
    element = 0
    for priority, elements in enumerate(levels, start=1):
        for weight, pos, neg in elements:
            condition = body_text(pos, neg)
            # a distinct term per element: no two elements share a tuple
            text = f"{weight}@{priority},e{element}"
            lines.append(f"#minimize {{ {text} : {condition} }}." if condition else f"#minimize {{ {text} }}.")
            element += 1
    return "\n".join(lines)


def cost_vector(model, levels):
    """Costs by descending priority (the lexicographic comparison order)."""
    return tuple(
        sum(weight for weight, pos, neg in elements if holds(pos, neg, model))
        for elements in reversed(levels)
    )


#: (rules, choices, constraints, levels, facts) of "c :- not b. { b }." with
#: b costing 1 and c costing 5 at one level: the solver decides the minimize
#: variable b false first, so its first model is {c} at cost 5, and
#: branch-and-bound has to go on to the optimum {b} at cost 1
FIRST_MODEL_NOT_OPTIMAL = (
    [("c", [], ["b"])],
    [(["b"], [], [], None, None)],
    [],
    [[(1, ["b"], []), (5, ["c"], [])], [(1, ["a"], [])]],
    {},
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(rule_strategy, max_size=4),
    st.lists(choice_strategy, min_size=1, max_size=3),
    st.lists(constraint_strategy, max_size=2),
    levels_strategy,
    facts_strategy,
)
@example(*FIRST_MODEL_NOT_OPTIMAL)
@example(
    # a <-> b is a positive loop whose external support is the choice of c;
    # the delta fact d forces a, and minimizing c at the top level first
    # finds the supported, unstable model {a, b, d}
    [("a", ["b"], []), ("b", ["a"], []), ("a", ["c"], [])],
    [(["c"], [], [], None, None)],
    [(["d"], ["a"])],
    [[(1, ["b"], [])], [(1, ["c"], [])]],
    {"d": True},
)
def test_optimum_is_the_lexicographic_minimum_over_stable_models(
    rules, choices, constraints, levels, facts
):
    """Every path returns a stable model whose cost vector is the
    lexicographic minimum over every stable model, level by level."""
    expected = brute_force_stable_models(rules + fact_rules(facts), choices, constraints)
    text = optimization_text(rules, choices, constraints, levels)
    for result in solve_both_paths(text, facts):
        assert result.satisfiable == bool(expected)
        if not result.satisfiable:
            continue
        model = {atom[0] for atom in result.model.atoms()}
        assert model in expected
        best = min(cost_vector(candidate, levels) for candidate in expected)
        assert cost_vector(model, levels) == best
        reported = tuple(result.costs.get(priority, 0) for priority in range(len(levels), 0, -1))
        assert reported == best


def test_branch_and_bound_improves_on_a_first_model_that_is_not_optimal():
    """Every path finds the non-optimal model first and improves on it, so
    the optimum it reports is its second model at least."""
    rules, choices, constraints, levels, facts = FIRST_MODEL_NOT_OPTIMAL
    text = optimization_text(rules, choices, constraints, levels)
    for result in solve_both_paths(text, facts):
        assert {atom[0] for atom in result.model.atoms()} == {"b"}
        assert result.costs == {1: 1}
        assert result.statistics["optimization"]["models_found"] >= 2


# ---------------------------------------------------------------------------
# Term ordering sanity
# ---------------------------------------------------------------------------

@given(st.integers(-50, 50), st.integers(-50, 50))
def test_integer_comparisons(a, b):
    assert compare_ground_values("<", a, b) == (a < b)
    assert compare_ground_values(">=", a, b) == (a >= b)
    assert compare_ground_values("!=", a, b) == (a != b)


@given(st.text(min_size=0, max_size=5), st.text(min_size=0, max_size=5))
def test_string_comparisons(a, b):
    assert compare_ground_values("<", a, b) == (a < b)
    assert compare_ground_values("=", a, b) == (a == b)


@given(st.integers(-50, 50), st.text(min_size=0, max_size=5))
def test_integers_sort_before_strings(number, text):
    assert compare_ground_values("<", number, text)
    assert not compare_ground_values("<", text, number)
