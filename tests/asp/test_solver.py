"""CDCL solver unit tests (clauses, linear constraints, assumptions)."""

import itertools

import pytest

from repro.asp import control
from repro.asp.optimization import Optimizer
from repro.asp.solver import CDCLSolver, _luby


def make_solver(n, **kwargs):
    solver = CDCLSolver(**kwargs)
    variables = [solver.new_var() for _ in range(n)]
    return solver, variables


class TestBasics:
    def test_empty_problem_is_sat(self):
        solver = CDCLSolver()
        assert solver.solve() is True

    def test_unit_clause(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.solve() is True
        assert solver.model_value(a) is True

    def test_contradictory_units(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.add_clause([-a]) is False
        assert solver.solve() is False

    def test_empty_clause_is_unsat(self):
        solver, _ = make_solver(1)
        assert solver.add_clause([]) is False

    def test_simple_implication_chain(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([a])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        assert solver.solve() is True
        assert solver.model_value(c) is True

    def test_three_sat_instance(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([a, b, c])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([-c, -a])
        assert solver.solve() is True
        model = solver.model()
        # verify the model satisfies every clause
        for clause in ([a, b, c], [-a, b], [-b, c], [-c, -a]):
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_pigeonhole_unsat(self):
        # 3 pigeons, 2 holes: variables p[i][j] = pigeon i in hole j
        solver = CDCLSolver()
        p = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            solver.add_clause([p[i][0], p[i][1]])
        for j in range(2):
            for i1, i2 in itertools.combinations(range(3), 2):
                solver.add_clause([-p[i1][j], -p[i2][j]])
        assert solver.solve() is False

    def test_tautology_is_ignored(self):
        solver, (a,) = make_solver(1)
        assert solver.add_clause([a, -a]) is True
        assert solver.solve() is True

    def test_duplicate_literals_are_deduplicated(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, a, b, b])
        assert solver.solve() is True


class TestIncremental:
    def test_clauses_added_between_solves(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        assert solver.solve() is True
        solver.add_clause([-a])
        assert solver.solve() is True
        assert solver.model_value(b) is True
        solver.add_clause([-b])
        assert solver.solve() is False

    def test_statistics_accumulate(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        solver.solve()
        solver.solve()
        assert solver.statistics()["solve_calls"] == 2


class TestAssumptions:
    def test_sat_under_assumption(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([-a, b])
        assert solver.solve([a]) is True
        assert solver.model_value(b) is True

    def test_unsat_under_assumption_but_sat_without(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([-a, b])
        solver.add_clause([-b])
        assert solver.solve([a]) is False
        assert solver.solve() is True
        assert solver.ok

    def test_conflicting_assumptions(self):
        solver, (a,) = make_solver(1)
        assert solver.solve([a, -a]) is False
        assert solver.solve() is True

    def test_many_assumptions(self):
        solver, variables = make_solver(20)
        for v1, v2 in zip(variables, variables[1:]):
            solver.add_clause([-v1, v2])
        assert solver.solve([variables[0]]) is True
        assert all(solver.model_value(v) for v in variables)


class TestLinearConstraints:
    def test_at_least_k(self):
        solver, variables = make_solver(4)
        solver.add_at_least(variables, 3)
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) >= 3

    def test_at_most_k(self):
        solver, variables = make_solver(4)
        solver.add_at_most(variables, 1)
        solver.add_clause([variables[0]])
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) <= 1

    def test_exactly_one(self):
        solver, variables = make_solver(5)
        solver.add_at_least(variables, 1)
        solver.add_at_most(variables, 1)
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) == 1

    def test_infeasible_bound(self):
        solver, variables = make_solver(3)
        assert solver.add_at_least(variables, 4) is False

    def test_weighted_constraint(self):
        solver, (a, b, c) = make_solver(3)
        # 3a + 2b + 1c >= 3 and not a  =>  b and c must both be true
        solver.add_linear_geq([a, b, c], [3, 2, 1], 3)
        solver.add_clause([-a])
        assert solver.solve() is True
        assert solver.model_value(b) and solver.model_value(c)

    def test_weighted_constraint_infeasible_after_assignment(self):
        solver, (a, b, c) = make_solver(3)
        # 3a + 2b + 1c >= 4 and not a leaves at most 3: unsatisfiable
        solver.add_linear_geq([a, b, c], [3, 2, 1], 4)
        solver.add_clause([-a])
        assert solver.solve() is False

    def test_linear_conflict_is_learned(self):
        solver, variables = make_solver(6)
        solver.add_at_least(variables[:3], 2)
        solver.add_at_most(variables, 3)
        solver.add_clause([variables[3], variables[4], variables[5]])
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) <= 3
        assert sum(solver.model_value(v) for v in variables[:3]) >= 2
        assert any(solver.model_value(v) for v in variables[3:])

    def test_negative_coefficient_rejected(self):
        solver, (a,) = make_solver(1)
        with pytest.raises(Exception):
            solver.add_linear_geq([a], [-1], 0)


class TestHeuristicsAndRestarts:
    @pytest.mark.parametrize("heuristic", ["vsids", "fixed"])
    @pytest.mark.parametrize("restart", ["luby", "geometric", "none"])
    def test_all_configurations_agree(self, heuristic, restart):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        solver = CDCLSolver(heuristic=heuristic, restart_strategy=restart)
        for _ in range(3):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(list(clause))
        assert solver.solve() is True

    def test_default_phase_true(self):
        solver = CDCLSolver(default_phase=True)
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve() is True


class TestLuby:
    def test_luby_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestCounterContract:
    """The benchmark's traced runs (``perfbench/tracing.py``) read these
    solver attributes after ``repro.asp.control.complete`` and
    ``Optimizer.optimize``; a kernel that stopped counting would silently
    zero the ``complete.*`` and ``search.*`` rows of the per-layer table."""

    PIGEONS = """
    pigeon(1). pigeon(2). pigeon(3). pigeon(4).
    hole(1). hole(2). hole(3). hole(4).
    1 { in(P, H) : hole(H) } 1 :- pigeon(P).
    :- in(P1, H), in(P2, H), P1 < P2.
    #minimize { H@1,P : in(P, H) }.
    """

    def test_completion_and_search_counters_count(self):
        ctl = control.Control()
        ctl.load(self.PIGEONS)
        completed = control.complete(ctl.ground())
        solver = completed.solver
        assert solver.num_vars > 0
        assert len(solver.clauses) > 0

        outcome = Optimizer(completed).optimize()
        assert outcome.costs == {1: 10}
        stats = solver.stats
        assert stats.solve_calls >= 2  # a first model, then a failed bound
        assert stats.propagations > 0
        assert stats.conflicts > 0
        assert stats.decisions > 0
