"""Multi-level #minimize optimization tests."""

import pytest

from repro.asp.configs import SolverConfig
from repro.asp.control import Control, solve_program

from tests.asp.test_properties import OPTIMAL_BUT_NOT_FORCED, optimization_text, solve_both_paths


class TestSingleLevel:
    def test_minimize_picks_cheapest(self):
        result = solve_program(
            """
            cost(a, 3). cost(b, 1). cost(c, 2).
            1 { pick(X) : cost(X, W) } 1.
            picked_cost(X, W) :- pick(X), cost(X, W).
            #minimize { W@1,X : picked_cost(X, W) }.
            """
        )
        assert result.optimal
        assert result.model.holds("pick", "b")
        assert result.costs[1] == 1

    def test_minimize_can_reach_zero(self):
        result = solve_program(
            """
            item(a). item(b).
            { pick(X) : item(X) }.
            #minimize { 1@1,X : pick(X) }.
            """
        )
        assert result.costs[1] == 0
        assert len(result.model.atoms("pick")) == 0

    def test_minimize_with_forced_cost(self):
        result = solve_program(
            """
            item(a). item(b). item(c).
            2 { pick(X) : item(X) }.
            #minimize { 1@1,X : pick(X) }.
            """
        )
        assert result.costs[1] == 2

    def test_weighted_minimize(self):
        result = solve_program(
            """
            weight(a, 10). weight(b, 1). weight(c, 1).
            2 { pick(X) : weight(X, W) } 2.
            picked(X, W) :- pick(X), weight(X, W).
            #minimize { W@1,X : picked(X, W) }.
            """
        )
        assert result.costs[1] == 2
        assert not result.model.holds("pick", "a")


class TestLexicographic:
    PROGRAM = """
        option(a). option(b). option(c).
        1 { pick(X) : option(X) } 1.
        % level 2 (more important): a and b cost 0, c costs 1
        high_cost(c, 1).
        % level 1 (less important): a costs 5, b costs 1, c costs 0
        low_cost(a, 5). low_cost(b, 1).
        picked_high(X, W) :- pick(X), high_cost(X, W).
        picked_low(X, W) :- pick(X), low_cost(X, W).
        #minimize { W@2,X : picked_high(X, W) }.
        #minimize { W@1,X : picked_low(X, W) }.
    """

    def test_higher_priority_dominates(self):
        result = solve_program(self.PROGRAM)
        # c is best on level 1 but worst on level 2; b wins lexicographically
        assert result.model.holds("pick", "b")
        assert result.costs[2] == 0
        assert result.costs[1] == 1

    def test_cost_vector_ordering(self):
        result = solve_program(self.PROGRAM)
        assert result.model.cost_tuple() == (0, 1)

    @pytest.mark.parametrize("preset", ["tweety", "trendy", "handy", "jumpy"])
    def test_all_presets_find_the_same_optimum(self, preset):
        result = solve_program(self.PROGRAM, config=SolverConfig.preset(preset))
        assert result.costs[2] == 0
        assert result.costs[1] == 1

    def test_three_levels(self):
        result = solve_program(
            """
            option(a). option(b).
            1 { pick(X) : option(X) } 1.
            c3(a, 1). c2(b, 1). c1(a, 1).
            p3(X, W) :- pick(X), c3(X, W).
            p2(X, W) :- pick(X), c2(X, W).
            p1(X, W) :- pick(X), c1(X, W).
            #minimize { W@30,X : p3(X, W) }.
            #minimize { W@20,X : p2(X, W) }.
            #minimize { W@10,X : p1(X, W) }.
            """
        )
        # b avoids the level-30 cost, so it wins despite its level-20 cost
        assert result.model.holds("pick", "b")
        assert result.costs[30] == 0
        assert result.costs[20] == 1
        assert result.costs[10] == 0


class TestProofFromTheTrail:
    """A first model whose every level's cost was forced by the higher
    levels' decisions is optimal as found; otherwise a bound proves it.
    Solve calls count the difference, on the one-shot path and on both
    forks of a prepared program."""

    def test_forced_costs_take_one_solve_call(self):
        # deciding a's objective variable false (level 2) forces b (level 1)
        text = "b :- not a. { a }. #minimize { 3@1 : b }. #minimize { 1@2 : a }."
        for result in solve_both_paths(text, {}):
            assert result.costs == {2: 0, 1: 3}
            assert result.statistics["solver"]["solve_calls"] == 1

    def test_an_optimum_the_trail_cannot_certify_takes_a_bound_proof(self):
        rules, choices, constraints, levels, facts = OPTIMAL_BUT_NOT_FORCED
        text = optimization_text(rules, choices, constraints, levels)
        for result in solve_both_paths(text, facts):
            assert result.costs == {1: 1}
            assert result.statistics["optimization"]["models_found"] == 1
            assert result.statistics["solver"]["solve_calls"] == 2


class TestOptimizationDetails:
    def test_unconditional_minimize_element_becomes_base_cost(self):
        result = solve_program(
            """
            a.
            #minimize { 5@1 }.
            """
        )
        assert result.costs[1] == 5

    def test_duplicate_terms_counted_once(self):
        # Two conditions deriving the same (weight, terms) key count once.
        result = solve_program(
            """
            a. b.
            hit(x) :- a.
            hit(x) :- b.
            #minimize { 1@1,X : hit(X) }.
            """
        )
        assert result.costs[1] == 1

    def test_optimization_respects_stability(self):
        # The cheapest *supported* model uses an unfounded loop; the optimal
        # *stable* model must pay the cost instead.
        result = solve_program(
            """
            pay :- not free.
            free :- loop.
            loop :- free.
            cost(pay, 1).
            charged(X, W) :- pay, cost(X, W), X = pay.
            #minimize { W@1,X : charged(X, W) }.
            """
        )
        assert result.satisfiable
        assert result.costs[1] == 1

    def test_unsat_optimization_reports_unsat(self):
        result = solve_program(
            """
            a. :- a.
            #minimize { 1@1,X : p(X) }.
            """
        )
        assert not result.satisfiable

    def test_on_model_callback(self):
        control = Control()
        control.load(
            """
            item(a). item(b).
            { pick(X) : item(X) }.
            #minimize { 1@1,X : pick(X) }.
            """
        )
        control.ground()
        seen = []
        result = control.solve(on_model=lambda m: seen.append(len(m)))
        assert result.satisfiable
        assert len(seen) == 1
