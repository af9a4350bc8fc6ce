"""Control facade, configs, statistics, Model accessors, and the solver's
lifetime: freed when ``solve`` returns, with the cyclic collector paused
until then."""

import gc
import sys
import threading
import weakref

import pytest

from repro.asp.configs import SolverConfig
from repro.asp.control import Control, Model, PreparedProgram, solve_program
from repro.asp.syntax import ground_atom

#: a program with one objective level, whose forks solve from a template
OPTIMIZED = "{ a }. b :- not a. #minimize { 1@1 : b }."

#: five choices, each costing 1 when not taken: a template whose load is
#: long enough for solves on threads to overlap in it
CHOICES = "{ a(X) : item(X) }. b(X) :- item(X), not a(X). #minimize { 1@1,X : b(X) }."
ITEMS = [("item", index) for index in range(5)]


class TestControl:
    def test_add_facts_programmatically(self):
        control = Control()
        control.load("node(D) :- node(P), depends_on(P, D).")
        control.add_fact("node", "hdf5")
        control.add_fact("depends_on", "hdf5", "zlib")
        control.ground()
        result = control.solve()
        assert result.satisfiable
        assert result.model.holds("node", "zlib")

    def test_add_facts_iterable(self):
        control = Control()
        control.add_facts([("p", 1), ("p", 2)])
        control.load("q(X) :- p(X).")
        result = control.solve()
        assert len(result.model.atoms("q")) == 2

    def test_boolean_fact_arguments_become_integers(self):
        control = Control()
        control.add_fact("flag", "x", True)
        control.load("on(X) :- flag(X, 1).")
        result = control.solve()
        assert result.model.holds("on", "x")

    def test_ground_called_automatically_by_solve(self):
        control = Control()
        control.load("a.")
        result = control.solve()
        assert result.satisfiable

    def test_timings_cover_all_phases(self):
        control = Control()
        control.load("a. b :- a.")
        control.ground()
        result = control.solve()
        for phase in ("load", "ground", "solve", "total"):
            assert phase in result.timings
            assert result.timings[phase] >= 0.0

    def test_statistics_structure(self):
        result = solve_program("a. b :- a.")
        assert "ground" in result.statistics
        assert "solver" in result.statistics
        assert "optimization" in result.statistics
        assert result.statistics["ground"]["atoms"] >= 2

    def test_unsat_result_is_falsy(self):
        result = solve_program("a. :- a.")
        assert not result
        assert result.model is None

    def test_sat_result_is_truthy(self):
        assert solve_program("a.")


class TestModel:
    def test_atoms_by_predicate(self):
        model = Model([("p", "a"), ("p", "b"), ("q", 1)])
        assert len(model.atoms("p")) == 2
        assert model.arguments("q") == [(1,)]
        assert len(model) == 3

    def test_holds(self):
        model = Model([("p", "a")])
        assert model.holds("p", "a")
        assert not model.holds("p", "b")

    def test_contains(self):
        model = Model([("p", "a")])
        assert ground_atom("p", "a") in model

    def test_cost_tuple_ordering(self):
        model = Model([], costs={1: 5, 10: 0, 3: 2})
        assert model.cost_tuple() == (0, 2, 5)


class TestSolverConfig:
    def test_known_presets(self):
        names = set(SolverConfig.presets())
        assert {"tweety", "trendy", "handy", "frumpy", "jumpy", "crafty"} <= names

    def test_preset_lookup(self):
        tweety = SolverConfig.preset("tweety")
        assert tweety.name == "tweety"
        assert tweety.heuristic == "vsids"

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            SolverConfig.preset("nonexistent")

    def test_with_overrides(self):
        config = SolverConfig.preset("tweety").with_overrides(restart_base=7)
        assert config.restart_base == 7
        assert SolverConfig.preset("tweety").restart_base != 7

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SolverConfig(heuristic="astrology"),
            lambda: SolverConfig(restart_base=0),
            lambda: SolverConfig(restart_base=42.5),
            lambda: SolverConfig.preset("tweety").with_overrides(restart_strategy="astrology"),
            lambda: SolverConfig.preset("tweety").with_overrides(unknown_knob=1),
            lambda: SolverConfig.preset("tweety").with_overrides(var_decay=2.0),
            # removed in 3.0.0: objective-first decisions left it nothing to do
            lambda: SolverConfig.preset("tweety").with_overrides(zero_first=False),
        ],
        ids=[
            "heuristic",
            "restart-base-zero",
            "restart-base-float",
            "restart-strategy",
            "unknown-knob",
            "var-decay",
            "removed-zero-first",
        ],
    )
    def test_invalid_knobs_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_presets_differ(self):
        tweety = SolverConfig.preset("tweety")
        handy = SolverConfig.preset("handy")
        assert tweety != handy

    @pytest.mark.parametrize("name", ["tweety", "trendy", "handy", "frumpy", "jumpy", "crafty"])
    def test_every_preset_solves(self, name):
        result = solve_program(
            "a :- not b. b :- not a. :- b.",
            config=SolverConfig.preset(name),
        )
        assert result.satisfiable
        assert result.model.holds("a")


class TestSolverLifetime:
    def test_solve_frees_its_solver_when_it_returns(self, monkeypatch):
        """No reference outlives ``solve``: the solver is freed by reference
        counting, before the collector resumes, on both completion paths."""
        solvers = []
        build = Control._build_solver

        def tracked(self):
            solver = build(self)
            solvers.append(weakref.ref(solver))
            return solver

        monkeypatch.setattr(Control, "_build_solver", tracked)
        prepared = PreparedProgram(OPTIMIZED)
        controls = [Control().load(OPTIMIZED), prepared.fork(), prepared.fork()]
        for control in controls:
            assert control.solve().costs == {1: 0}
            assert solvers[-1]() is None
        assert len(solvers) == 3

    def test_concurrent_solves_leave_the_collector_on(self):
        """Solves on four threads, switching threads as often as they can,
        end with collection on.  A pause that saved and restored
        ``gc.isenabled()`` per solve left it off for good whenever one
        solve read "on" as "off" while another's pause ran, then turned
        it off after the other had turned it back on."""
        prepared = PreparedProgram(CHOICES, ITEMS)
        assert prepared.fork().solve().costs == {1: 0}  # builds the template
        interval = sys.getswitchinterval()

        def solve_many():
            for _ in range(2000):
                prepared.fork().solve()

        try:
            gc.enable()
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=solve_many) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert gc.isenabled()
        finally:
            sys.setswitchinterval(interval)
            gc.enable()

    def test_a_solve_leaves_collection_off_when_the_caller_turned_it_off(self):
        prepared = PreparedProgram(OPTIMIZED)
        gc.disable()
        try:
            assert solve_program(OPTIMIZED).costs == {1: 0}
            assert prepared.fork().solve().costs == {1: 0}
            assert not gc.isenabled()
        finally:
            gc.enable()
