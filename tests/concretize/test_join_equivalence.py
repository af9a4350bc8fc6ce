"""Indexed joins vs the naive grounder: an exact-equivalence oracle.

The indexed grounder (:class:`repro.asp.grounder.Grounder`) reimplements
grounding on interned symbols, per-predicate argument indexes, and compiled
join plans.  Its only license to exist is being *faster while
byte-identical*: for any program the naive tuple-at-a-time grounder
(``tests/asp/naive_grounder.py``, a test-only oracle) accepts, both engines
must derive the same certain facts, the same possible-atom universe, the same
rule/choice/constraint counts — and therefore the same stable models.

Two layers of oracle, both calling the grounders directly:

* raw ASP programs chosen to stress join-planner corner cases (negation,
  comparisons binding late, arithmetic, conditionals, recursion through
  choices), one-shot and with a delta layer;
* the concretizer's own program (the logic program plus the one-shot
  encoding of each spec) over the monolithic and the sharded micro catalog,
  whose naive-grounded answer must also match what a session returns.
"""

from __future__ import annotations

import pytest

from repro.asp.control import Control, parse_program_cached
from repro.asp.grounder import Grounder
from repro.asp.syntax import ground_atom
from repro.spack.concretize import ConcretizationSession, SessionConfig
from repro.spack.concretize.concretizer import result_from_solve
from repro.spack.concretize.encoder import ProblemEncoder
from repro.spack.concretize.logic import logic_program
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.spec_parser import parse_spec

from tests.asp.naive_grounder import NaiveGrounder
from tests.concretize.test_sharded_repo import micro_flat, micro_sharded, signature

GROUNDERS = (Grounder, NaiveGrounder)

BATCH = [
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "minitool",
    "miniapp",
]

#: programs picked to hit join-planner corner cases, not to look pretty
TRICKY_PROGRAMS = (
    # multi-way join with a shared variable and a constant
    """
    p(1). p(2). p(3). q(2). q(3). r(3).
    a(X) :- p(X), q(X), r(X).
    b(X,Y) :- p(X), q(Y), X != Y.
    """,
    # negation as failure over a derived predicate
    """
    node(1). node(2). node(3). edge(1,2). edge(2,3).
    reach(X) :- node(X), edge(1,X).
    reach(Y) :- reach(X), edge(X,Y).
    isolated(X) :- node(X), not reach(X), X != 1.
    """,
    # comparison that only becomes ground after the second literal binds
    """
    v("1.0"). v("2.0"). w("2.0"). w("3.0").
    both(X) :- v(X), w(X).
    pair(X,Y) :- v(X), w(Y), X < Y.
    """,
    # choice rule feeding a constraint and a minimize statement
    """
    item(1). item(2). item(3).
    { pick(X) : item(X) }.
    :- pick(1), pick(2).
    cost(X,X) :- pick(X).
    #minimize { C@1,X : cost(X,C) }.
    """,
    # conditional literals in a rule body
    """
    p(1). p(2). ok(1). ok(2).
    all_ok :- ok(X) : p(X).
    q :- all_ok.
    """,
    # arithmetic inside comparisons over joined bindings
    """
    n(1). n(2). n(3). n(4).
    pair(X,Y) :- n(X), n(Y), X * 2 > Y, X < Y.
    near(X) :- n(X), n(Y), Y > X + 1.
    """,
)


def ground_signature(program):
    """Everything observable about a grounding, as grounder-independent
    strings."""
    return {
        "certain": sorted(program.format_atom(atom) for atom in program.facts),
        "possible": sorted(
            program.format_atom(atom) for atom in range(1, program.num_atoms + 1)
        ),
        "rules": program.num_rules,
        "choices": len(program.choices),
        "constraints": len(program.constraints),
        "minimize": len(program.minimize_literals),
    }


def solve_ground(program):
    """The optimal model of a ground program (``None`` when unsatisfiable)."""
    return Control().adopt_ground(program).solve()


def model_atoms(result):
    if result.model is None:
        return None
    return sorted(map(str, result.model.atoms()))


def ground_with(grounder_class, text, facts=()):
    program = parse_program_cached(text)
    return grounder_class(program, [ground_atom(*fact) for fact in facts]).ground()


# ---------------------------------------------------------------------------
# Raw-program oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(len(TRICKY_PROGRAMS)))
def test_grounding_identical_on_tricky_programs(index):
    indexed, naive = (
        ground_signature(ground_with(cls, TRICKY_PROGRAMS[index])) for cls in GROUNDERS
    )
    assert indexed == naive


@pytest.mark.parametrize("index", range(len(TRICKY_PROGRAMS)))
def test_solving_identical_on_tricky_programs(index):
    indexed, naive = (
        model_atoms(solve_ground(ground_with(cls, TRICKY_PROGRAMS[index])))
        for cls in GROUNDERS
    )
    assert indexed == naive


def test_delta_grounding_identical():
    base = parse_program_cached("p(1). p(2). r(X) :- p(X), extra(X).")
    models = []
    for cls in GROUNDERS:
        grounder = cls(base)
        grounder.ground()
        layered = grounder.clone()
        layered.ground_delta([ground_atom("extra", 2)])
        models.append(model_atoms(solve_ground(layered.ground_program)))
    assert models[0] == models[1]
    assert "('r', 2)" in models[0]


# ---------------------------------------------------------------------------
# The concretizer's own program, monolithic and sharded
# ---------------------------------------------------------------------------


def assert_concretizer_program_identical(make_repo):
    """For every spec: both grounders derive the same ground program and
    the same optimal model, and the naive-grounded answer is the one an
    (indexed) session returns."""
    clear_shared_bases()
    session = ConcretizationSession(
        repo=make_repo(), session_config=SessionConfig(share_ground_cache=False)
    )
    for text in BATCH:
        spec = parse_spec(text)
        facts = ProblemEncoder(make_repo()).encode([spec])
        indexed, naive = (ground_with(cls, logic_program(), facts) for cls in GROUNDERS)
        assert ground_signature(indexed) == ground_signature(naive), text
        naive_result = solve_ground(naive)
        assert model_atoms(solve_ground(indexed)) == model_atoms(naive_result), text
        one_shot = result_from_solve([spec], naive_result, {})
        assert signature(session.concretize(text)) == signature(one_shot), text


def test_sessions_identical_monolithic():
    assert_concretizer_program_identical(micro_flat)


def test_sessions_identical_sharded():
    assert_concretizer_program_identical(micro_sharded)
