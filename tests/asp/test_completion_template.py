"""Deltas a base's completion template cannot serve as is.

A prepared program completes its grounded base once and starts every later
solve from that template (see :mod:`repro.asp.completion`).  Each test here
solves two forks of one :class:`PreparedProgram` -- the second one certainly
on the template -- and compares them with a one-shot ``solve_program`` over
the union of the base and delta facts.
"""

from repro.asp.control import PreparedProgram, solve_program

#: the delta's item(2) makes the grounder upgrade the base's choice
#: instance in place, to candidates pick(1) and pick(2)
CHOICE_UPGRADE = """
1 { pick(X) : item(X) } 1 :- go.
:- want(X), not pick(X).
"""

#: p(1) and p(2) both hold and share the minimize key (1, 1, t): counted once
SHARED_KEY = """
{ p(X) } :- q(X).
:- q(X), not p(X).
#minimize { 1@1,t : p(X) }.
"""

#: without link facts the base has no rule instance, so it is tight; link(1)
#: closes the loop a(1) <-> b(1), whose only external support ext(1) is
#: forced false.  {a(1), b(1)} is supported but not stable.
DELTA_LOOP = """
a(X) :- b(X), link(X).
b(X) :- a(X), link(X).
a(X) :- link(X), ext(X).
{ ext(X) } :- link(X).
:- ext(X).
:- link(X), not a(X).
"""


def model_atoms(result):
    return sorted(result.model.atoms()) if result.satisfiable else None


def solve_forks(text, base_facts, delta_facts):
    """Two forks' results, the one-shot result, and the prepared program."""
    expected = solve_program(text, list(base_facts) + list(delta_facts))
    prepared = PreparedProgram(text, base_facts)
    results = [prepared.fork(delta_facts).solve() for _ in range(2)]
    for result in results:
        assert result.satisfiable == expected.satisfiable
        assert model_atoms(result) == model_atoms(expected)
        assert result.costs == expected.costs
    return results, expected, prepared


def test_choice_upgraded_in_place_is_completed_whole():
    results, expected, _ = solve_forks(
        CHOICE_UPGRADE, [("go",), ("item", 1)], [("item", 2), ("want", 2)]
    )
    assert expected.satisfiable
    assert ("pick", 2) in expected.model and ("pick", 1) not in expected.model


def test_delta_minimize_element_on_a_base_key_is_counted_once():
    results, expected, _ = solve_forks(SHARED_KEY, [("q", 1)], [("q", 2)])
    assert expected.satisfiable
    assert expected.costs == {1: 1}


def test_delta_closing_a_positive_loop_keeps_the_stability_check():
    results, expected, prepared = solve_forks(DELTA_LOOP, [], [("link", 1)])
    assert not expected.satisfiable
    for result in results:
        assert result.statistics["optimization"]["rejected_supported_models"] >= 1
        assert result.statistics["optimization"]["stability_checks_skipped"] == 0


def test_template_is_built_once_and_reported():
    results, _, prepared = solve_forks(
        CHOICE_UPGRADE, [("go",), ("item", 1), ("item", 2)], [("want", 2)]
    )
    stats = prepared.statistics()
    assert stats["template_builds"] == 1
    assert stats["template_bytes"] > 0
    # the program has no positive loop: every model is accepted unchecked
    skipped = [r.statistics["optimization"]["stability_checks_skipped"] for r in results]
    assert all(count > 0 for count in skipped)
    assert stats["stability_checks_skipped"] == sum(skipped)
    assert all(r.statistics["optimization"]["stability_checks"] == 0 for r in results)
