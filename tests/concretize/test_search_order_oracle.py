"""Order-independence oracle: the optimum does not depend on search order.

Every solver preset searches in its own order (VSIDS or a fixed index
order, either default phase, its own restarts), and a session numbers its
solver variables differently from a one-shot solve (a completion template
plus a delta instead of one whole completion).  None of that may change an answer.  On
small random catalogs every preset finds the same optimal cost vector, a
session returns exactly the one-shot default solve's answer, and a root
that is unsatisfiable on one path is unsatisfiable on every path.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.asp.configs import SolverConfig
from repro.spack.concretize import ConcretizationSession, Concretizer
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.generator import SyntheticRepoBuilder

PRESETS = sorted(SolverConfig.presets())

# small catalogs keep each example fast; a planted package, drawn as the
# root about half the time it exists, is unsatisfiable
catalogs = st.fixed_dictionaries(
    {
        "num_packages": st.integers(min_value=4, max_value=16),
        "max_dependencies": st.integers(min_value=0, max_value=3),
        "layers": st.integers(min_value=2, max_value=4),
        "mpi_fraction": st.floats(min_value=0.0, max_value=1.0),
        "conditional_fraction": st.floats(min_value=0.0, max_value=1.0),
        "num_providers": st.integers(min_value=1, max_value=3),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "unsat_packages": st.integers(min_value=0, max_value=1),
    }
)


def answer(solve, root):
    """The result of ``solve(root)``, or None when it is unsatisfiable."""
    try:
        return solve(root)
    except UnsatisfiableSpecError:
        return None


def costs(result):
    # a session's shared base may ground minimize levels a one-shot
    # grounding never materializes; they cost 0 and are left out
    return {level: cost for level, cost in result.costs.items() if cost}


def signature(result):
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        costs(result),
        sorted(result.built),
        sorted(result.reused),
    )


@settings(max_examples=30, deadline=None)
@given(catalogs, st.data())
def test_optimum_does_not_depend_on_search_order(params, data):
    builder = SyntheticRepoBuilder(**params)
    repo = builder.build()
    roots = st.sampled_from(sorted(repo.all_package_names()))
    if builder.planted:
        roots |= st.sampled_from(sorted(builder.planted))
    root = data.draw(roots, label="root")

    answers = {
        preset: answer(Concretizer(repo=repo, config=SolverConfig.preset(preset)).concretize, root)
        for preset in PRESETS
    }
    reference = answers["tweety"]
    if reference is None:
        assert all(found is None for found in answers.values()), answers
    else:
        for preset, found in answers.items():
            assert found is not None, preset
            assert costs(found) == costs(reference), preset

    clear_shared_bases()
    session = ConcretizationSession(repo=repo)
    found = answer(session.concretize, root)
    if reference is None:
        assert found is None
    else:
        assert found is not None
        assert signature(found) == signature(reference)
