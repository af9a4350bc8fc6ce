"""Unsat explanations: minimal conflict cores, path parity, scenario sweeps.

The contract under test (ISSUE 7 tentpole):

* an unsatisfiable concretization raises
  :class:`~repro.spack.errors.UnsatisfiableSpecError` carrying a structured
  ``explanation`` — an ordered list of
  :class:`~repro.spack.errors.ConstraintProvenance` naming the package,
  directive, and ``when=`` condition of every member of a **minimal**
  conflict core (removing any single member makes the problem satisfiable);
* the explanation is *identical* — element-wise, and in the rendered
  message — across every entry point: one-shot :class:`Concretizer`,
  sequential :class:`ConcretizationSession`, the async session, and warm
  replays from both the in-memory and the persistent solve cache; it
  survives pickling, so it crosses process boundaries intact;
* against seeded synthetic catalogs with planted conflicts
  (:class:`~repro.spack.generator.SyntheticRepoBuilder`), the extracted
  core equals the planted ground truth exactly, and relaxing any single
  planted member flips the scenario to SAT (the minimality oracle).
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.spack.concretize import ConcretizationSession, Concretizer, SessionConfig
from repro.spack.concretize.async_session import AsyncConcretizationSession
from repro.spack.errors import ConstraintProvenance, UnsatisfiableSpecError
from repro.spack.generator import SyntheticRepoBuilder
from repro.spack.spec_parser import parse_spec

#: async sessions here solve on two threads
TWO_SOLVERS = SessionConfig(max_concurrency=2)

# ---------------------------------------------------------------------------
# Structured explanations (micro catalog)
# ---------------------------------------------------------------------------


def unsat_error(callable_):
    with pytest.raises(UnsatisfiableSpecError) as info:
        callable_()
    return info.value


def test_conflict_core_names_the_guilty_directives(micro_repo):
    """``example %intel`` trips ``conflicts("%intel")``: the core is exactly
    the conflict directive plus the request that activated it."""
    error = unsat_error(lambda: Concretizer(repo=micro_repo).concretize("example %intel"))
    assert error.core() == [
        'example: conflicts("%intel")',
        'example: requested spec "example %intel"',
    ]
    kinds = [entry.kind for entry in error.explanation]
    assert kinds == ["conflict", "requested"]
    for entry in error.explanation:
        assert isinstance(entry, ConstraintProvenance)
        assert entry.package == "example"


def test_message_renders_the_numbered_core(micro_repo):
    error = unsat_error(lambda: Concretizer(repo=micro_repo).concretize("example %intel"))
    message = str(error)
    assert "no valid concretization exists for: example %intel" in message
    assert "minimal conflict core:" in message
    assert '1. example: conflicts("%intel")' in message
    assert '2. example: requested spec "example %intel"' in message
    assert error.specs == ["example %intel"]


def test_impossible_version_request_core_is_the_request(micro_repo):
    error = unsat_error(lambda: Concretizer(repo=micro_repo).concretize("zlib@99.99"))
    assert error.core() == ['zlib: requested spec "zlib @99.99"']
    assert error.explanation[0].kind == "requested"


def test_provenance_roundtrips_through_dict_and_pickle(micro_repo):
    error = unsat_error(lambda: Concretizer(repo=micro_repo).concretize("example %intel"))
    for entry in error.explanation:
        assert ConstraintProvenance.from_dict(entry.to_dict()) == entry
    # the error crosses a process boundary with its explanation intact
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, UnsatisfiableSpecError)
    assert clone.explanation == error.explanation
    assert str(clone) == str(error)
    assert clone.specs == error.specs


# ---------------------------------------------------------------------------
# Path parity (sequential / async / warm caches)
# ---------------------------------------------------------------------------

#: one satisfiable spec on each side of the unsat one, so the parity checks
#: also prove a failed spec does not poison its batch neighbours
MIXED_BATCH = ["zlib", "example %intel", "minitool"]


def test_async_session_matches_sequential(micro_repo):
    sequential = unsat_error(
        lambda: ConcretizationSession(repo=micro_repo).solve(MIXED_BATCH)
    )

    async def solve_async():
        async with AsyncConcretizationSession(
            repo=micro_repo, session_config=TWO_SOLVERS
        ) as session:
            await session.concretize_batch(MIXED_BATCH)

    asynchronous = unsat_error(lambda: asyncio.run(solve_async()))

    one_shot = unsat_error(
        lambda: Concretizer(repo=micro_repo).concretize("example %intel")
    )
    assert asynchronous.explanation == sequential.explanation
    assert str(asynchronous) == str(sequential)
    assert asynchronous.specs == sequential.specs
    # the one-shot concretizer encodes in a different fact order; the
    # explanation is the same constraints regardless
    assert one_shot.explanation == sequential.explanation


def test_earliest_input_index_failure_wins(micro_repo):
    """Two unsat specs in one batch: every path raises the error belonging
    to the *earlier* input, exactly like the sequential session."""
    batch = ["zlib", "zlib@99.99", "example %intel"]
    sequential = unsat_error(lambda: ConcretizationSession(repo=micro_repo).solve(batch))
    assert sequential.specs == ["zlib @99.99"]

    async def solve_async():
        async with AsyncConcretizationSession(
            repo=micro_repo, session_config=TWO_SOLVERS
        ) as session:
            await session.concretize_batch(batch)

    asynchronous = unsat_error(lambda: asyncio.run(solve_async()))
    assert asynchronous.specs == sequential.specs
    assert asynchronous.explanation == sequential.explanation


def test_warm_in_memory_cache_replays_the_same_explanation(micro_repo):
    session = ConcretizationSession(repo=micro_repo)
    cold = unsat_error(lambda: session.concretize("example %intel"))
    hits_before = session.stats.solve_cache_hits
    warm = unsat_error(lambda: session.concretize("example %intel"))
    assert session.stats.solve_cache_hits > hits_before
    assert warm.explanation == cold.explanation
    assert str(warm) == str(cold)
    assert warm is not cold  # a fresh error object per raise, never reused


def test_persistent_cache_replays_across_sessions(micro_repo, tmp_path):
    cache_dir = str(tmp_path / "solve-cache")
    first = ConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(cache_dir=cache_dir)
    )
    cold = unsat_error(lambda: first.concretize("example %intel"))
    second = ConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(cache_dir=cache_dir)
    )
    warm = unsat_error(lambda: second.concretize("example %intel"))
    assert second.stats.delta_groundings == 0  # no solve, no MUS extraction
    assert warm.explanation == cold.explanation
    assert str(warm) == str(cold)


def test_unsat_does_not_poison_satisfiable_neighbours(micro_repo):
    session = ConcretizationSession(repo=micro_repo)
    unsat_error(lambda: session.solve(MIXED_BATCH))
    results = session.solve(["zlib", "minitool"])
    assert [r.spec.name for r in results] == ["zlib", "minitool"]


# ---------------------------------------------------------------------------
# Scenario harness (synthetic catalogs with planted conflicts)
# ---------------------------------------------------------------------------


def scenario_builder(seed, num_packages, unsat_conflicts=3, omit=()):
    return SyntheticRepoBuilder(
        num_packages=num_packages,
        max_dependencies=3,
        layers=5,
        seed=seed,
        unsat_packages=1,
        unsat_conflicts=unsat_conflicts,
        omit_planted=omit,
    )


def assert_scenario(seed, num_packages, unsat_conflicts=3, check_minimality=True):
    """One seeded scenario: extract the core, compare against the planted
    ground truth, and (optionally) prove minimality by relaxing each member
    in turn and solving the relaxed catalog to SAT."""
    builder = scenario_builder(seed, num_packages, unsat_conflicts)
    repo = builder.build()
    planted = builder.planted["synth-unsat-0000"]

    error = unsat_error(lambda: Concretizer(repo=repo).concretize(planted.package))
    expected = sorted(f"{planted.package}: {d}" for d in planted.directives)
    assert error.core() == expected, (seed, num_packages)

    if check_minimality:
        for conflict_spec in planted.conflict_specs:
            relaxed = scenario_builder(
                seed, num_packages, unsat_conflicts, omit=[(planted.package, conflict_spec)]
            ).build()
            result = Concretizer(repo=relaxed).concretize(planted.package)
            assert result.spec.name == planted.package
    return error


def test_scenario_fast_subset():
    """Eight seeds through the scenario oracle (the tier-1 slice of the
    sweep below); minimality is proven for the first two."""
    for seed in range(8):
        assert_scenario(
            seed,
            num_packages=30 + seed * 10,
            unsat_conflicts=2 + seed % 2,
            check_minimality=seed < 2,
        )


def test_scenario_explanations_agree_across_paths():
    """One synthetic scenario through every entry point."""
    builder = scenario_builder(3, 40)
    repo = builder.build()
    planted = builder.planted["synth-unsat-0000"]
    spec = planted.package

    one_shot = unsat_error(lambda: Concretizer(repo=repo).concretize(spec))
    sequential = unsat_error(lambda: ConcretizationSession(repo=repo).concretize(spec))
    batch = unsat_error(lambda: ConcretizationSession(repo=repo).solve(["synth-0000", spec]))

    async def solve_async():
        async with AsyncConcretizationSession(repo=repo, session_config=TWO_SOLVERS) as session:
            await session.concretize_batch(["synth-0000", spec])

    asynchronous = unsat_error(lambda: asyncio.run(solve_async()))

    expected = sorted(f"{planted.package}: {d}" for d in planted.directives)
    assert one_shot.core() == expected
    for error in (sequential, batch, asynchronous):
        assert error.explanation == one_shot.explanation


@pytest.mark.slow
def test_scenario_diversity_sweep():
    """The full acceptance sweep: 50+ seeded scenarios over catalogs up to
    1000+ packages, each verified against its planted ground truth *and*
    minimal by the relaxation oracle."""
    sizes = (50, 100, 150, 250, 400, 600, 1000, 1200)
    scenarios = 0
    for seed in range(52):
        num_packages = sizes[seed % len(sizes)]
        assert_scenario(
            seed,
            num_packages=num_packages,
            unsat_conflicts=2 + seed % 3,
            check_minimality=True,
        )
        scenarios += 1
    assert scenarios >= 50


@pytest.mark.slow
def test_scenario_sweep_warm_cache_parity():
    """Scenario explanations survive a warm persistent-cache replay
    identically (a second session does zero grounding)."""
    import tempfile

    for seed in (0, 5, 9):
        builder = scenario_builder(seed, 120)
        repo = builder.build()
        spec = builder.planted["synth-unsat-0000"].package
        with tempfile.TemporaryDirectory() as cache_dir:
            config = SessionConfig(cache_dir=cache_dir)
            cold = unsat_error(
                lambda: ConcretizationSession(repo=repo, session_config=config).concretize(spec)
            )
            warm_session = ConcretizationSession(repo=repo, session_config=config)
            warm = unsat_error(lambda: warm_session.concretize(spec))
            assert warm_session.stats.delta_groundings == 0
            assert warm.explanation == cold.explanation
            assert str(warm) == str(cold)


def test_requested_spec_participates_in_synthetic_cores():
    """Pinning a poisoned package to one version shrinks the core to that
    version's conflict plus the pinning request itself."""
    builder = scenario_builder(11, 40, unsat_conflicts=3)
    repo = builder.build()
    planted = builder.planted["synth-unsat-0000"]
    top = parse_spec(f"{planted.package}@3.0.0")
    error = unsat_error(lambda: Concretizer(repo=repo).concretize(top))
    core = error.core()
    assert f'{planted.package}: conflicts("@3.0.0")' in core
    assert any("requested spec" in line for line in core)
    # the other planted conflicts are *not* necessary once the version is
    # pinned — minimality prunes them
    assert f'{planted.package}: conflicts("@2.0.0")' not in core
    assert f'{planted.package}: conflicts("@1.0.0")' not in core
