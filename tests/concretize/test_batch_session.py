"""Batch concretization sessions: equivalence, cache behavior, invalidation.

The contract under test (ISSUE 1):

* ``ConcretizationSession.solve(specs)`` is element-wise identical to running
  a fresh :class:`Concretizer` per spec;
* a second pass over the same specs is answered from the solve cache without
  re-grounding anything (proven via session/grounder statistics);
* mutating the repository (new package version) or switching solver presets
  changes the content hash and bypasses stale cache entries.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import pytest

from repro.asp.configs import SolverConfig
from repro.asp.control import PreparedProgram
from repro.spack.concretize import ConcretizationSession, Concretizer, SessionConfig
from repro.spack.concretize.encoder import ProblemEncoder
from repro.spack.concretize.session import _GroundedBase
from repro.spack.directives import depends_on, provides, variant, version
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.package import Package
from repro.spack.repo import Repository
from repro.spack.store import Database, SolveCache

from tests.concretize.test_sharded_repo import micro_sharded

#: an overlapping batch: three distinct solves, two repeats, two spec families
BATCH = ["example", "example+bzip", "minitool", "example", "example+bzip"]

#: six distinct solves of one spec family
FAMILY = [
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example@1.1.0",
    "example ^zlib~pic",
]


def signature(result):
    """Everything that must match between session and sequential solves.

    Cost vectors are compared on their non-zero levels: the session's shared
    base grounds minimize literals for criteria a minimal per-spec grounding
    never materializes, which adds *empty* levels to the cost dict without
    affecting the model or any actual cost.
    """
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        {level: cost for level, cost in result.costs.items() if cost},
        sorted(result.built),
        sorted(result.reused),
    )


@pytest.fixture()
def session(micro_repo):
    return ConcretizationSession(repo=micro_repo)


# ---------------------------------------------------------------------------
# Equivalence with the sequential concretizer
# ---------------------------------------------------------------------------


def test_batch_is_elementwise_identical_to_sequential(micro_repo, session):
    batch = session.solve(BATCH)
    assert len(batch) == len(BATCH)
    for spec, result in zip(BATCH, batch):
        sequential = Concretizer(repo=micro_repo).solve([spec])
        assert signature(result) == signature(sequential)


def test_session_concretize_matches_concretizer(micro_repo, session):
    result = session.concretize("miniapp")
    sequential = Concretizer(repo=micro_repo).concretize("miniapp")
    assert signature(result) == signature(sequential)


def test_session_result_specs_are_concrete_dags(session):
    result = session.concretize("example")
    assert result.spec.concrete
    assert "zlib" in result.specs
    assert result.spec.dependencies["zlib"] is result.specs["zlib"]


def test_unsatisfiable_spec_raises_like_sequential(session):
    with pytest.raises(UnsatisfiableSpecError):
        session.solve(["example %intel"])


def test_reuse_mode_matches_sequential(micro_repo):
    store = Database()
    store.install(Concretizer(repo=micro_repo).concretize("example~bzip").spec)
    session = ConcretizationSession(repo=micro_repo, store=store, reuse=True)
    for spec in ("example~bzip", "minitool"):
        result = session.concretize(spec)
        sequential = Concretizer(repo=micro_repo, store=store, reuse=True).solve([spec])
        assert signature(result) == signature(sequential)


def test_store_growth_mid_session_is_picked_up(micro_repo):
    store = Database()
    session = ConcretizationSession(repo=micro_repo, store=store, reuse=True)
    before = session.concretize("example")
    assert before.number_reused == 0
    store.install(Concretizer(repo=micro_repo).concretize("example").spec)
    after = session.concretize("example")
    assert after.number_reused > 0
    sequential = Concretizer(repo=micro_repo, store=store, reuse=True).solve(["example"])
    assert signature(after) == signature(sequential)


# ---------------------------------------------------------------------------
# Cache behavior: shared grounding, solve-cache hits
# ---------------------------------------------------------------------------


def test_shared_base_is_grounded_once_per_spec_family(micro_repo, session):
    session.solve(["example", "example+bzip", "example@1.0.0"])
    stats = session.stats
    # one spec family => exactly one base grounding, reused by the others
    assert stats.base_groundings == 1
    assert stats.base_cache_hits == 2
    assert stats.delta_groundings == 3
    base_stats = session.statistics()["base"]
    assert base_stats["base_groundings"] == 1
    assert base_stats["forks"] == 3


def test_concurrent_base_lookups_ground_once(session):
    """More threads than CPUs ask one session for the same family's base at
    once, switching threads every microsecond: the ground lock
    lets one of them ground it and hands every other the same base."""
    workers = (os.cpu_count() or 1) + 2
    abstract = session._as_specs(["example"])
    start = threading.Barrier(workers)
    bases = []

    def lookup():
        start.wait()
        bases.append(session._base_for(abstract))

    threads = [threading.Thread(target=lookup, daemon=True) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(bases) == workers
    assert all(base is bases[0] for base in bases)
    assert session.stats.base_groundings == 1
    assert session.stats.base_cache_hits == workers - 1


def test_concurrent_memo_hits_write_a_base_through_once(micro_repo, tmp_path):
    """More threads than CPUs reuse one memoized base in a persisting session
    at once, switching threads every microsecond, and none holds the ground
    lock: the session still probes and writes the base to disk once."""
    ConcretizationSession(repo=micro_repo).solve(["example"])  # memoize it
    session = ConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(cache_dir=str(tmp_path))
    )
    workers = (os.cpu_count() or 1) + 2
    abstract = session._as_specs(["example"])
    start = threading.Barrier(workers)

    def lookup():
        start.wait()
        session._base_for(abstract)

    threads = [threading.Thread(target=lookup, daemon=True) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert session.stats.base_cache_hits == workers
    assert session.ground_cache.statistics()["misses"] == 1  # one probe
    assert session.ground_cache.writes == 1
    assert session.stats.snapshot_writes == 1


def test_two_sessions_ground_a_shared_base_once(micro_repo, monkeypatch):
    """Two sessions over the same inputs solve one family on two threads
    while the first grounding is slow: the ground lock is process-wide, so
    one session grounds the base and the other reuses it from the memo."""
    original = _GroundedBase.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.3)
        original(self, *args, **kwargs)

    monkeypatch.setattr(_GroundedBase, "__init__", slow_init)
    sessions = [ConcretizationSession(repo=micro_repo) for _ in range(2)]
    threads = [
        threading.Thread(target=session.solve, args=([spec],), daemon=True)
        for session, spec in zip(sessions, ["example", "example+bzip"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(session.stats.base_groundings for session in sessions) == 1
    assert sum(session.stats.base_cache_hits for session in sessions) == 1
    assert all(session.stats.delta_groundings == 1 for session in sessions)


def test_memo_hit_does_not_wait_for_another_familys_grounding(micro_repo, monkeypatch):
    """One session's base is in the memo while another session grounds a
    cold family and holds the ground lock: the memo hit takes no ground
    lock, so the first session's next solve returns while the grounding is
    still blocked."""
    warm = ConcretizationSession(repo=micro_repo)
    warm.solve(["example"])

    grounding, release = threading.Event(), threading.Event()
    original = PreparedProgram.__init__

    def blocked_init(self, *args, **kwargs):
        grounding.set()
        release.wait(timeout=120)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PreparedProgram, "__init__", blocked_init)
    cold = ConcretizationSession(repo=micro_sharded())
    answers = []
    threads = [
        threading.Thread(target=cold.solve, args=(["zlib"],), daemon=True),
        threading.Thread(
            target=lambda: answers.extend(warm.solve(["example+bzip"])), daemon=True
        ),
    ]
    try:
        threads[0].start()
        assert grounding.wait(timeout=60)
        threads[1].start()
        threads[1].join(timeout=30)
        assert answers, "the memo hit waited for another family's grounding"
        assert not release.is_set() and threads[0].is_alive()
    finally:
        release.set()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert "+bzip" in str(answers[0].spec)
    assert warm.stats.base_cache_hits == 1
    assert cold.stats.base_groundings == 1


def test_second_pass_hits_cache_without_regrounding(micro_repo, session):
    first = session.solve(BATCH)
    groundings_after_first = (
        session.stats.base_groundings,
        session.stats.delta_groundings,
    )
    second = session.solve(BATCH)

    # no new base groundings, no new delta groundings: every answer replayed
    assert session.stats.base_groundings == groundings_after_first[0]
    assert session.stats.delta_groundings == groundings_after_first[1]
    assert session.stats.solve_cache_hits >= len(BATCH)
    for result in second:
        assert result.statistics["session"]["solve_cache"] == "hit"
    for a, b in zip(first, second):
        assert signature(a) == signature(b)


def test_repeated_spec_within_one_batch_hits_cache(micro_repo, session):
    session.solve(["example", "example"])
    assert session.stats.solve_cache_misses == 1
    assert session.stats.solve_cache_hits == 1


def test_replayed_results_are_independent_copies(micro_repo, session):
    first = session.concretize("example")
    first.spec.variants["bzip"] = "mutated"
    second = session.concretize("example")
    assert second.statistics["session"]["solve_cache"] == "hit"
    assert second.spec.variants.get("bzip") != "mutated"


def test_solve_cache_can_be_shared_across_sessions(micro_repo):
    cache = SolveCache()
    one = ConcretizationSession(repo=micro_repo, solve_cache=cache)
    one.solve(["example"])
    two = ConcretizationSession(repo=micro_repo, solve_cache=cache)
    result = two.concretize("example")
    assert two.stats.solve_cache_hits == 1
    assert result.statistics["session"]["solve_cache"] == "hit"


def test_shared_ground_cache_across_sessions(micro_repo):
    one = ConcretizationSession(repo=micro_repo)
    one.solve(["example"])
    assert one.stats.base_groundings == 1
    two = ConcretizationSession(repo=micro_repo)
    two.solve(["example+bzip"])
    # same repo/preset/spec-family: the second session forks the first's base
    assert two.stats.base_groundings == 0
    assert two.stats.base_cache_hits == 1


# ---------------------------------------------------------------------------
# Cache invalidation: content hashes
# ---------------------------------------------------------------------------


def _micro_like_repo(extra_zlib_version=None):
    """A fresh two-package repository, optionally with one more zlib version."""

    class Zlib(Package):
        if extra_zlib_version:
            version(extra_zlib_version)
        version("1.3")
        version("1.2.11")

    class Leaftool(Package):
        version("1.0")
        depends_on("zlib")

    return Repository(name="mutable", packages=(Zlib, Leaftool))


def test_content_hash_is_stable_for_equal_inputs():
    one = ConcretizationSession(repo=_micro_like_repo())
    two = ConcretizationSession(repo=_micro_like_repo())
    assert one.content_hash() == two.content_hash()


def test_new_package_version_changes_content_hash():
    old = ConcretizationSession(repo=_micro_like_repo())
    new = ConcretizationSession(repo=_micro_like_repo(extra_zlib_version="1.4"))
    assert old.content_hash() != new.content_hash()


def test_repo_mutation_bypasses_stale_solve_cache():
    cache = SolveCache()
    old = ConcretizationSession(repo=_micro_like_repo(), solve_cache=cache)
    stale = old.concretize("leaftool")
    assert str(stale.specs["zlib"].versions) == "1.3"

    new = ConcretizationSession(
        repo=_micro_like_repo(extra_zlib_version="1.4"),
        solve_cache=cache,
    )
    fresh = new.concretize("leaftool")
    # the shared cache must not replay the stale 1.3 answer
    assert new.stats.solve_cache_misses == 1
    assert new.stats.solve_cache_hits == 0
    assert str(fresh.specs["zlib"].versions) == "1.4"


def test_switching_presets_changes_content_hash_and_bypasses_cache(micro_repo):
    cache = SolveCache()
    tweety = ConcretizationSession(
        repo=micro_repo,
        config=SolverConfig.preset("tweety"),
        solve_cache=cache,
    )
    frumpy = ConcretizationSession(
        repo=micro_repo,
        config=SolverConfig.preset("frumpy"),
        solve_cache=cache,
    )
    assert tweety.content_hash() != frumpy.content_hash()

    a = tweety.concretize("example")
    b = frumpy.concretize("example")
    assert frumpy.stats.solve_cache_hits == 0  # no cross-preset replay
    # both presets must still find the same optimum
    assert signature(a) == signature(b)


def test_store_contents_change_solve_keys(micro_repo):
    store = Database()
    session = ConcretizationSession(repo=micro_repo, store=store, reuse=True)
    spec = session._as_specs(["example"])[0]
    key_before = session._solve_key(spec)
    store.install(Concretizer(repo=micro_repo).concretize("example").spec)
    assert session._solve_key(spec) != key_before


# ---------------------------------------------------------------------------
# Search effort
# ---------------------------------------------------------------------------


def test_every_batch_spec_takes_one_model(micro_repo):
    """Objective-first decisions make each spec's first stable model its
    optimum, so the optimizer only proves bounds after it (a regression
    to several improving models per spec shows here, without a clock)."""
    session = ConcretizationSession(repo=micro_repo)
    for spec in FAMILY:
        result = session.solve([spec])[0]
        assert result.statistics["optimization"]["models_found"] == 1, spec


def test_solves_leave_no_reference_cycles(micro_repo):
    """A solve keeps the cyclic collector off while its solver lives
    (:func:`repro.asp.solver.collector_paused`), which costs nothing only
    because solving creates no reference cycles: with collection off, a
    cold family, a warm spec, an unsat explanation and a one-shot solve
    leave no garbage that only the collector could free."""
    session = ConcretizationSession(repo=micro_repo)
    gc.collect()
    gc.disable()
    try:
        session.solve(["example"])  # cold: grounds the family's base
        session.solve(["example+bzip"])  # warm: a delta on that base
        with pytest.raises(UnsatisfiableSpecError):
            session.solve(["example %intel"])  # explained
        Concretizer(repo=micro_repo).concretize("minitool")
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Phase timings
# ---------------------------------------------------------------------------


def test_solve_timings_count_streamed_setup_once(session, monkeypatch):
    """A solve's delta facts stream into the grounder from inside its
    ground phase.  Their encoding is charged to setup alone, so ground
    excludes it and the total stays within the wall time of the call."""
    session.concretize("example")  # the family's base, outside the measurement
    encode_delta = ProblemEncoder.encode_delta

    def slow_encode_delta(self, *args, **kwargs):
        time.sleep(0.05)
        return encode_delta(self, *args, **kwargs)

    monkeypatch.setattr(ProblemEncoder, "encode_delta", slow_encode_delta)
    start = time.perf_counter()
    timings = session.concretize("example+bzip").timings
    wall = time.perf_counter() - start
    assert timings["setup"] >= 0.05
    assert timings["ground"] < 0.05
    assert timings["total"] <= wall
