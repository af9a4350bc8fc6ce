"""Parallel concretization sessions: identity, ordering, degradation.

The contract under test (ISSUE 2 tentpole, act 1):

* a session with ``SessionConfig(workers=N)`` solves element-wise
  identically to the sequential session (and therefore to per-spec
  :class:`Concretizer` runs), in input order, on both worker backends;
* the shared base is grounded exactly once, in the parent, before workers
  fork;
* cache hits and in-batch duplicates never reach a worker;
* pool failures degrade to sequential solving instead of failing the batch.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import sys
import threading
import time

import pytest

from repro.spack.concretize import (
    AsyncConcretizationSession,
    ConcretizationSession,
    ParallelConcretizationSession,
    SessionConfig,
)
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.errors import UnsatisfiableSpecError

#: sessions that keep their grounded bases to themselves
UNSHARED = SessionConfig(share_ground_cache=False)

#: overlapping single-family batch: six distinct solves, two exact repeats
BATCH = [
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example@1.1.0",
    "example ^zlib~pic",
    "example",
    "example+bzip",
]


def signature(result):
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        {level: cost for level, cost in result.costs.items() if cost},
        sorted(result.built),
        sorted(result.reused),
    )


@pytest.fixture()
def sequential_results(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(repo=micro_repo, session_config=UNSHARED)
    return [signature(r) for r in session.solve(BATCH)]


# ---------------------------------------------------------------------------
# Element-wise identity with the sequential session
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["process", "thread"])
def test_parallel_identical_to_sequential(micro_repo, sequential_results, backend):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=4, worker_backend=backend),
    )
    results = session.solve(BATCH)
    assert [signature(r) for r in results] == sequential_results


def test_parallel_results_keep_input_order(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=2),
    )
    results = session.solve(["example@1.0.0", "example@1.1.0", "example@1.0.0"])
    assert [str(r.spec.versions) for r in results] == ["1.0.0", "1.1.0", "1.0.0"]


def test_parallel_session_convenience_class(micro_repo, sequential_results):
    clear_shared_bases()
    session = ParallelConcretizationSession(repo=micro_repo, session_config=UNSHARED)
    assert session.workers >= 1
    results = session.solve(BATCH)
    assert [signature(r) for r in results] == sequential_results


# ---------------------------------------------------------------------------
# Work sharing: one base grounding, cache hits stay in the parent
# ---------------------------------------------------------------------------


def test_parallel_grounds_base_once_in_parent(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=4),
    )
    session.solve(BATCH)
    stats = session.stats
    assert stats.base_groundings == 1
    assert stats.delta_groundings == 6  # distinct specs only
    assert stats.solve_cache_hits == 2  # the two in-batch repeats
    assert stats.solve_cache_misses == 6
    assert stats.parallel_solves == 6
    assert stats.specs_solved == len(BATCH)


def test_process_workers_inherit_the_parent_template(micro_repo):
    """The parent completes the base before forking, so no worker builds
    the completion template again."""
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=4, worker_backend="process"),
    )
    session.solve(BATCH)
    assert session.stats.parallel_solves == 6
    assert session.statistics()["base"]["template_builds"] == 1


def test_every_batch_spec_takes_one_model(micro_repo):
    """Objective-first decisions make each spec's first stable model its
    optimum, so the optimizer only proves bounds after it (a regression
    to several improving models per spec shows here, without a clock)."""
    clear_shared_bases()
    session = ConcretizationSession(repo=micro_repo, session_config=UNSHARED)
    for spec in dict.fromkeys(BATCH):
        result = session.solve([spec])[0]
        assert result.statistics["optimization"]["models_found"] == 1, spec


def test_parallel_second_pass_is_all_cache_hits(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=4),
    )
    first = [signature(r) for r in session.solve(BATCH)]
    solves_after_first = session.stats.parallel_solves
    second = [signature(r) for r in session.solve(BATCH)]
    assert second == first
    assert session.stats.parallel_solves == solves_after_first  # no new workers
    assert session.stats.solve_cache_misses == 6


def test_parallel_marks_results_with_backend(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=2, worker_backend="thread"),
    )
    results = session.solve(["example", "example+bzip"])
    for result in results:
        assert result.statistics["session"]["parallel_backend"] == "thread"
    # replays of cached results don't carry a backend marker
    replay = session.solve(["example"])[0]
    assert replay.statistics["session"]["solve_cache"] == "hit"


# ---------------------------------------------------------------------------
# Failure behavior
# ---------------------------------------------------------------------------


def test_unsatisfiable_spec_raises_in_parallel_batches(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=2),
    )
    with pytest.raises(UnsatisfiableSpecError):
        session.solve(["example", "example %intel"])


def test_workers_one_is_plain_sequential(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(repo=micro_repo, session_config=UNSHARED)
    session.solve(BATCH)
    assert session.stats.parallel_solves == 0


def test_invalid_worker_settings_are_rejected():
    with pytest.raises(ValueError):
        SessionConfig(workers=0)
    with pytest.raises(ValueError):
        SessionConfig(worker_backend="carrier-pigeon")


def test_single_cache_miss_skips_the_pool(micro_repo):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=UNSHARED.replace(workers=4),
    )
    session.solve(["example", "example", "example"])  # one distinct spec
    assert session.stats.parallel_solves == 0  # solved inline, no pool
    assert session.stats.delta_groundings == 1
    assert session.stats.solve_cache_hits == 2


def test_concurrent_parallel_sessions_do_not_cross_wires(micro_repo):
    """Two sessions fanning out at the same time must each answer their own
    batch (the worker-state registry is keyed per batch, not a global)."""
    clear_shared_bases()
    batches = [
        ["example@1.0.0", "example@1.0.0+bzip", "example@1.0.0~bzip"],
        ["example@1.1.0", "example@1.1.0+bzip", "example@1.1.0~bzip"],
    ]
    outcomes = [None, None]

    def run(slot):
        session = ConcretizationSession(
            repo=micro_repo,
            session_config=UNSHARED.replace(workers=2, worker_backend="thread"),
        )
        outcomes[slot] = session.solve(batches[slot])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for slot, batch in enumerate(batches):
        versions = [str(r.spec.versions) for r in outcomes[slot]]
        expected = "1.0.0" if slot == 0 else "1.1.0"
        assert versions == [expected] * len(batch)


def test_thread_workers_race_for_one_completion_template(micro_repo):
    """More concurrent single-spec requests than CPUs, switching threads
    every microsecond, solve distinct specs over one grounded base on an
    async session's executor threads.  This is the service's path, where
    nothing builds the completion template ahead of the solves: the first
    solve builds it while the others wait for it under the base's lock,
    every result matches sequential solving, and the template is built
    exactly once."""
    workers = min((os.cpu_count() or 1) + 2, 24)
    specs = [
        f"example@{version}{bzip} ^zlib@{zlib}{pic}"
        for version, bzip, zlib, pic in itertools.product(
            ("1.0.0", "1.1.0"), ("+bzip", "~bzip"), ("1.3", "1.2.11", "1.2.8"), ("+pic", "~pic")
        )
    ][:workers]
    clear_shared_bases()
    sequential = ConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(share_ground_cache=False)
    )
    expected = [signature(r) for r in sequential.solve(specs)]

    clear_shared_bases()
    session = AsyncConcretizationSession(
        repo=micro_repo,
        session_config=SessionConfig(share_ground_cache=False, worker_backend="thread"),
        max_concurrency=workers,
    )

    async def solve_concurrently():
        async with session:
            return await asyncio.gather(*(session.concretize(spec) for spec in specs))

    outcome = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        runner = threading.Thread(
            target=lambda: outcome.update(results=asyncio.run(solve_concurrently())),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=300)
        elapsed = time.monotonic() - started
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), f"solver threads still running after {elapsed:.0f} s"
    assert [signature(r) for r in outcome["results"]] == expected
    assert session.stats.delta_groundings == len(specs)
    assert session.statistics()["base"]["template_builds"] == 1
