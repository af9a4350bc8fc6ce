"""Async concretization sessions: identity, streaming, cancellation, races.

The contract under test:

* ``await AsyncConcretizationSession(...).concretize_batch(specs)`` is
  element-wise identical to the sequential session, in input order;
* ``as_completed()`` streams every ``(input index, result)`` pair exactly
  once, cache hits first, and the union matches the sequential results;
* solves in flight are bounded by the session-wide semaphore
  (``SessionConfig.max_concurrency``), and reach that bound;
* cancelling a consumer mid-stream returns its permits and leaves the
  session (and the event loop) fully usable — no hung tasks; solver errors
  propagate;
* concurrent solves on one grounded base build its completion template
  once, under the base's lock;
* a call cancelled while its base is being ground leaves that grounding to
  finish under the session's ground lock: the next call reuses the base
  instead of grounding it again beside it.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import sys
import threading
import time
from contextlib import aclosing

import pytest

from repro.spack.concretize import (
    AsyncConcretizationSession,
    ConcretizationSession,
    SessionConfig,
)
from repro.spack.concretize.session import _GroundedBase, clear_shared_bases
from repro.spack.errors import UnsatisfiableSpecError

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


def run(coro, timeout=120.0):
    """Drive one coroutine to completion with a hang guard."""

    async def guarded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(guarded())


@pytest.fixture()
def sequential_results(micro_repo):
    session = ConcretizationSession(repo=micro_repo)
    return [signature(r) for r in session.solve(BATCH)]


def make_async(micro_repo, max_concurrency=4):
    """An async session that grounds its own bases (empty process memo)."""
    clear_shared_bases()
    config = SessionConfig(max_concurrency=max_concurrency)
    return AsyncConcretizationSession(repo=micro_repo, session_config=config)


# ---------------------------------------------------------------------------
# Element-wise identity with the sequential session
# ---------------------------------------------------------------------------


def test_batch_identical_to_sequential(micro_repo, sequential_results):
    async def go():
        async with make_async(micro_repo) as session:
            return await session.concretize_batch(BATCH)

    results = run(go())
    assert [signature(r) for r in results] == sequential_results


def test_single_concretize_roundtrip(micro_repo):
    async def go():
        async with make_async(micro_repo) as session:
            first = await session.concretize("example@1.0.0")
            again = await session.concretize("example@1.0.0")
            return first, again, session.stats.as_dict()

    first, again, stats = run(go())
    assert str(first.spec.versions) == "1.0.0"
    assert signature(first) == signature(again)
    assert stats["solve_cache_hits"] == 1  # the repeat never solved again
    assert stats["delta_groundings"] == 1


def test_as_completed_streams_every_index_once(micro_repo, sequential_results):
    async def go():
        async with make_async(micro_repo) as session:
            pairs = []
            async for index, result in session.as_completed(BATCH):
                pairs.append((index, signature(result)))
            return pairs

    pairs = run(go())
    assert sorted(index for index, _ in pairs) == list(range(len(BATCH)))
    by_index = dict(pairs)
    assert [by_index[i] for i in range(len(BATCH))] == sequential_results


def test_as_completed_yields_cache_hits_first(micro_repo):
    async def go():
        async with make_async(micro_repo) as session:
            await session.concretize("example")  # warm exactly one spec
            order = []
            async for index, _ in session.as_completed(
                ["example+bzip", "example", "example~bzip"]
            ):
                order.append(index)
            return order

    order = run(go())
    # the warm spec (index 1) streams out before any freshly solved result
    assert order[0] == 1


def test_in_batch_duplicates_never_lease_a_worker(micro_repo):
    async def go():
        async with make_async(micro_repo) as session:
            await session.concretize_batch(BATCH)
            return session.stats.as_dict()

    stats = run(go())
    assert stats["delta_groundings"] == 6  # distinct specs only
    assert stats["solve_cache_hits"] == 2  # the two in-batch repeats
    assert stats["solve_cache_misses"] == 6
    assert stats["specs_solved"] == len(BATCH)
    assert stats["base_groundings"] == 1  # grounded once, under the ground lock


def test_semaphore_bounds_inflight_solves(micro_repo, sequential_results, monkeypatch):
    """The permit is the only bound on solves in flight: a batch of six
    distinct misses runs exactly ``max_concurrency`` solves at its peak."""
    original = ConcretizationSession._solve_uncached
    lock = threading.Lock()
    inflight = [0]
    peak = [0]

    def counted(self, spec, base):
        with lock:
            inflight[0] += 1
            peak[0] = max(peak[0], inflight[0])
        try:
            time.sleep(0.05)
            return original(self, spec, base)
        finally:
            with lock:
                inflight[0] -= 1

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", counted)

    async def go(max_concurrency):
        async with make_async(micro_repo, max_concurrency=max_concurrency) as session:
            results = await session.concretize_batch(BATCH)
            return [signature(r) for r in results]

    for max_concurrency in (1, 2):
        peak[0] = 0
        assert run(go(max_concurrency)) == sequential_results
        assert peak[0] == max_concurrency


def test_concurrent_batches_share_one_session(micro_repo):
    """Two overlapping concretize_batch calls on one session must both see
    correct results (the semaphore and the ground lock are session-wide)."""

    async def go():
        async with make_async(micro_repo, max_concurrency=2) as session:
            lo = session.concretize_batch(["example@1.0.0", "example@1.0.0+bzip"])
            hi = session.concretize_batch(["example@1.1.0", "example@1.1.0+bzip"])
            results_lo, results_hi = await asyncio.gather(lo, hi)
            return (
                [str(r.spec.versions) for r in results_lo],
                [str(r.spec.versions) for r in results_hi],
            )

    versions_lo, versions_hi = run(go())
    assert versions_lo == ["1.0.0", "1.0.0"]
    assert versions_hi == ["1.1.0", "1.1.0"]


def test_thread_workers_race_for_one_completion_template(micro_repo):
    """More concurrent single-spec requests than CPUs, switching threads
    every microsecond, solve distinct specs over one grounded base on the
    session's solver threads.  Nothing builds the completion template ahead
    of the solves: the first solve builds it while the others wait for it
    under the base's lock, every result matches sequential solving, and the
    template is built exactly once."""
    workers = min((os.cpu_count() or 1) + 2, 24)
    specs = [
        f"example@{version}{bzip} ^zlib@{zlib}{pic}"
        for version, bzip, zlib, pic in itertools.product(
            ("1.0.0", "1.1.0"), ("+bzip", "~bzip"), ("1.3", "1.2.11", "1.2.8"), ("+pic", "~pic")
        )
    ][:workers]
    sequential = ConcretizationSession(repo=micro_repo)
    expected = [signature(r) for r in sequential.solve(specs)]

    session = make_async(micro_repo, max_concurrency=workers)

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


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def test_cancel_mid_stream_returns_workers_and_stays_usable(micro_repo):
    async def go():
        async with make_async(micro_repo, max_concurrency=2) as session:
            got = []

            async def consume():
                async for index, result in session.as_completed(BATCH):
                    got.append(index)

            task = asyncio.ensure_future(consume())
            # let some work start, then cancel the consumer outright
            while not got:
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # the permits were returned: a fresh solve completes promptly
            result = await session.concretize("example@1.0.0")
            return got, str(result.spec.versions)

    got, version = run(go(), timeout=60)
    assert got  # at least one result streamed before the cancel
    assert version == "1.0.0"


def test_closing_the_generator_early_cleans_up(micro_repo):
    async def go():
        async with make_async(micro_repo, max_concurrency=2) as session:
            agen = session.as_completed(BATCH)
            index, result = await agen.__anext__()
            await agen.aclose()
            # the loop is live and the session still answers
            follow_up = await session.concretize("example")
            return index, signature(result), follow_up

    index, _sig, follow_up = run(go(), timeout=60)
    assert 0 <= index < len(BATCH)
    assert follow_up.spec.name == "example"


def test_deadline_cancelled_batch_restores_full_concurrency(micro_repo, monkeypatch):
    """The service deadline path: ``asyncio.wait_for`` cancels a
    ``concretize_batch`` mid-flight.  The batch must close its stream on the
    way out — every leased semaphore permit back *immediately* (not at GC
    time), so the next batch on the same session gets full concurrency."""
    original = ConcretizationSession._solve_uncached
    slow = [True]

    def maybe_slow(self, spec, base):
        if slow[0]:
            time.sleep(0.5)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", maybe_slow)

    async def go():
        async with make_async(micro_repo, max_concurrency=2) as session:
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(session.concretize_batch(BATCH), timeout=0.15)
            # deterministic cleanup: all permits are already back
            assert session._semaphore._value == session.max_concurrency
            slow[0] = False
            results = await session.concretize_batch(["example@1.0.0"])
            return [str(r.spec.versions) for r in results]

    assert run(go(), timeout=60) == ["1.0.0"]


def test_cancelled_grounding_is_not_repeated_beside_itself(micro_repo, monkeypatch):
    """A deadline fires while the first call's base is being ground.  The
    grounding goes on, on its solver thread, and keeps the session's ground
    lock until it ends, so the next call of the same family waits for it
    and reuses the base instead of grounding a second copy beside it."""
    original = _GroundedBase.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.5)
        original(self, *args, **kwargs)

    monkeypatch.setattr(_GroundedBase, "__init__", slow_init)

    async def go():
        async with make_async(micro_repo, max_concurrency=2) as session:
            started = time.perf_counter()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(session.concretize("example"), 0.1)
            waited = time.perf_counter() - started
            result = await session.concretize("example+bzip")
            return waited, result, session.stats

    waited, result, stats = run(go(), timeout=60)
    assert waited < 0.3  # the deadline fired on time
    assert result.spec.variants["bzip"] == "true"
    assert stats.base_groundings == 1
    assert stats.base_cache_hits == 1


def test_abandoned_stream_with_aclosing_restores_full_concurrency(micro_repo):
    """Breaking out of an ``async for`` abandons the generator mid-batch;
    the ``aclosing`` discipline (what the service uses) must cancel the
    in-flight tasks and return every leased permit before continuing."""

    async def go():
        async with make_async(micro_repo, max_concurrency=2) as session:
            seen = []
            async with aclosing(session.as_completed(BATCH)) as stream:
                async for index, _result in stream:
                    seen.append(index)
                    break  # abandon with most of the batch still in flight
            assert session._semaphore._value == session.max_concurrency
            # a follow-up batch runs at full concurrency and full correctness
            results = await session.concretize_batch(["example@1.0.0", "example@1.1.0"])
            return seen, [str(r.spec.versions) for r in results]

    seen, versions = run(go(), timeout=60)
    assert len(seen) == 1
    assert versions == ["1.0.0", "1.1.0"]


# ---------------------------------------------------------------------------
# Failure behavior
# ---------------------------------------------------------------------------


def test_solver_errors_propagate(micro_repo):
    async def go():
        async with make_async(micro_repo) as session:
            await session.concretize_batch(["example", "example %intel"])

    with pytest.raises(UnsatisfiableSpecError):
        run(go())


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_invalid_construction_is_rejected(micro_repo):
    with pytest.raises(ValueError):
        AsyncConcretizationSession(
            session=ConcretizationSession(repo=micro_repo), reuse=True
        )
    with pytest.raises(ValueError):
        AsyncConcretizationSession(
            repo=micro_repo, session_config=SessionConfig(max_concurrency=0)
        )


def test_wraps_an_existing_session(micro_repo):
    sync_session = ConcretizationSession(repo=micro_repo)
    sync_results = [signature(r) for r in sync_session.solve(["example"])]

    async def go():
        async with AsyncConcretizationSession(session=sync_session) as session:
            result = await session.concretize("example")
            return signature(result), session.stats.as_dict()

    sig, stats = run(go())
    assert [sig] == sync_results
    # the wrapped session's cache answered: no second grounding or solve
    assert stats["solve_cache_hits"] == 1
    assert stats["delta_groundings"] == 1
