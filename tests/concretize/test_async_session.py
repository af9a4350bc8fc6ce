"""Concretizing from ``asyncio`` code, the way 5.0.0 tells the callers of the
deleted ``AsyncConcretizationSession`` to: ``await
asyncio.to_thread(session.concretize, spec)`` (or ``session.solve``) on a
:class:`ConcretizationSession`, or a :class:`ConcretizationService` request
run the same way.

The contract under test:

* solves awaited at once on one shared session, each on its own thread,
  are element-wise identical to the sequential session, in input order,
  and the session's counters add up; a repeat is a cache hit; a solver
  error reaches the awaiting coroutine;
* a service stream pulled record by record from an event loop, on
  whichever executor thread is free, yields every input index once;
  closing it early, or cancelling its consumer, gives the request's
  admission slot back, and the service and the loop go on answering;
* a service deadline met by an awaiting coroutine cancels the solves not
  yet started, and the next ``max_concurrency`` requests are admitted and
  solve side by side.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.spack.concretize import ConcretizationSession
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.service import DeadlineExceededError
from tests.service.test_service import BATCH, FAMILY, SolveProbe, make_service


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


async def pull(stream, take):
    """Drain a service stream from the event loop, one executor hop a
    record, calling ``take`` on each.  A generator cannot be closed while another thread runs
    it, so however the consumer ends, the record being fetched is let
    arrive before the stream is closed."""
    fetch = None
    try:
        while True:
            fetch = asyncio.ensure_future(asyncio.to_thread(next, stream, None))
            record = await asyncio.shield(fetch)
            if record is None:
                return
            take(record)
    finally:
        if fetch is not None:
            await asyncio.wait([fetch])
        stream.close()


@pytest.fixture()
def sequential_results(micro_repo):
    session = ConcretizationSession(repo=micro_repo)
    return [signature(r) for r in session.solve(BATCH)]


def make_session(micro_repo):
    """A session that grounds its own bases (empty process memo)."""
    clear_shared_bases()
    return ConcretizationSession(repo=micro_repo)


# ---------------------------------------------------------------------------
# A session awaited through asyncio.to_thread
# ---------------------------------------------------------------------------


def test_batch_identical_to_sequential(micro_repo, sequential_results):
    session = make_session(micro_repo)

    async def go():
        return await asyncio.gather(
            *(asyncio.to_thread(session.concretize, spec) for spec in BATCH)
        )

    results = run(go())
    assert [signature(r) for r in results] == sequential_results
    stats = session.stats
    assert stats.specs_solved == len(BATCH)
    assert stats.solve_cache_hits + stats.solve_cache_misses == len(BATCH)
    assert stats.delta_groundings == stats.solve_cache_misses
    assert stats.base_groundings == 1  # grounded once, under the ground lock


def test_single_concretize_roundtrip(micro_repo):
    session = make_session(micro_repo)

    async def go():
        first = await asyncio.to_thread(session.concretize, "example@1.0.0")
        again = await asyncio.to_thread(session.concretize, "example@1.0.0")
        return first, again

    first, again = run(go())
    assert str(first.spec.versions) == "1.0.0"
    assert signature(first) == signature(again)
    assert session.stats.solve_cache_hits == 1  # the repeat never solved again
    assert session.stats.delta_groundings == 1


def test_solver_errors_propagate(micro_repo):
    session = make_session(micro_repo)
    with pytest.raises(UnsatisfiableSpecError):
        run(asyncio.to_thread(session.solve, ["example", "example %intel"]))


# ---------------------------------------------------------------------------
# A service stream pulled from an event loop
# ---------------------------------------------------------------------------


def test_as_completed_streams_every_index_once(micro_repo, sequential_results):
    records = []
    with make_service(micro_repo) as service:
        run(pull(service.stream_batch(BATCH), records.append))
        assert service.counters["in_flight"] == 0
    assert records[-1] == {"status": "ok", "results": len(BATCH)}
    assert sorted(record["index"] for record in records[:-1]) == list(range(len(BATCH)))
    by_index = {record["index"]: record["concrete"] for record in records[:-1]}
    assert [by_index[i] for i in range(len(BATCH))] == [
        concrete for concrete, *_ in sequential_results
    ]


def test_closing_the_generator_early_cleans_up(micro_repo):
    """A stream started on an executor thread and closed on the loop's
    thread still runs its cleanup: the slot is back, the service answers."""
    with make_service(micro_repo, queue_limit=0) as service:

        async def go():
            stream = service.stream_batch(BATCH)
            first = await asyncio.to_thread(next, stream)
            stream.close()
            in_flight = service.counters["in_flight"]
            follow_up = await asyncio.to_thread(service.concretize, "example")
            return first, in_flight, follow_up

        first, in_flight, follow_up = run(go(), timeout=60)
    assert 0 <= first["index"] < len(BATCH)
    assert in_flight == 0
    assert follow_up["concrete"].startswith("example")


def test_cancel_mid_stream_returns_workers_and_stays_usable(micro_repo, monkeypatch):
    """The coroutine draining a stream is cancelled mid-batch.  Its cleanup
    closes the stream: the admission slot comes back, the solves not yet
    started never run, and the loop and the service answer the next
    request."""
    specs = FAMILY[:6]
    with make_service(micro_repo, queue_limit=0) as service:
        service.concretize("example")  # ground the base and build its template
        probe = SolveProbe(monkeypatch, delay=0.3)

        async def go():
            got = []
            arrived = asyncio.Event()

            def take(record):
                got.append(record)
                arrived.set()

            consumer = asyncio.ensure_future(pull(service.stream_batch(specs), take))
            await arrived.wait()  # cancel while the first solves' threads are busy
            consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await consumer
            in_flight = service.counters["in_flight"]
            await asyncio.to_thread(probe.settle, 1)
            started = probe.started
            follow_up = await asyncio.to_thread(service.concretize, "example@1.0.0")
            return got, in_flight, started, follow_up

        got, in_flight, started, follow_up = run(go(), timeout=60)
    assert got  # at least one result streamed before the cancel
    assert in_flight == 0
    assert started < len(specs)  # the rest of the batch never ran
    assert follow_up["concrete"].startswith("example @1.0.0")


def test_deadline_cancelled_batch_restores_full_concurrency(micro_repo, monkeypatch):
    """The deadline of a batch awaited from an event loop fires while both
    solver threads are busy.  The coroutine gets the 504 error, the solves
    not yet started never run, and once the running ones end, as many
    requests as there are solver threads are admitted at once (the queue
    is 0) and solve side by side."""
    with make_service(micro_repo, queue_limit=0) as service:
        service.concretize("example")  # ground the base and build its template
        probe = SolveProbe(monkeypatch, delay=0.5)

        async def go():
            with pytest.raises(DeadlineExceededError):
                await asyncio.to_thread(
                    service.concretize_batch, FAMILY[:6], deadline_s=0.15
                )
            in_flight = service.counters["in_flight"]
            await asyncio.to_thread(probe.settle, service.max_concurrency)
            await asyncio.sleep(0.2)
            started = probe.started
            probe.delay, probe.peak = 0.1, 0
            results = await asyncio.gather(
                *(
                    asyncio.to_thread(service.concretize, spec, deadline_s=30)
                    for spec in FAMILY[6 : 6 + service.max_concurrency]
                )
            )
            return in_flight, started, results

        in_flight, started, results = run(go(), timeout=60)
        assert in_flight == 0
        assert started == service.max_concurrency  # the other four never ran
        assert [r["concrete"].split()[1] for r in results] == ["@1.0.0", "@1.0.0"]
        assert probe.peak == service.max_concurrency
