"""Async concretization sessions: ``await``-able solves on solver threads.

A batch :class:`~repro.spack.concretize.session.ConcretizationSession` is a
*blocking* API: ``solve(specs)`` returns when the whole batch is done.  A
service concretizing on behalf of many users needs the opposite shape — it
wants to ``await`` individual requests, stream results out as they finish,
and cancel work whose requester went away, all without blocking the event
loop on a CPU-bound solver.  :class:`AsyncConcretizationSession` is that
front-end:

* ``await session.concretize(spec)`` — one spec through the session caches;
* ``await session.concretize_batch(specs)`` — a whole batch, input order,
  element-wise identical to the sequential session;
* ``async for index, result in session.as_completed(specs)`` — results stream
  back in *completion* order, each tagged with its input index, so the first
  answer is available long before the slowest solve finishes.

The execution model:

* the cache pass runs on the event loop: hits (and in-batch duplicates)
  yield immediately and never take a permit;
* every distinct cache miss becomes one task.  The task finds or grounds its
  spec family's shared base under a session-wide ground lock (so concurrent
  calls cannot race the session's base memo), then takes a permit of a
  session-wide :class:`asyncio.Semaphore` (``max_concurrency``) and runs
  :meth:`~repro.spack.concretize.session.ConcretizationSession._solve_uncached`
  on the session's one :class:`~concurrent.futures.ThreadPoolExecutor`.  The
  first solve on a base builds its completion template under the base's
  lock; the others wait for it;
* cancelling an ``as_completed`` consumer (or a ``concretize_batch`` task)
  cancels the tasks, which returns their permits and drops the solves that
  have not started — the event loop never hangs on abandoned work.  Solver
  errors (e.g. an unsatisfiable spec) propagate to the awaiter exactly like
  the sequential path raises them.

Solver threads share one interpreter lock, so they give a caller
streaming, cancellation and a responsive event loop rather than CPU
parallelism; for process parallelism run the service with ``--workers N``.
Results, statistics, and caches are those of the wrapped sync session — an
async session over the same inputs is element-wise identical to
``ConcretizationSession.solve``, and mixing sync and async use of one
session is safe (the cache layers in :mod:`repro.spack.store` are
lock-protected).
"""

from __future__ import annotations

import asyncio
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import AsyncIterator, List, Optional, Sequence, Tuple, Union

from repro.spack.concretize.concretizer import ConcretizationResult, UnsatOutcome
from repro.spack.concretize.session import ConcretizationSession, SessionStatistics
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.spec import Spec


def default_worker_count() -> int:
    """The scheduler-visible CPU count (the default ``max_concurrency``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


class AsyncConcretizationSession:
    """An ``asyncio`` front-end over a :class:`ConcretizationSession`.

    Construct it either around an existing session (``AsyncConcretizationSession(
    session=sync_session)``) or with the same arguments as
    :class:`ConcretizationSession` (they are forwarded verbatim — including
    ``session_config=``, a
    :class:`~repro.spack.concretize.config.SessionConfig`).  Additional
    knobs:

    * ``max_concurrency`` — the semaphore bound on simultaneous solves
      across *all* concurrent calls on this session, and the size of its
      solver thread pool.  Defaults to ``session_config.max_concurrency``
      when set, else the scheduler-visible CPU count
      (:func:`default_worker_count`).

    Use it as an async context manager (``async with``) or call
    :meth:`aclose` when done to release the solver threads.
    """

    def __init__(
        self,
        *args,
        session: Optional[ConcretizationSession] = None,
        max_concurrency: Optional[int] = None,
        **kwargs,
    ):
        if session is not None and (args or kwargs):
            raise ValueError(
                "pass either an existing session= or ConcretizationSession "
                "arguments, not both"
            )
        self.session = session if session is not None else ConcretizationSession(*args, **kwargs)
        if max_concurrency is None:
            max_concurrency = self.session.session_config.max_concurrency
        if max_concurrency is None:
            max_concurrency = default_worker_count()
        if int(max_concurrency) < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency!r}")
        self.max_concurrency = int(max_concurrency)
        # loop-bound primitives, created lazily inside the running loop (one
        # session object may serve several sequential asyncio.run loops)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._ground_lock: Optional[asyncio.Lock] = None
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------

    @property
    def stats(self) -> SessionStatistics:
        """The wrapped session's sharing counters."""
        return self.session.stats

    def statistics(self):
        return self.session.statistics()

    def content_hash(self) -> str:
        return self.session.content_hash()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "AsyncConcretizationSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Release the solver threads (solves not yet started are dropped)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _primitives(self) -> Tuple[asyncio.Semaphore, asyncio.Lock]:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
            self._ground_lock = asyncio.Lock()
        return self._semaphore, self._ground_lock

    def _solver_pool(self) -> ThreadPoolExecutor:
        """The session's solver threads (base grounding and solves)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.max_concurrency, thread_name_prefix="repro-async"
            )
        return self._pool

    # ------------------------------------------------------------------
    # Public solve API
    # ------------------------------------------------------------------

    async def concretize(self, spec: Union[str, Spec]) -> ConcretizationResult:
        """Concretize one abstract spec through the session caches."""
        results = await self.concretize_batch([spec])
        return results[0]

    async def concretize_batch(
        self, specs: Sequence[Union[str, Spec]]
    ) -> List[ConcretizationResult]:
        """Concretize every spec; results in *input* order.

        Element-wise identical to ``ConcretizationSession.solve(specs)`` —
        the work just runs off the event loop, bounded by
        ``max_concurrency``.

        The underlying :meth:`as_completed` stream is explicitly closed on
        *every* exit — including cancellation of the awaiting task (e.g. a
        service deadline firing via ``asyncio.wait_for``) — so semaphore
        permits and queued solves are released deterministically, not
        whenever the garbage collector notices the abandoned generator.
        """
        results: List[Optional[ConcretizationResult]] = [None] * len(specs)
        stream = self.as_completed(specs)
        try:
            async for index, result in stream:
                results[index] = result
        finally:
            await stream.aclose()
        return results

    async def as_completed(
        self, specs: Sequence[Union[str, Spec]]
    ) -> AsyncIterator[Tuple[int, ConcretizationResult]]:
        """Stream ``(input index, result)`` pairs in *completion* order.

        Cache hits and in-batch duplicates yield first (they never take a
        permit); each remaining distinct spec is delta-ground + solved on
        the solver threads and yielded the moment it finishes, so the first
        result arrives in roughly one solve's latency regardless of the
        batch size.  The union of yielded pairs is element-wise identical to
        the sequential session's ``solve``.

        Cancelling the consuming task (or closing the generator early)
        cancels the pending solves and returns their permits; a solver
        error propagates to the consumer after the same cleanup.
        """
        session = self.session
        semaphore, ground_lock = self._primitives()
        loop = asyncio.get_running_loop()
        abstract = session._as_specs(specs)

        # Unsat parity with the sync path: failed specs are collected (and
        # their outcomes cached) rather than aborting the stream mid-batch;
        # after every satisfiable result has been yielded, the failure with
        # the earliest *input* index is raised — the same exception, with the
        # same explanation, the sequential session would have raised first.
        failures: List[Tuple[int, UnsatisfiableSpecError]] = []

        def raise_earliest():
            failures.sort(key=lambda pair: pair[0])
            raise failures[0][1]

        # -- cache pass (event-loop thread)
        pending: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for index, spec in enumerate(abstract):
            session.stats.specs_solved += 1
            key = session._solve_key(spec)
            if key in pending:
                session.stats.solve_cache_hits += 1
                pending[key].append(index)
                continue
            cached = session.solve_cache.get(key)
            if cached is not None:
                session.stats.solve_cache_hits += 1
                if isinstance(cached, UnsatOutcome):
                    failures.append((index, cached.to_error()))
                    continue
                yield index, session._replay(cached)
                continue
            session.stats.solve_cache_misses += 1
            pending[key] = [index]
        if not pending:
            if failures:
                raise_earliest()
            return

        pool = self._solver_pool()

        async def solve(key: Tuple):
            """Ground (or find) the base under the ground lock, then solve
            on it under a permit; an unsat error is this spec's outcome."""
            spec = abstract[pending[key][0]]
            async with ground_lock:
                base = await loop.run_in_executor(pool, session._base_for, [spec])
            async with semaphore:
                try:
                    return key, await loop.run_in_executor(
                        pool, session._solve_uncached, spec, base
                    )
                except UnsatisfiableSpecError as error:
                    return key, error

        tasks = [asyncio.ensure_future(solve(key)) for key in pending]
        try:
            for completed in asyncio.as_completed(tasks):
                key, outcome = await completed
                session.stats.delta_groundings += 1
                indices = pending[key]
                if isinstance(outcome, UnsatisfiableSpecError):
                    session.solve_cache.put(key, UnsatOutcome.from_error(outcome))
                    failures.append((indices[0], outcome))
                    continue
                pristine = session._copy_result(outcome)
                session.solve_cache.put(key, pristine)
                yield indices[0], outcome
                for duplicate in indices[1:]:
                    yield duplicate, session._replay(pristine)
        finally:
            # cancellation/error path: cancelled tasks return their permits
            # and drop their queued solves; a solve already running finishes
            # on its thread, and the event loop never waits on it
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        if failures:
            raise_earliest()
