"""Async concretization sessions: ``await``-able solves over the worker pool.

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

The execution model reuses the worker-pool fan-out underneath the sync
session, layer by layer:

* the cache pass runs on the event loop: hits (and in-batch duplicates)
  yield immediately and never lease a worker;
* the shared grounded base is built once per spec family in a helper thread
  (serialized, so concurrent calls cannot race the session's base memo)
  *before* any worker starts, and so is its completion template when the
  call fans out — forked process workers inherit both for free;
* every cache-missing spec is solved by
  :func:`~repro.spack.concretize.session._worker_solve` on a per-call
  executor (fork-based processes where available, threads otherwise), with a
  session-wide :class:`asyncio.Semaphore` bounding in-flight solves across
  *all* concurrent calls (``max_concurrency``);
* cancelling an ``as_completed`` consumer (or a ``concretize_batch`` task)
  cancels the not-yet-started pool futures, returns the leased workers, and
  shuts the executor down — the event loop never hangs on abandoned work;
* a worker process that dies mid-solve (:class:`BrokenProcessPool`) degrades
  that call to sequential solving on a fallback thread instead of failing the
  batch, mirroring the sync session's degradation contract.  Solver errors
  (e.g. an unsatisfiable spec) are *not* degradation: they propagate to the
  awaiter exactly like the sequential path raises them.

Results, statistics, and caches are those of the wrapped sync session — an
async session over the same inputs is element-wise identical to
``ConcretizationSession.solve``, and mixing sync and async use of one
session is safe (the cache layers in :mod:`repro.spack.store` are
lock-protected).
"""

from __future__ import annotations

import asyncio
import multiprocessing
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import AsyncIterator, List, Optional, Sequence, Tuple, Union

from repro.spack.concretize.concretizer import ConcretizationResult, UnsatOutcome
from repro.spack.concretize.session import (
    _WORKER_BATCHES,
    _WORKER_BATCH_IDS,
    ConcretizationSession,
    SessionStatistics,
    _worker_solve,
    default_worker_count,
)
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.spec import Spec


class AsyncConcretizationSession:
    """An ``asyncio`` front-end over a :class:`ConcretizationSession`.

    Construct it either around an existing session (``AsyncConcretizationSession(
    session=sync_session)``) or with the same arguments as
    :class:`ConcretizationSession` (they are forwarded verbatim — including
    ``session_config=``, a
    :class:`~repro.spack.concretize.config.SessionConfig`).  Additional
    knobs:

    * ``max_concurrency`` — the semaphore bound on simultaneously leased
      workers across *all* concurrent calls on this session.  Defaults to
      ``session_config.max_concurrency`` when set, else the wrapped
      session's ``workers`` when that is > 1, else the scheduler-visible
      CPU count (:func:`default_worker_count`).

    Use it as an async context manager (``async with``) or call
    :meth:`aclose` when done to release the fallback thread pool.
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
            max_concurrency = (
                self.session.workers
                if self.session.workers > 1
                else default_worker_count()
            )
        if int(max_concurrency) < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency!r}")
        self.max_concurrency = int(max_concurrency)
        # loop-bound primitives, created lazily inside the running loop (one
        # session object may serve several sequential asyncio.run loops)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._ground_lock: Optional[asyncio.Lock] = None
        self._fallback: Optional[ThreadPoolExecutor] = None

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
        """Release the fallback thread pool (leased pool workers are per-call
        and already returned by then)."""
        if self._fallback is not None:
            self._fallback.shutdown(wait=False, cancel_futures=True)
            self._fallback = None

    def _primitives(self) -> Tuple[asyncio.Semaphore, asyncio.Lock]:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
            self._ground_lock = asyncio.Lock()
        return self._semaphore, self._ground_lock

    def _fallback_pool(self) -> ThreadPoolExecutor:
        """The helper thread pool (base grounding, degraded solves)."""
        if self._fallback is None:
            self._fallback = ThreadPoolExecutor(
                max_workers=self.max_concurrency, thread_name_prefix="repro-async"
            )
        return self._fallback

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
        service deadline firing via ``asyncio.wait_for``) — so leased
        semaphore permits and in-flight executor futures are released
        deterministically, not whenever the garbage collector notices the
        abandoned generator.
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

        Cache hits and in-batch duplicates yield first (they never lease a
        worker); each remaining distinct spec is delta-ground + solved on the
        pool and yielded the moment it finishes, so the first result arrives
        in roughly one solve's latency regardless of the batch size.  The
        union of yielded pairs is element-wise identical to the sequential
        session's ``solve``.

        Cancelling the consuming task (or closing the generator early)
        cancels pending pool futures and returns the leased workers; a solver
        error propagates to the consumer after the same cleanup.
        """
        session = self.session
        semaphore, ground_lock = self._primitives()
        loop = asyncio.get_running_loop()
        abstract = session._as_specs(specs)

        # Unsat parity with the sync paths: failed specs are collected (and
        # their outcomes cached) rather than aborting the stream mid-batch;
        # after every satisfiable result has been yielded, the failure with
        # the earliest *input* index is raised — the same exception, with the
        # same explanation, the sequential session would have raised first.
        failures: List[Tuple[int, UnsatisfiableSpecError]] = []

        def raise_earliest():
            failures.sort(key=lambda pair: pair[0])
            raise failures[0][1]

        # -- cache pass (event-loop thread, like the parent in _solve_parallel)
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

        keys = list(pending.keys())
        unique = [abstract[indices[0]] for indices in pending.values()]

        # -- pre-ground the shared bases off-loop, serialized, before fan-out
        families = {session._base_key([spec]) for spec in unique}
        demand_token = next(_WORKER_BATCH_IDS)
        session._base_demands[demand_token] = len(families)
        try:
            async with ground_lock:
                for spec in unique:
                    base = await loop.run_in_executor(
                        self._fallback_pool(), session._base_for, [spec]
                    )
                    if len(unique) > 1:
                        # a fan-out completes the base first too, so forked
                        # workers inherit the template instead of each
                        # building their own; a single miss builds it in its
                        # solve, under the base's lock
                        await loop.run_in_executor(
                            self._fallback_pool(), base.prepared.build_template
                        )

            async def finish(unique_index: int, concretization: ConcretizationResult):
                """Cache bookkeeping for one solved spec (event-loop thread)."""
                session.stats.delta_groundings += 1
                pristine = session._copy_result(concretization)
                session.solve_cache.put(keys[unique_index], pristine)
                indices = pending[keys[unique_index]]
                replays = [
                    (duplicate, session._replay(pristine))
                    for duplicate in indices[1:]
                ]
                return [(indices[0], concretization)] + replays

            if len(unique) == 1:
                # a single miss gains nothing from a pool; solve it on the
                # fallback thread so the loop stays responsive.  worker=True:
                # off-loop solves must not mutate the session's base memo or
                # statistics (a concurrent call may be doing the same)
                async with semaphore:
                    try:
                        concretization = await loop.run_in_executor(
                            self._fallback_pool(),
                            lambda: session._solve_uncached(unique[0], worker=True),
                        )
                    except UnsatisfiableSpecError as error:
                        session.stats.delta_groundings += 1
                        session.solve_cache.put(keys[0], UnsatOutcome.from_error(error))
                        failures.append((pending[keys[0]][0], error))
                        concretization = None
                if concretization is not None:
                    for pair in await finish(0, concretization):
                        yield pair
                if failures:
                    raise_earliest()
                return

            # -- fan out: one executor per call, workers leased under the
            #    session-wide semaphore
            batch_token = next(_WORKER_BATCH_IDS)
            _WORKER_BATCHES[batch_token] = (session, list(unique))
            backend = session._resolve_backend()
            executor = self._make_executor(backend, len(unique))
            tasks = [
                asyncio.ensure_future(
                    self._solve_on_pool(executor, backend, batch_token, i, unique[i])
                )
                for i in range(len(unique))
            ]
            try:
                for completed in asyncio.as_completed(tasks):
                    unique_index, outcome = await completed
                    if isinstance(outcome, UnsatisfiableSpecError):
                        session.stats.delta_groundings += 1
                        session.solve_cache.put(
                            keys[unique_index], UnsatOutcome.from_error(outcome)
                        )
                        failures.append((pending[keys[unique_index]][0], outcome))
                        continue
                    for pair in await finish(unique_index, outcome):
                        yield pair
            finally:
                # cancellation/error path: return leased workers cleanly.
                # Pending pool futures are cancelled; running solves finish
                # in the (non-blocking) executor shutdown and their workers
                # exit — the event loop never waits on them.
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                if executor is not None:
                    executor.shutdown(wait=False, cancel_futures=True)
                _WORKER_BATCHES.pop(batch_token, None)
            if failures:
                raise_earliest()
        finally:
            session._base_demands.pop(demand_token, None)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------

    def _make_executor(self, backend: str, size: int) -> Optional[Executor]:
        """A per-call executor, or None to run everything on the fallback
        threads (pool infrastructure failures degrade, never fail)."""
        workers = min(self.max_concurrency, size)
        try:
            if backend == "process":
                context = multiprocessing.get_context("fork")
                return ProcessPoolExecutor(max_workers=workers, mp_context=context)
            return ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-async-pool"
            )
        except (OSError, ValueError, RuntimeError):
            return None

    async def _solve_on_pool(
        self,
        executor: Optional[Executor],
        backend: str,
        batch_token: int,
        index: int,
        spec: Spec,
    ) -> Tuple[int, Union[ConcretizationResult, UnsatisfiableSpecError]]:
        """Solve one cache-missing spec under the concurrency semaphore.

        Pool path first; a broken pool (a worker process died, or the
        executor could not start) degrades *this* solve to the fallback
        thread — results stay element-wise identical, the event loop stays
        live.  An unsatisfiable spec is a per-spec *outcome*, not a pool
        failure: its error (explanation intact across process pickling) is
        returned in the spec's slot for the consumer to cache and raise.
        """
        semaphore, _ = self._primitives()
        loop = asyncio.get_running_loop()
        async with semaphore:
            if executor is not None:
                try:
                    pool_future = executor.submit(_worker_solve, batch_token, index)
                except RuntimeError:
                    pool_future = None  # executor already shut down: degrade
                if pool_future is not None:
                    try:
                        result = await asyncio.wrap_future(pool_future)
                    except BrokenProcessPool:
                        pass  # worker died mid-solve: degrade to sequential
                    except UnsatisfiableSpecError as error:
                        self.session.stats.parallel_solves += 1
                        return index, error
                    except asyncio.CancelledError:
                        pool_future.cancel()  # return the leased worker
                        raise
                    else:
                        self.session.stats.parallel_solves += 1
                        session_stats = result.statistics.get("session")
                        if isinstance(session_stats, dict):
                            session_stats["parallel_backend"] = backend
                            session_stats["async"] = True
                        return index, result
            # worker=True: several degraded solves may run on fallback
            # threads at once, and only the worker path is guaranteed not to
            # mutate shared session state (base LRU, statistics)
            try:
                result = await loop.run_in_executor(
                    self._fallback_pool(),
                    lambda: self.session._solve_uncached(spec, worker=True),
                )
            except UnsatisfiableSpecError as error:
                return index, error
            session_stats = result.statistics.get("session")
            if isinstance(session_stats, dict):
                session_stats["async"] = True
            return index, result
