#!/usr/bin/env python3
"""Async concretization sessions and multi-catalog composition, step by step.

This walks the two features together (see ``docs/ARCHITECTURE.md``):

1. an **async session** (:class:`repro.spack.concretize.async_session.AsyncConcretizationSession`)
   wraps a session in ``asyncio``: ``await session.concretize(spec)`` for
   single requests, and ``as_completed()`` to *stream* a batch — each
   result is yielded the moment its solve finishes on the session's solver
   threads, so the first answer arrives long before the slowest one, with
   a semaphore bounding how many solves run at once;
2. a **composed catalog** (``ShardedRepository.compose(user_repo,
   builtin_repo)``) stacks a user repository's shards *after* the builtin
   ones, so one session serves both catalogs and editing a user package
   re-grounds exactly one base layer.

Run with::

    PYTHONPATH=src python examples/async_session.py
"""

import asyncio
import time

from repro.spack.concretize import AsyncConcretizationSession, SessionConfig
from repro.spack.directives import depends_on, version
from repro.spack.package import Package
from repro.spack.repo import Repository, ShardedRepository, builtin_repository


class Mytool(Package):
    """A user-defined package consuming builtin packages and virtuals."""

    version("2.0")
    version("1.0")
    depends_on("zlib@1.2.8:")
    depends_on("hdf5~mpi")


#: Overlapping requests, the service shape: builtin roots and the user's own
#: package, with one exact repeat that is never solved twice.
REQUESTS = [
    "mytool",
    "zlib",
    "zlib+pic",
    "hdf5~mpi",
    "mytool@1.0",
    "zlib",  # exact repeat: answered from the solve cache immediately
]


async def main():
    # ------------------------------------------------------------------
    # Act 1: compose the user catalog behind the builtin one.  User shards
    # layer *after* builtin shards, so the builtin ground layers are shared
    # with every other session and editing mytool re-grounds one layer.
    # ------------------------------------------------------------------
    user_repo = Repository(name="user", packages=[Mytool])
    composed = ShardedRepository.compose(user_repo, builtin_repository())
    print(f"composed catalog: {composed!r}")
    print(f"layer order:      {[shard.name for shard in composed.layering_shards()]}\n")

    # ------------------------------------------------------------------
    # Act 2: stream a batch.  as_completed() yields (input index, result)
    # pairs in *completion* order: cache hits first, then each solve the
    # moment it finishes.
    # ------------------------------------------------------------------
    config = SessionConfig(max_concurrency=4)
    async with AsyncConcretizationSession(repo=composed, session_config=config) as session:
        start = time.perf_counter()
        async for index, result in session.as_completed(REQUESTS):
            elapsed = time.perf_counter() - start
            cache = result.statistics["session"]["solve_cache"]
            print(f"[{elapsed:6.2f}s] #{index} {REQUESTS[index]!r:24s} "
                  f"-> {result.spec}  [solve cache: {cache}]")

        # --------------------------------------------------------------
        # Act 3: single awaited requests go through the same caches — a
        # repeated spec replays without touching the grounder or solver.
        # --------------------------------------------------------------
        result = await session.concretize("mytool")
        print(f"\nawait concretize('mytool') -> {result.spec}")

        print("\nasync session statistics:")
        for key, value in session.stats.as_dict().items():
            print(f"    {key:22s} {value}")


if __name__ == "__main__":
    asyncio.run(main())
