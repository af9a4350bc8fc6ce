#!/usr/bin/env python3
"""A persistent on-disk cache, step by step.

This mirrors :mod:`examples.batch_session` with a ``cache_dir`` (see
``docs/ARCHITECTURE.md`` and ``docs/CACHING.md``):

1. a **cold session** (``SessionConfig(cache_dir=...)``) grounds the shared
   spec-independent base once, solves each spec in input order, and writes
   every solved result (and the grounded base, as both a pickle and a
   ground snapshot) to disk;
2. a **warm session** — in a new process, hours later, or right away as
   here — pointed at the same directory replays the whole batch without a
   single grounding or solver call.

To solve on several CPUs, serve from several processes that share one
cache directory: ``python -m repro.spack.service --workers N --cache-dir
DIR``.

Run with::

    PYTHONPATH=src python examples/persistent_cache.py
"""

import tempfile

from repro.spack.concretize import ConcretizationSession, SessionConfig

#: Overlapping requests, the build-cache-population shape: same roots, many
#: versions/variants, one exact repeat.  All of them share one grounded base.
REQUESTS = [
    "zlib",
    "zlib+pic",
    "zlib~pic",
    "zlib@1.2.11",
    "bzip2",
    "bzip2~shared",
    "zlib+pic",  # exact repeat: answered from the solve cache, never solved
]


def main():
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        # ------------------------------------------------------------------
        # Act 1: a cold session. The shared base is grounded once, then each
        # cache-missing spec only delta-grounds and solves; every result and
        # the base are written through to cache_dir.
        # ------------------------------------------------------------------
        session = ConcretizationSession(session_config=SessionConfig(cache_dir=cache_dir))
        print(f"content hash: {session.content_hash()}")
        print(f"cache dir:    {cache_dir}\n")

        results = session.solve(REQUESTS)
        for request, result in zip(REQUESTS, results):
            cache = result.statistics["session"]["solve_cache"]
            print(f"{request!r}  [solve cache: {cache}]")
            for line in result.spec.tree().splitlines():
                print(f"    {line}")

        print("\ncold session statistics:")
        for key, value in session.stats.as_dict().items():
            print(f"    {key:20s} {value}")

        # ------------------------------------------------------------------
        # Act 2: a warm start. A brand-new session over the same cache_dir
        # (imagine a new process on the next CI run) replays every result
        # from disk: zero base groundings, zero delta groundings, zero
        # solver calls.
        # ------------------------------------------------------------------
        warm = ConcretizationSession(session_config=SessionConfig(cache_dir=cache_dir))
        warm_results = warm.solve(REQUESTS)
        assert [str(r.spec) for r in warm_results] == [str(r.spec) for r in results]

        print("\nwarm session statistics (second session, same cache dir):")
        for key, value in warm.stats.as_dict().items():
            print(f"    {key:20s} {value}")
        print("\nwarm solve cache:", warm.solve_cache.statistics())
        assert warm.stats.solve_cache_misses == 0, "warm start should never miss"
        assert warm.stats.delta_groundings == 0, "warm start should never ground"


if __name__ == "__main__":
    main()
