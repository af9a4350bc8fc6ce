#!/usr/bin/env python3
"""Benchmark: async concretization sessions — streaming first-result latency.

The acceptance scenario over the 16-spec overlapping workload
(``FAMILY_WORKLOAD_16``, the same batch the warm-start benchmark uses):

1. **Sequential baseline** — one ``ConcretizationSession.solve`` over the
   whole batch; its wall time is what a caller waits before seeing *any*
   result from a blocking API.
2. **Async streaming** — ``AsyncConcretizationSession.as_completed`` over
   the same batch: results are collected in completion order, the
   time-to-first-result is measured, and every result is asserted
   element-wise identical to the sequential baseline.

Assertions (both modes):

* the streamed results are element-wise identical to sequential solves;
* the first streamed result lands in **less than the full-batch wall time**
  — on both the async batch's own wall time and the sequential baseline's —
  which is the point of the streaming API: a service can start answering
  while the rest of the batch is still solving.

No absolute wall-clock floors are asserted (shared CI runners are too
noisy); the first-vs-total comparison is scale-free, so ``--quick`` (the CI
smoke) and the full run measure the same thing.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_async_session.py --quick
    PYTHONPATH=src python benchmarks/bench_async_session.py          # full
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, REPO_ROOT)

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import (  # noqa: E402
    FAMILY_WORKLOAD_16 as WORKLOAD,
    micro_repo,
    signature,
)
from repro.spack.concretize import (  # noqa: E402
    AsyncConcretizationSession,
    ConcretizationSession,
    SessionConfig,
)
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402

MAX_CONCURRENCY = 4


def sequential_baseline():
    clear_shared_bases()
    session = ConcretizationSession(
        repo=micro_repo(),
        session_config=SessionConfig(share_ground_cache=False),
    )
    start = time.perf_counter()
    results = session.solve(list(WORKLOAD))
    elapsed = time.perf_counter() - start
    return [signature(r) for r in results], elapsed


async def streamed():
    clear_shared_bases()
    async with AsyncConcretizationSession(
        repo=micro_repo(),
        session_config=SessionConfig(share_ground_cache=False),
        max_concurrency=MAX_CONCURRENCY,
    ) as session:
        results = [None] * len(WORKLOAD)
        start = time.perf_counter()
        first_latency = None
        async for index, result in session.as_completed(list(WORKLOAD)):
            if first_latency is None:
                first_latency = time.perf_counter() - start
            results[index] = signature(result)
        total = time.perf_counter() - start
        return results, first_latency, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke test (the same measurement)",
    )
    parser.parse_args(argv)

    reference, sequential_time = sequential_baseline()
    results, first_latency, total = asyncio.run(streamed())
    rows = [
        ("sequential solve(16) [s]", f"{sequential_time:.3f}"),
        ("async first result [s]", f"{first_latency:.3f}"),
        ("async full batch [s]", f"{total:.3f}"),
    ]
    failures = []
    if results != reference:
        failures.append("async streamed results diverge from sequential")
    if not first_latency < total:
        failures.append(
            f"async first result ({first_latency:.3f}s) did not beat its own "
            f"batch wall time ({total:.3f}s)"
        )
    if not first_latency < sequential_time:
        failures.append(
            f"async first result ({first_latency:.3f}s) did not beat the "
            f"sequential batch wall time ({sequential_time:.3f}s)"
        )

    record(
        "async_session",
        f"Async session streaming over {len(WORKLOAD)} overlapping specs "
        f"(max_concurrency={MAX_CONCURRENCY})",
        ["metric", "value"],
        rows,
    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            "\nOK: as_completed() is element-wise identical to sequential and "
            "streams its first result before the batch finishes"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
