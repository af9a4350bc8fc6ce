#!/usr/bin/env python3
"""Benchmark: batch concretization session vs. independent concretizers.

The ISSUE-1 acceptance scenario: concretize 10 overlapping root specs and
compare a single :class:`ConcretizationSession` (shared base grounding,
incremental delta grounding, solve cache) against 10 independent
:class:`Concretizer` instances, asserting

* element-wise identical results,
* a >= 2x wall-clock speedup,
* grounder statistics proving the shared program was grounded exactly once
  per spec family.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_batch_session.py --quick
    PYTHONPATH=src python benchmarks/bench_batch_session.py            # full
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import micro_repo, signature  # noqa: E402
from repro.spack.concretize import ConcretizationSession, Concretizer  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402

#: 10 overlapping micro-repo specs from one spec family: what a build-cache
#: population run looks like (many variants/versions of the same roots,
#: several exact repeats).
WORKLOAD = (
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example@1.1.0",
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example@1.1.0",
)


def run_once(repo):
    clear_shared_bases()

    start = time.perf_counter()
    sequential = [Concretizer(repo=repo).solve([spec]) for spec in WORKLOAD]
    sequential_time = time.perf_counter() - start

    session = ConcretizationSession(repo=repo)
    start = time.perf_counter()
    batch = session.solve(list(WORKLOAD))
    session_time = time.perf_counter() - start

    for spec, a, b in zip(WORKLOAD, batch, sequential):
        assert signature(a) == signature(b), f"results diverge for {spec!r}"

    return sequential_time, session_time, session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single round with a relaxed speedup floor (CI smoke test)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="measurement rounds (best-of); default 3, or 1 with --quick",
    )
    args = parser.parse_args(argv)

    rounds = args.rounds or (1 if args.quick else 3)
    floor = 1.2 if args.quick else 2.0

    repo = micro_repo()
    best = None
    for _ in range(rounds):
        sequential_time, session_time, session = run_once(repo)
        speedup = sequential_time / session_time
        if best is None or speedup > best[0]:
            best = (speedup, sequential_time, session_time, session)
    speedup, sequential_time, session_time, session = best

    stats = session.stats
    record(
        "batch_session",
        f"Batch session vs {len(WORKLOAD)} independent concretizers (micro repo)",
        ["metric", "value"],
        [
            ("independent concretizers [s]", f"{sequential_time:.3f}"),
            ("batch session [s]", f"{session_time:.3f}"),
            ("speedup", f"{speedup:.2f}x"),
            ("specs solved", stats.specs_solved),
            ("base groundings (shared program)", stats.base_groundings),
            ("base cache hits", stats.base_cache_hits),
            ("delta groundings", stats.delta_groundings),
            ("solve cache hits", stats.solve_cache_hits),
            ("solve cache misses", stats.solve_cache_misses),
        ],
    )

    failures = []
    if stats.base_groundings != 1:
        failures.append(
            f"expected the shared program to be grounded once, got "
            f"{stats.base_groundings} base groundings"
        )
    if speedup < floor:
        failures.append(f"speedup {speedup:.2f}x below the {floor:.1f}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: {speedup:.2f}x speedup, shared program grounded once")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
