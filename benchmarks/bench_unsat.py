#!/usr/bin/env python3
"""Benchmark: unsat-explanation latency vs synthetic catalog size.

The ISSUE-7 acceptance scenario: plant a conflicting package into seeded
synthetic catalogs of increasing size, concretize it to UNSAT, and measure

* the plain unsat solve (the price of the "no" answer),
* the full explained failure (solve + re-ground + deletion-based MUS
  extraction), asserting the extracted core equals the planted ground
  truth at every size,
* the warm-cache replay of the same failure (which must do no grounding
  and no solver work at all).

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_unsat.py --quick
    PYTHONPATH=src python benchmarks/bench_unsat.py            # full
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.reporting import record  # noqa: E402
from repro.spack.concretize import ConcretizationSession  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402
from repro.spack.errors import UnsatisfiableSpecError  # noqa: E402
from repro.spack.generator import SyntheticRepoBuilder  # noqa: E402

QUICK_SIZES = (50, 150)
FULL_SIZES = (50, 150, 400, 1000)


def expect_unsat(callable_) -> UnsatisfiableSpecError:
    try:
        callable_()
    except UnsatisfiableSpecError as error:
        return error
    raise AssertionError("expected an unsatisfiable concretization")


def run_size(num_packages: int, seed: int = 7):
    builder = SyntheticRepoBuilder(
        num_packages=num_packages,
        max_dependencies=3,
        layers=5,
        seed=seed,
        unsat_packages=1,
        unsat_conflicts=3,
    )
    repo = builder.build()
    planted = builder.planted["synth-unsat-0000"]

    clear_shared_bases()
    session = ConcretizationSession(repo=repo)

    start = time.perf_counter()
    error = expect_unsat(lambda: session.concretize(planted.package))
    explained_s = time.perf_counter() - start

    expected = sorted(f"{planted.package}: {d}" for d in planted.directives)
    assert error.core() == expected, (
        f"core mismatch at {num_packages} packages: {error.core()} != {expected}"
    )

    start = time.perf_counter()
    warm = expect_unsat(lambda: session.concretize(planted.package))
    warm_s = time.perf_counter() - start
    assert warm.explanation == error.explanation

    return explained_s, warm_s, len(error.explanation)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="two small catalog sizes only (CI smoke test)",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    rows = []
    failures = []
    for num_packages in sizes:
        explained_s, warm_s, core_size = run_size(num_packages)
        rows.append(
            (
                num_packages,
                f"{explained_s:.3f}",
                f"{warm_s * 1000:.1f}",
                core_size,
            )
        )
        if warm_s >= explained_s:
            failures.append(
                f"warm replay ({warm_s:.3f}s) not faster than the cold "
                f"explained failure ({explained_s:.3f}s) at {num_packages} packages"
            )

    record(
        "unsat_explanations",
        "Unsat explanation latency vs synthetic catalog size (planted cores)",
        ["packages", "explained unsat [s]", "warm replay [ms]", "core size"],
        rows,
    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: cores matched the planted ground truth at {len(sizes)} sizes")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
