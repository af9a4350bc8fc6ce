#!/usr/bin/env python3
"""Benchmark: warm-start latency — mmap snapshot attach vs pickle unpickle.

The ISSUE-9 acceptance scenario, on the 320-package solver-heavy catalog:
a first session grounds the ``synth-0296`` family cold and publishes the
base both ways (pickle object graph and flat mmap snapshot); a second
process then reaches warm state through each path.  Measured:

* **cold ground** — no disk cache at all: the price being amortized;
* **pickle unpickle** — warm start via the object-graph cache, reached the
  way a deployment reaches it: the ``snapshot/`` directory is gone, so the
  session falls back to the pickle.  It then writes the snapshot back, so
  this row also pays that write;
* **snapshot attach** — warm start via ``GroundSnapshot`` (header-validated
  mmap attach + lazy flat-buffer materialization);

plus the raw store operations (``pickle.load`` vs attach vs materialize)
on the very same cached base, isolated from solve time.  The run *asserts*
the ISSUE-9 acceptance criterion — a snapshot **attach** (what every extra
service worker pays to reach servable warm state; the flat-buffer decode
is deferred until a solve actually needs the base) beats a pickle
**unpickle** of the same base — and that all three warm-start paths give
element-wise identical results.  The end-to-end warm solve rows are
reported for context; they are dominated by identical solver work.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_snapshot.py --quick
    PYTHONPATH=src python benchmarks/bench_snapshot.py            # full
"""

from __future__ import annotations

import argparse
import glob
import os
import pickle
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import (  # noqa: E402
    SOLVER_HEAVY_WORKLOAD,
    signature,
    solver_heavy_repo,
)
from repro.asp.snapshot import GroundSnapshot  # noqa: E402
from repro.spack.concretize import ConcretizationSession, SessionConfig  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402

#: Same spec family as the workload (same base key), but never solved by
#: the seeding run — so every warm start below must actually produce the
#: base instead of answering from the persistent solve cache.
WARM_PROBE = "synth-0296+opt2"


def fresh_session(repo, cache_dir) -> ConcretizationSession:
    """A session that finds bases only on disk, as a new process would."""
    clear_shared_bases()
    return ConcretizationSession(repo=repo, session_config=SessionConfig(cache_dir=cache_dir))


def clear_solve_cache(cache_dir: str) -> None:
    for path in glob.glob(os.path.join(cache_dir, "solve", "*.json")):
        os.unlink(path)


def timed_warm_start(repo, cache_dir):
    """Session construction + one family solve; returns (seconds, signature)."""
    clear_solve_cache(cache_dir)
    start = time.perf_counter()
    session = fresh_session(repo, cache_dir)
    result = session.solve([WARM_PROBE])[0]
    elapsed = time.perf_counter() - start
    return elapsed, repr(signature(result)), session


def largest(pattern: str) -> str:
    paths = glob.glob(pattern)
    assert paths, f"no files match {pattern}"
    return max(paths, key=os.path.getsize)


def run(repetitions: int):
    repo = solver_heavy_repo()
    cache_dir = tempfile.mkdtemp(prefix="bench-snapshot-")
    cold_dir = tempfile.mkdtemp(prefix="bench-snapshot-cold-")
    try:
        # seed: one cold run publishes the base as pickle AND snapshot
        seed = fresh_session(repo, cache_dir)
        seed.solve(list(SOLVER_HEAVY_WORKLOAD))
        assert seed.stats.snapshot_writes >= 1

        cold_times, pickle_times, snap_times = [], [], []
        signatures = set()
        for _ in range(repetitions):
            shutil.rmtree(cold_dir, ignore_errors=True)
            elapsed, sig, _ = timed_warm_start(repo, cold_dir)
            cold_times.append(elapsed)
            signatures.add(sig)

            # without its snapshot the base comes from the pickle
            shutil.rmtree(os.path.join(cache_dir, "snapshot"))
            elapsed, sig, session = timed_warm_start(repo, cache_dir)
            assert session.stats.snapshot_attaches == 0
            assert session.stats.base_disk_hits == 1
            assert session.stats.base_groundings == 0
            pickle_times.append(elapsed)
            signatures.add(sig)

            elapsed, sig, session = timed_warm_start(repo, cache_dir)
            assert session.stats.snapshot_attaches == 1
            assert session.stats.base_groundings == 0
            snap_times.append(elapsed)
            signatures.add(sig)

        # all three warm-start paths answer identically
        assert len(signatures) == 1, "warm-start paths disagree"

        # raw store operations on the same cached base, no solving at all
        # (best of 5: single readings are at the mercy of the page cache)
        pickle_path = largest(os.path.join(cache_dir, "ground", "*.pkl"))
        snap_path = largest(os.path.join(cache_dir, "snapshot", "*.snap"))
        raw_pickle_s = raw_attach_s = raw_materialize_s = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            with open(pickle_path, "rb") as stream:
                pickle.load(stream)
            raw_pickle_s = min(raw_pickle_s, time.perf_counter() - start)
            start = time.perf_counter()
            snapshot = GroundSnapshot.attach(snap_path)
            raw_attach_s = min(raw_attach_s, time.perf_counter() - start)
            start = time.perf_counter()
            snapshot.materialize()
            raw_materialize_s = min(
                raw_materialize_s, time.perf_counter() - start
            )
            snapshot.close()

        med = statistics.median
        return {
            "cold_s": med(cold_times),
            "pickle_s": med(pickle_times),
            "snapshot_s": med(snap_times),
            "raw_pickle_s": raw_pickle_s,
            "raw_attach_s": raw_attach_s,
            "raw_materialize_s": raw_materialize_s,
            "pickle_bytes": os.path.getsize(pickle_path),
            "snapshot_bytes": os.path.getsize(snap_path),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(cold_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="one repetition (CI smoke)")
    args = parser.parse_args(argv)
    repetitions = 1 if args.quick else 3

    timings = run(repetitions)
    rows = [
        ["cold ground (no cache)", f"{timings['cold_s']:.3f}", "—"],
        ["pickle unpickle + snapshot write", f"{timings['pickle_s']:.3f}",
         f"{timings['cold_s'] / timings['pickle_s']:.1f}x"],
        ["snapshot attach", f"{timings['snapshot_s']:.3f}",
         f"{timings['cold_s'] / timings['snapshot_s']:.1f}x"],
        ["raw pickle.load", f"{timings['raw_pickle_s']:.4f}", "—"],
        ["raw snapshot attach (header)", f"{timings['raw_attach_s']:.4f}", "—"],
        ["raw snapshot materialize", f"{timings['raw_materialize_s']:.4f}", "—"],
    ]
    record(
        "snapshot",
        "Warm-start latency, 320-package solver-heavy family "
        f"(median of {repetitions}; pickle {timings['pickle_bytes']} B, "
        f"snapshot {timings['snapshot_bytes']} B)",
        ["path", "seconds", "vs cold"],
        rows,
    )

    if timings["raw_attach_s"] >= timings["raw_pickle_s"]:
        print(
            f"[bench-snapshot] FAIL: snapshot attach "
            f"({timings['raw_attach_s'] * 1e3:.2f}ms) did not beat pickle "
            f"unpickle ({timings['raw_pickle_s'] * 1e3:.2f}ms)",
            file=sys.stderr,
        )
        return 1
    print(
        f"[bench-snapshot] snapshot attach beats pickle unpickle: "
        f"{timings['raw_attach_s'] * 1e3:.2f}ms vs "
        f"{timings['raw_pickle_s'] * 1e3:.2f}ms to a warm servable base "
        f"({timings['raw_pickle_s'] / timings['raw_attach_s']:.0f}x; full "
        f"materialize {timings['raw_materialize_s'] * 1e3:.2f}ms, warm solve "
        f"{timings['snapshot_s']:.3f}s vs pickle {timings['pickle_s']:.3f}s "
        f"vs cold {timings['cold_s']:.3f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
