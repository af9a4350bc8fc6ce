#!/usr/bin/env python3
"""Benchmark: warm-start latency — ground snapshot vs pickle ground cache.

On the 320-package solver-heavy catalog, a first session grounds the
``synth-0296`` family cold and publishes the base both ways (the pickle
ground cache, and the ground snapshot that also carries the base's
completion template); a second process then reaches warm state through
each path.  Measured:

* **cold ground** — no disk cache at all: the price being amortized;
* **pickle unpickle** — warm start via the pickle ground cache, reached the
  way a deployment reaches it: the ``snapshot/`` directory is gone, so the
  session falls back to the pickle.  It builds the completion template at
  its first solve and then writes the snapshot back, so this row also pays
  that build and that write;
* **snapshot load** — warm start via ``SnapshotStore.load`` (header check,
  checksum, and the decode of base and template with the collector paused);

plus the raw store operations on the very same cached base, isolated from
solve time: ``pickle.load`` of the pickle entry, the snapshot's header
check alone (``GroundSnapshot.attach``, what a write-through probe pays),
and attach plus ``materialize``, which is what a session pays to read a base
from its snapshot (it always materializes at once).  The run *asserts* that
the header check beats a pickle **unpickle** of the same base, and that
all three warm-start paths give element-wise identical results.  The end-to-end
warm solve rows are reported for context; they are dominated by identical
solver work.

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
        raw_pickle_s = raw_attach_s = raw_load_s = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            with open(pickle_path, "rb") as stream:
                # the entry's envelope carries the base as pickled bytes
                pickle.loads(pickle.load(stream)["payload"])
            raw_pickle_s = min(raw_pickle_s, time.perf_counter() - start)
            start = time.perf_counter()
            snapshot = GroundSnapshot.attach(snap_path)
            raw_attach_s = min(raw_attach_s, time.perf_counter() - start)
            snapshot.materialize()
            raw_load_s = min(raw_load_s, time.perf_counter() - start)

        med = statistics.median
        return {
            "cold_s": med(cold_times),
            "pickle_s": med(pickle_times),
            "snapshot_s": med(snap_times),
            "raw_pickle_s": raw_pickle_s,
            "raw_attach_s": raw_attach_s,
            "raw_load_s": raw_load_s,
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
        ["snapshot load", f"{timings['snapshot_s']:.3f}",
         f"{timings['cold_s'] / timings['snapshot_s']:.1f}x"],
        ["raw pickle.load", f"{timings['raw_pickle_s']:.4f}", "—"],
        ["raw snapshot attach (header)", f"{timings['raw_attach_s']:.4f}", "—"],
        ["raw snapshot attach + materialize", f"{timings['raw_load_s']:.4f}", "—"],
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
        f"[bench-snapshot] snapshot header check beats pickle unpickle: "
        f"{timings['raw_attach_s'] * 1e3:.2f}ms vs "
        f"{timings['raw_pickle_s'] * 1e3:.2f}ms "
        f"({timings['raw_pickle_s'] / timings['raw_attach_s']:.0f}x; attach + "
        f"materialize {timings['raw_load_s'] * 1e3:.2f}ms, warm solve "
        f"{timings['snapshot_s']:.3f}s vs pickle {timings['pickle_s']:.3f}s "
        f"vs cold {timings['cold_s']:.3f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
