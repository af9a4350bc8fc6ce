#!/usr/bin/env python3
"""Benchmark: sharded repositories — per-shard grounding and invalidation.

The ISSUE-3 acceptance scenario, in three acts over one spec family against
a sharded repository with a persistent cache directory:

1. **Cold** — a fresh session grounds one base layer per included shard
   (context + shards) and persists every chain prefix;
2. **Warm** — a new session (cleared in-memory memos, same directory)
   replays every layer from disk: zero layers ground, zero solver calls;
3. **Single-shard edit** — a package is added to the *last included* shard;
   the composed repository hash moves (so solves are cold again), but of
   the base layers exactly one re-grounds — every other shard's persistent
   ground entry is still warm.

Results are asserted element-wise identical to the monolithic (flat
repository) path throughout.  ``--quick`` (the CI smoke) runs the micro
catalog; the full run uses the builtin E4S-style catalog (8 shards).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded_repo.py --quick
    PYTHONPATH=src python benchmarks/bench_sharded_repo.py          # full
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, REPO_ROOT)

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import micro_repo, micro_sharded_repo, signature  # noqa: E402
from repro.spack.builtin import build_repository, build_sharded_repository  # noqa: E402
from repro.spack.concretize import (  # noqa: E402
    ConcretizationSession,
    Concretizer,
    SessionConfig,
)
from repro.spack.concretize.encoder import ProblemEncoder  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402
from repro.spack.directives import depends_on, version  # noqa: E402
from repro.spack.package import Package  # noqa: E402
from repro.spack.repo import ShardedRepository  # noqa: E402
from repro.spack.spec_parser import parse_spec  # noqa: E402

#: one spec family: versions x variants of the same root, the build-cache
#: population shape whose shared base dominates the grounding cost
MICRO_WORKLOAD = ("example", "example+bzip", "example@1.0.0", "example~bzip")
BUILTIN_WORKLOAD = ("hdf5", "hdf5~mpi")


class Benchedit(Package):
    """The single-shard edit: a new leaf package in the last included shard."""

    version("1.0")
    depends_on("zlib")


def last_included_shard(repo: ShardedRepository, workload) -> str:
    """The deepest shard layer of the workload's spec family (editing it is
    the cheapest possible invalidation: exactly one layer re-grounds)."""
    specs = [parse_spec(s) for s in workload]
    possible = ProblemEncoder.possible_packages_for(repo, specs)
    included = [shard.name for shard in repo.shards if any(p in shard for p in possible)]
    return included[-1]


def timed_solve(repo, workload, cache_dir):
    clear_shared_bases()
    session = ConcretizationSession(
        repo=repo,
        session_config=SessionConfig(cache_dir=cache_dir),
    )
    start = time.perf_counter()
    results = session.solve(list(workload))
    elapsed = time.perf_counter() - start
    return session, results, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="micro catalog instead of the full builtin one (CI smoke test)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        build_sharded, build_flat, workload = micro_sharded_repo, micro_repo, MICRO_WORKLOAD
    else:
        build_sharded, build_flat, workload = (
            build_sharded_repository,
            build_repository,
            BUILTIN_WORKLOAD,
        )

    flat_reference = [
        signature(Concretizer(repo=build_flat()).solve([spec])) for spec in workload
    ]

    with tempfile.TemporaryDirectory(prefix="repro-shard-") as cache_dir:
        cold, cold_results, cold_time = timed_solve(build_sharded(), workload, cache_dir)
        warm, warm_results, warm_time = timed_solve(build_sharded(), workload, cache_dir)

        edited = build_sharded()
        target = last_included_shard(edited, workload)
        edited.add(Benchedit, shard=target)
        edit, edit_results, edit_time = timed_solve(edited, workload, cache_dir)

    layers_total = cold.stats.shard_layers_grounded
    record(
        "sharded_repo",
        f"Sharded repository ({len(build_sharded().shards)} shards): warm replay "
        f"and single-shard ({target!r}) invalidation over {len(workload)} specs",
        ["metric", "value"],
        [
            ("base layers (one family)", layers_total),
            ("cold solve [s]", f"{cold_time:.3f}"),
            ("cold layers grounded", cold.stats.shard_layers_grounded),
            ("warm solve [s]", f"{warm_time:.3f}"),
            ("warm layers grounded", warm.stats.shard_layers_grounded),
            ("warm solver calls", warm.stats.solve_cache_misses),
            (f"post-edit ({target}) solve [s]", f"{edit_time:.3f}"),
            ("post-edit layers grounded", edit.stats.shard_layers_grounded),
            ("post-edit layers from disk", edit.stats.shard_layers_disk),
        ],
    )

    failures = []
    for label, results in (("cold", cold_results), ("warm", warm_results)):
        if [signature(r) for r in results] != flat_reference:
            failures.append(f"{label} sharded results diverge from the flat path")
    if cold.stats.shard_layers_grounded < 2:
        failures.append("cold run should ground at least context + one shard layer")
    if warm.stats.shard_layers_grounded != 0 or warm.stats.solve_cache_misses != 0:
        failures.append(
            f"warm run touched the grounder/solver "
            f"({warm.stats.shard_layers_grounded} layers, "
            f"{warm.stats.solve_cache_misses} solves)"
        )
    if edit.stats.shard_layers_grounded != 1:
        failures.append(
            f"single-shard edit re-ground {edit.stats.shard_layers_grounded} "
            f"layers (expected exactly 1)"
        )
    if edit.stats.shard_layers_disk != layers_total - 1:
        failures.append(
            f"expected {layers_total - 1} layers replayed from disk after the "
            f"edit, got {edit.stats.shard_layers_disk}"
        )
    if edit.stats.solve_cache_misses != len(set(workload)):
        failures.append("the composed hash change must bypass stale solve entries")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"\nOK: warm replay ground nothing; editing shard {target!r} "
            f"re-ground exactly 1 of {layers_total} layers "
            f"({cold_time:.2f}s cold -> {edit_time:.2f}s after the edit)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
