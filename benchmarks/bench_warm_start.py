#!/usr/bin/env python3
"""Benchmark: the indexed grounder's cold solve + a warm start from disk.

Two acts:

1. **Grounder hot path** — one cold ground + solve of the first spec of the
   **solver-heavy** workload (a 320-package synthetic catalog, ~70 possible
   packages per solve) with the indexed :class:`~repro.asp.grounder.Grounder`
   vs. the naive reference grounder (the test oracle in
   ``tests/asp/naive_grounder.py``), both called directly.  Results must be
   signature-identical; the *full* run asserts the >=1.5x floor on the
   indexed speedup.  ``--quick`` (the CI smoke) asserts no wall-clock floor:
   shared runners are too noisy for that.

2. **Warm start** — a session pointed at a fresh ``cache_dir`` populates the
   persistent solve/ground caches (micro catalog: this act measures cache
   plumbing, not solver muscle), then a *second process* replays the same
   batch from disk.  The child's statistics are asserted in both modes:
   zero solve-cache misses, zero delta groundings, zero base groundings —
   i.e. not a single grounding or solver call.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_warm_start.py --quick
    PYTHONPATH=src python benchmarks/bench_warm_start.py          # full
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, REPO_ROOT)

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import (  # noqa: E402
    FAMILY_WORKLOAD_16 as WARM_WORKLOAD,
    SOLVER_HEAVY_WORKLOAD as WORKLOAD,
    micro_repo,
    signature,
    solver_heavy_repo,
)
from repro.asp.control import Control, parse_program_cached  # noqa: E402
from repro.asp.grounder import Grounder  # noqa: E402
from repro.asp.syntax import ground_atom  # noqa: E402
from repro.spack.concretize import ConcretizationSession, SessionConfig  # noqa: E402
from repro.spack.concretize.concretizer import result_from_solve  # noqa: E402
from repro.spack.concretize.encoder import ProblemEncoder  # noqa: E402
from repro.spack.concretize.logic import logic_program  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402
from repro.spack.spec_parser import parse_spec  # noqa: E402
from tests.asp.naive_grounder import NaiveGrounder  # noqa: E402


# ---------------------------------------------------------------------------
# Act 1: grounder hot path (indexed vs naive, single cold solve)
# ---------------------------------------------------------------------------


def run_grounder_comparison(repo):
    """Cold ground + solve of one spec's program under each grounder.

    Uses the first workload spec only: a *single* solve is the unit the
    >=1.5x acceptance floor talks about, and grounding — where the indexed
    grounder earns its keep — is not amortized over a batch.  The facts are
    encoded once, outside the timed region, and both runs complete and
    solve their ground program the same way.
    """
    spec = parse_spec(WORKLOAD[0])
    facts = [ground_atom(*fact) for fact in ProblemEncoder(repo).encode([spec])]
    program = parse_program_cached(logic_program())
    times = {}
    signatures = {}
    for label, grounder_class in (("indexed", Grounder), ("naive", NaiveGrounder)):
        start = time.perf_counter()
        ground = grounder_class(program, facts).ground()
        result = Control().adopt_ground(ground).solve()
        times[label] = time.perf_counter() - start
        signatures[label] = signature(result_from_solve([spec], result, {}))
    assert signatures["indexed"] == signatures["naive"], (
        "the grounders disagree on the solved spec"
    )
    return times


# ---------------------------------------------------------------------------
# Act 2: warm start from disk, in a second process
# ---------------------------------------------------------------------------


def run_replay_child(cache_dir: str) -> int:
    """Executed in the *second* process: replay the batch from disk."""
    repo = micro_repo()
    session = ConcretizationSession(
        repo=repo,
        session_config=SessionConfig(share_ground_cache=False, cache_dir=cache_dir),
    )
    start = time.perf_counter()
    results = session.solve(list(WARM_WORKLOAD))
    elapsed = time.perf_counter() - start
    print(
        json.dumps(
            {
                "elapsed": elapsed,
                "signatures": [repr(signature(r)) for r in results],
                "stats": session.stats.as_dict(),
                "solve_cache": session.solve_cache.statistics(),
            }
        )
    )
    return 0


def run_warm_start(repo, cache_dir):
    clear_shared_bases()
    cold = ConcretizationSession(
        repo=repo,
        session_config=SessionConfig(share_ground_cache=False, cache_dir=cache_dir),
    )
    start = time.perf_counter()
    cold_results = cold.solve(list(WARM_WORKLOAD))
    cold_time = time.perf_counter() - start

    env = dict(os.environ)
    src = os.path.abspath(os.path.join(REPO_ROOT, "src"))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--replay-child", cache_dir],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"replay child failed ({child.returncode}):\n{child.stderr}"
        )
    payload = json.loads(child.stdout.strip().splitlines()[-1])
    expected = [repr(signature(r)) for r in cold_results]
    assert payload["signatures"] == expected, "warm replay diverged from cold solve"
    return cold_time, payload


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="assert no wall-clock floor (CI smoke test)",
    )
    parser.add_argument(
        "--replay-child", metavar="CACHE_DIR", default=None,
        help=argparse.SUPPRESS,  # internal: warm-start second process
    )
    args = parser.parse_args(argv)

    if args.replay_child:
        return run_replay_child(args.replay_child)

    grounder_times = run_grounder_comparison(solver_heavy_repo())
    grounder_speedup = grounder_times["naive"] / grounder_times["indexed"]

    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        cold_time, replay = run_warm_start(micro_repo(), cache_dir)

    child_stats = replay["stats"]
    record(
        "warm_start",
        f"Solver-heavy cold solve per grounder + warm disk replay "
        f"({len(WARM_WORKLOAD)} micro specs)",
        ["metric", "value"],
        [
            ("single solve, naive grounder [s]", f"{grounder_times['naive']:.3f}"),
            ("single solve, indexed grounder [s]", f"{grounder_times['indexed']:.3f}"),
            ("grounder speedup", f"{grounder_speedup:.2f}x"),
            ("cold solve w/ cache dir [s]", f"{cold_time:.3f}"),
            ("warm replay, 2nd process [s]", f"{replay['elapsed']:.3f}"),
            ("warm solve-cache misses", child_stats["solve_cache_misses"]),
            ("warm delta groundings", child_stats["delta_groundings"]),
            ("warm base groundings", child_stats["base_groundings"]),
            ("warm disk hits", replay["solve_cache"]["disk_hits"]),
        ],
    )

    failures = []
    if args.quick:
        print("NOTE: quick/CI mode; grounder floor not asserted (the warm start still is)")
    elif grounder_speedup < 1.5:
        failures.append(
            f"indexed grounder speedup {grounder_speedup:.2f}x below the "
            f"1.5x single-solve floor"
        )
    if child_stats["solve_cache_misses"] != 0:
        failures.append(
            f"warm replay missed the cache {child_stats['solve_cache_misses']} times"
        )
    if child_stats["delta_groundings"] != 0 or child_stats["base_groundings"] != 0:
        failures.append("warm replay touched the grounder/solver")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"\nOK: grounder {grounder_speedup:.2f}x; second process replayed "
            f"{len(WARM_WORKLOAD)} specs from disk with zero solver calls"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
