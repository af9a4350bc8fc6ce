"""Figures 7e-7g: setup / solve / total time for growing buildcache sizes.

The paper grows the E4S buildcache from 6 804 to 63 099 installed hashes
(restricting by architecture and OS) and observes that setup time — generating
facts from the installed-package database — grows with the cache and dominates
solve time, while most solves still finish quickly.

Here the buildcache is built by concretizing a small stack under several
(target, os, compiler) configurations, then carved into the same four nested
subsets (full / one arch / one os / both).
"""

import statistics
import time

import pytest

from benchmarks.reporting import record
from repro.spack.concretize import Concretizer
from repro.spack.concretize.encoder import ProblemEncoder
from repro.spack.spec_parser import parse_spec
from repro.spack.workloads import build_buildcache, buildcache_subsets

#: the stack whose binaries populate the cache and the package we re-solve
CACHE_ROOTS = ("c-blosc", "zfp", "sz")
REQUEST = "c-blosc"

CONFIGURATIONS = (
    ("skylake", "rhel7", "gcc@11.2.0"),
    ("haswell", "centos8", "gcc@10.3.1"),
    ("power9le", "rhel7", "gcc@11.2.0"),
    ("power8le", "rhel8", "gcc@10.3.1"),
)

#: setup runs per cache, interleaved across the caches: one setup here takes
#: 2-5 ms, and a single one (the first in the process above all) varies by
#: more than the 18 to 72 installed hashes add
SETUP_REPEATS = 25


@pytest.fixture(scope="module")
def buildcaches(repo):
    database = build_buildcache(CACHE_ROOTS, repo=repo, configurations=CONFIGURATIONS)
    subsets = buildcache_subsets(database)
    # order from smallest to largest, like the paper's 6804 .. 63099 series
    ordered = sorted(subsets.items(), key=lambda item: len(item[1]))
    return ordered


def median_setup_times(repo, buildcaches):
    """Median wall time per cache of the setup phase, fact generation as
    ``Concretizer.solve`` runs it, over ``SETUP_REPEATS`` interleaved runs."""
    samples = {label: [] for label, _ in buildcaches}
    for _ in range(SETUP_REPEATS):
        for label, database in buildcaches:
            specs = [parse_spec(REQUEST)]
            start = time.perf_counter()
            ProblemEncoder(repo, store=database, reuse=True).encode(specs)
            samples[label].append(time.perf_counter() - start)
    return {label: statistics.median(values) for label, values in samples.items()}


@pytest.fixture(scope="module")
def cache_series(repo, buildcaches):
    setup = median_setup_times(repo, buildcaches)
    rows = []
    for label, database in buildcaches:
        concretizer = Concretizer(repo=repo, store=database, reuse=True)
        result = concretizer.concretize(REQUEST)
        rows.append(
            {
                "label": label,
                "cached": len(database),
                "setup": setup[label],
                "solve": result.timings["solve"],
                "total": result.timings["total"],
                "reused": result.number_reused,
                "built": result.number_of_builds,
            }
        )
    record(
        "fig7efg_buildcache_scaling",
        f"Figures 7e-7g: reuse solve of '{REQUEST}' vs buildcache size",
        ["cache", "installed", "setup [ms]", "solve [s]", "total [s]", "reused", "built"],
        [
            (
                r["label"],
                r["cached"],
                f"{r['setup'] * 1e3:.2f}",
                f"{r['solve']:.2f}",
                f"{r['total']:.2f}",
                r["reused"],
                r["built"],
            )
            for r in rows
        ],
    )
    return rows


def test_fig7e_setup_time_grows_with_cache_size(cache_series):
    smallest, largest = cache_series[0], cache_series[-1]
    assert largest["cached"] > smallest["cached"]
    assert largest["setup"] >= smallest["setup"]


def test_fig7f_solves_remain_tractable(cache_series):
    """Most solves stay fast even with the largest cache (paper: < 10 s)."""
    for row in cache_series:
        assert row["solve"] < 120.0


def test_fig7g_reuse_found_in_every_cache(cache_series):
    """Whatever the subset, compatible binaries are reused instead of rebuilt."""
    for row in cache_series:
        assert row["reused"] > 0
    full = cache_series[-1]
    assert full["built"] == 0  # a fully matching stack exists in the full cache
