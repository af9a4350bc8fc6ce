"""Figures 7a-7c: ground / solve / total time vs. number of possible dependencies.

Paper observation: times grow with the number of *possible* dependencies (not
the dependencies in the answer), and packages cluster into a low group (cannot
reach MPI) and a high group (can reach MPI).
"""

import pytest

from benchmarks.workloads import PACKAGE_SAMPLE
from benchmarks.reporting import record
from repro.spack.concretize import Concretizer


@pytest.fixture(scope="module")
def series(repo):
    rows = []
    for name in PACKAGE_SAMPLE:
        concretizer = Concretizer(repo=repo)
        result = concretizer.concretize(name)
        rows.append(
            {
                "package": name,
                "possible_deps": result.statistics["encoding"]["possible_dependencies"],
                "ground": result.timings["ground"],
                "solve": result.timings["solve"],
                "total": result.timings["total"],
            }
        )
    rows.sort(key=lambda r: r["possible_deps"])
    record(
        "fig7abc_times_vs_possible_dependencies",
        "Figure 7a-7c: times vs. possible dependencies",
        ["package", "possible deps", "ground [s]", "solve [s]", "total [s]"],
        [
            (r["package"], r["possible_deps"], f"{r['ground']:.2f}", f"{r['solve']:.2f}", f"{r['total']:.2f}")
            for r in rows
        ],
    )
    return rows


def test_fig7a_ground_time_grows_with_possible_dependencies(series):
    small = [r for r in series if r["possible_deps"] < 10]
    large = [r for r in series if r["possible_deps"] > 40]
    assert small and large
    avg = lambda rows, key: sum(r[key] for r in rows) / len(rows)  # noqa: E731
    assert avg(large, "ground") > avg(small, "ground")


def test_fig7b_solve_time_grows_with_possible_dependencies(series):
    small = [r for r in series if r["possible_deps"] < 10]
    large = [r for r in series if r["possible_deps"] > 40]
    avg = lambda rows, key: sum(r[key] for r in rows) / len(rows)  # noqa: E731
    assert avg(large, "solve") > avg(small, "solve")


def test_fig7c_two_clusters_in_possible_dependencies(series, repo):
    """The gap between packages that can reach MPI and those that cannot."""
    counts = sorted(repo.possible_dependency_count(name) for name in repo)
    low_cluster = [c for c in counts if c < 20]
    high_cluster = [c for c in counts if c > 40]
    middle = [c for c in counts if 20 <= c <= 40]
    assert len(low_cluster) > 30
    assert len(high_cluster) > 30
    # the gap: far fewer packages live between the clusters than inside them
    assert len(middle) < min(len(low_cluster), len(high_cluster))
