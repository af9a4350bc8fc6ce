"""Figure 1: the E4S dependency graph (core products vs. required dependencies).

Paper numbers: ~100 core software products (red) and ~500 required
dependencies (blue).  Our builtin catalog is a scaled-down model; the shape to
reproduce is "dependencies outnumber the products by several times" and the
graph is connected and DAG-shaped.
"""

import pytest

from benchmarks.reporting import record
from repro.spack.workloads import e4s_graph_statistics


@pytest.fixture(scope="module")
def graph_stats(repo):
    stats = e4s_graph_statistics(repo)
    record(
        "fig1_e4s_graph",
        "Figure 1: E4S-style dependency graph",
        ["quantity", "paper", "this repo"],
        [
            ("core products (roots)", 100, stats["num_roots"]),
            ("required dependencies", 500, stats["num_dependencies"]),
            ("total packages", 600, stats["num_packages"]),
            ("possible dependency edges", "-", stats["num_edges"]),
        ],
    )
    return stats


def test_fig1_dependencies_outnumber_roots(graph_stats):
    assert graph_stats["num_dependencies"] > 2 * graph_stats["num_roots"]


def test_fig1_graph_is_connected_to_roots(graph_stats, repo):
    """Every dependency in the graph is reachable from at least one root."""
    reachable = repo.possible_dependencies(*graph_stats["roots"])
    assert graph_stats["num_packages"] == len(reachable)
