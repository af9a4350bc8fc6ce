"""Figure 7h: total solve time, original (greedy) concretizer vs. the ASP one.

Paper observation: for packages with small possible-dependency sets the clingo
times track the old concretizer closely; for packages with large possible
dependency trees the complete solver pays a (bounded) premium — the price of
completeness and optimality.
"""

import pytest

from benchmarks.workloads import SMALL_SAMPLE
from benchmarks.reporting import record
from repro.spack.concretize import Concretizer, OriginalConcretizer


@pytest.fixture(scope="module")
def comparison(repo):
    rows = []
    for name in SMALL_SAMPLE:
        greedy = OriginalConcretizer(repo=repo).concretize(name)
        asp = Concretizer(repo=repo).concretize(name)
        rows.append(
            {
                "package": name,
                "possible_deps": asp.statistics["encoding"]["possible_dependencies"],
                "old": greedy.elapsed,
                "new": asp.timings["total"],
            }
        )
    rows.sort(key=lambda r: r["possible_deps"])
    record(
        "fig7h_old_vs_new",
        "Figure 7h: old concretizer vs ASP concretizer total times",
        ["package", "possible deps", "old [s]", "clingo-style [s]", "ratio"],
        [
            (
                r["package"],
                r["possible_deps"],
                f"{r['old']:.3f}",
                f"{r['new']:.3f}",
                f"{r['new'] / max(r['old'], 1e-9):.0f}x",
            )
            for r in rows
        ],
    )
    return rows


def test_fig7h_both_concretizers_handle_the_sample(comparison):
    assert len(comparison) == len(SMALL_SAMPLE)


def test_fig7h_gap_grows_with_possible_dependencies(comparison):
    """The deviation from the greedy baseline is largest for packages with the
    biggest possible dependency trees (the second cluster in the paper)."""
    smallest = comparison[0]
    largest = comparison[-1]
    gap_small = smallest["new"] - smallest["old"]
    gap_large = largest["new"] - largest["old"]
    assert gap_large > gap_small
