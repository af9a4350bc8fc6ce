"""Ablation benchmark for a design choice called out in DESIGN.md.

Stable-model enforcement (lazy unfounded-set checking) on vs. off: with
circular *possible* dependencies in the repository the completion alone can
admit unfounded dependency cycles; the check guarantees correct DAGs.
"""

import pytest

from benchmarks.reporting import record
from repro.asp.configs import SolverConfig
from repro.spack.concretize import Concretizer

PACKAGE = "sz"


@pytest.fixture(scope="module")
def ablation_rows(repo):
    rows = []
    configurations = {
        "default (stable-model check)": SolverConfig.preset("tweety"),
        "no stable-model check": SolverConfig.preset("tweety").with_overrides(
            enforce_stability=False
        ),
    }
    results = {}
    for label, config in configurations.items():
        concretizer = Concretizer(repo=repo, config=config)
        result = concretizer.concretize(PACKAGE)
        results[label] = result
        optimization = result.statistics["optimization"]
        rows.append(
            (
                label,
                f"{result.timings['solve']:.2f}",
                optimization.get("stability_checks", 0),
                optimization.get("loop_nogoods", 0),
                result.costs.get(100, 0),
            )
        )
    record(
        "ablation_solver_features",
        f"Ablation: solver features while concretizing '{PACKAGE}'",
        ["configuration", "solve [s]", "stability checks", "loop nogoods", "builds"],
        rows,
    )
    return results


def test_ablation_all_configurations_agree_on_the_answer(ablation_rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    versions = {label: r.specs[PACKAGE].version for label, r in ablation_rows.items()}
    assert len(set(versions.values())) == 1


def test_ablation_stability_check_is_exercised(ablation_rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    default = ablation_rows["default (stable-model check)"]
    assert default.statistics["optimization"]["stability_checks"] >= 1

