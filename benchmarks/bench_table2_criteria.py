"""Table II: the 15 lexicographic optimization criteria.

Each scenario isolates one group of criteria and checks that the optimizer
trades lower-priority criteria away to improve higher-priority ones, i.e. the
cost vectors really are compared lexicographically in Table II order.
"""

import pytest

from benchmarks.reporting import record
from repro.spack.concretize import Concretizer
from repro.spack.concretize.criteria import CRITERIA, cost_summary
from repro.spack.repo import Repository
from repro.spack.version import Version
from tests.conftest import MICRO_PACKAGES


@pytest.fixture(scope="module")
def micro_repo():
    repo = Repository(name="bench-micro", packages=MICRO_PACKAGES)
    repo.set_provider_preference("mpi", ["mpich", "openmpi"])
    repo.set_provider_preference("blas", ["miniblas", "reflapack"])
    repo.set_provider_preference("lapack", ["miniblas", "reflapack"])
    return repo


@pytest.fixture(scope="module")
def scenario_costs(micro_repo):
    concretizer = Concretizer(repo=micro_repo)
    scenarios = {
        "defaults": concretizer.concretize("example"),
        "deprecated version forced": concretizer.concretize("example@0.9.0"),
        "non-default root variant": concretizer.concretize("example~bzip"),
        "non-preferred provider": concretizer.concretize("example ^openmpi"),
        "older root version": concretizer.concretize("example@1.0.0"),
        "non-preferred compiler": concretizer.concretize("example%clang"),
        "non-preferred target": concretizer.concretize("example target=haswell"),
    }
    rows = []
    for label, result in scenarios.items():
        summary = cost_summary(result.costs)
        interesting = {k: v for k, v in summary.items() if v}
        rows.append((label, result.specs["example"].version, interesting))
    record(
        "table2_criteria",
        "Table II: non-zero criteria per scenario",
        ["scenario", "example version", "non-zero criteria"],
        rows,
    )
    return scenarios


def test_table2_has_fifteen_criteria():
    assert len(CRITERIA) == 15


def test_criterion1_deprecated_versions(scenario_costs):
    default = cost_summary(scenario_costs["defaults"].costs)
    forced = cost_summary(scenario_costs["deprecated version forced"].costs)
    assert default["01_deprecated_versions_used"] == 0
    assert forced["01_deprecated_versions_used"] == 1


def test_criterion2_version_oldness_roots(scenario_costs):
    default = cost_summary(scenario_costs["defaults"].costs)
    older = cost_summary(scenario_costs["older root version"].costs)
    assert default["02_version_oldness_roots"] == 0
    assert older["02_version_oldness_roots"] > 0


def test_criterion3_non_default_variants_roots(scenario_costs):
    flipped = cost_summary(scenario_costs["non-default root variant"].costs)
    assert flipped["03_non-default_variant_values_roots"] >= 1


def test_criterion4_non_preferred_providers(scenario_costs):
    default = cost_summary(scenario_costs["defaults"].costs)
    non_preferred = cost_summary(scenario_costs["non-preferred provider"].costs)
    assert default["04_non-preferred_providers_roots"] == 0
    assert non_preferred["04_non-preferred_providers_roots"] > 0


def test_criterion13_non_preferred_compilers(scenario_costs):
    default = cost_summary(scenario_costs["defaults"].costs)
    clang = cost_summary(scenario_costs["non-preferred compiler"].costs)
    assert clang["13_non-preferred_compilers"] > default["13_non-preferred_compilers"]


def test_criterion15_non_preferred_targets(scenario_costs):
    default = cost_summary(scenario_costs["defaults"].costs)
    haswell = cost_summary(scenario_costs["non-preferred target"].costs)
    assert haswell["15_non-preferred_targets"] > default["15_non-preferred_targets"]


def test_lexicographic_order_prefers_default_everything(scenario_costs):
    """The unconstrained solve must not pay any cost a constrained one avoids:
    its cost vector is lexicographically minimal across all scenarios."""
    default = scenario_costs["defaults"]
    default_vector = tuple(default.costs[k] for k in sorted(default.costs, reverse=True))
    for label, result in scenario_costs.items():
        vector = tuple(result.costs[k] for k in sorted(result.costs, reverse=True))
        assert default_vector <= vector, label
