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


#: the search counts summed per preset; unlike times, they repeat exactly
SEARCH_COUNTS = ("decisions", "propagations")


@pytest.fixture(scope="module")
def preset_times(repo):
    times = {preset: [] for preset in PRESETS}
    costs = {}
    searched = {preset: dict.fromkeys(SEARCH_COUNTS, 0) for preset in PRESETS}
    for preset in PRESETS:
        for name in SMALL_SAMPLE:
            concretizer = Concretizer(repo=repo, config=SolverConfig.preset(preset))
            result = concretizer.concretize(name)
            times[preset].append(result.timings["solve"])
            costs.setdefault(name, {})[preset] = tuple(
                result.costs[k] for k in sorted(result.costs, reverse=True)
            )
            for count in SEARCH_COUNTS:
                searched[preset][count] += result.statistics["solver"][count]
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
    return times, costs, searched


def test_fig7d_all_presets_solve_everything(preset_times):
    times, _, _ = preset_times
    for preset in PRESETS:
        assert len(times[preset]) == len(SMALL_SAMPLE)


def test_fig7d_presets_agree_on_optima(preset_times):
    """Optimality is preset-independent; only performance differs."""
    _, costs, _ = preset_times
    for name, by_preset in costs.items():
        assert len(set(by_preset.values())) == 1, name


def test_fig7d_default_preset_is_competitive(preset_times):
    """tweety (the paper's choice) searches no more than any other preset:
    over the sample, its summed decisions and its summed propagations are
    each no higher than every other preset's.  Counts, not times, so the
    check repeats exactly on any host."""
    _, _, searched = preset_times
    for count in SEARCH_COUNTS:
        totals = {preset: searched[preset][count] for preset in PRESETS}
        assert totals["tweety"] == min(totals.values()), (count, totals)
