"""mmap-able ground snapshots: warm starts with zero grounder work.

The contract under test (ISSUE 9 tentpole):

* a second session pointed at the same ``cache_dir`` reaches warm state by
  *attaching* the flat binary snapshot — no pickle object-graph walk, no
  ``Grounder`` work at all (asserted by making grounding raise) — and its
  results are element-wise identical to the cold path, monolithic and
  sharded alike;
* unsat answers survive the snapshot path too: the minimal conflict core a
  warm session reports is identical to the cold one's;
* damage degrades, never breaks: a truncated or corrupted snapshot falls
  back to the pickle cache (or a cold ground when that is damaged too), is
  counted as a load error, and is healed by a fresh write.
"""

from __future__ import annotations

import pytest

from repro.asp.grounder import Grounder
from repro.spack.concretize import SessionConfig
from repro.spack.concretize.session import ConcretizationSession, clear_shared_bases
from repro.spack.errors import UnsatisfiableSpecError

from tests.concretize.test_sharded_repo import micro_sharded, signature

BATCH = ["example", "example+bzip", "example@1.0.0"]


def fresh_session(repo, cache_dir) -> ConcretizationSession:
    """A session that finds bases only on disk: the process-wide memo is
    emptied first, as a new process would start."""
    clear_shared_bases()
    config = SessionConfig(cache_dir=str(cache_dir))
    return ConcretizationSession(repo=repo, session_config=config)


def snapshot_files(cache_dir):
    return sorted((cache_dir / "snapshot").glob("*.snap"))


def pickle_files(cache_dir):
    return sorted((cache_dir / "ground").glob("*.pkl"))


def clear_solve_cache(cache_dir):
    """Force warm runs to actually *solve* (and hence need the base) instead
    of answering everything from the persistent solve cache."""
    for path in (cache_dir / "solve").glob("*.json"):
        path.unlink()


def forbid_base_grounding(monkeypatch):
    """Any full base grounding after this is a test failure (per-spec
    *delta* grounding on top of an attached base is legitimate work)."""

    def boom(self, *args, **kwargs):
        raise AssertionError("full base grounding ran on the warm snapshot path")

    monkeypatch.setattr(Grounder, "ground", boom)


# ---------------------------------------------------------------------------
# Warm start: attach, don't ground
# ---------------------------------------------------------------------------


def test_monolithic_warm_start_attaches_with_zero_grounder_work(
    micro_repo, tmp_path, monkeypatch
):
    cold = fresh_session(micro_repo, tmp_path)
    cold_results = [signature(r) for r in cold.solve(BATCH)]
    assert cold.stats.snapshot_writes >= 1
    assert snapshot_files(tmp_path)

    clear_solve_cache(tmp_path)  # make the warm run need the base for real
    forbid_base_grounding(monkeypatch)
    warm = fresh_session(micro_repo, tmp_path)
    warm_results = [signature(r) for r in warm.solve(BATCH)]

    assert warm_results == cold_results
    assert warm.stats.base_groundings == 0
    assert warm.stats.snapshot_attaches == 1
    assert warm.statistics()["base"]["snapshot_attached"] is True
    assert warm.statistics()["snapshot_store"]["attaches"] == 1


def test_sharded_warm_start_attaches_the_deepest_prefix(tmp_path, monkeypatch):
    cold = fresh_session(micro_sharded(), tmp_path)
    cold_results = [signature(r) for r in cold.solve(BATCH)]
    assert cold.stats.shard_layers_grounded > 0
    assert cold.stats.snapshot_writes >= 1

    clear_solve_cache(tmp_path)
    forbid_base_grounding(monkeypatch)
    warm = fresh_session(micro_sharded(), tmp_path)
    warm_results = [signature(r) for r in warm.solve(BATCH)]

    assert warm_results == cold_results
    assert warm.stats.shard_layers_grounded == 0
    assert warm.stats.base_groundings == 0
    # deepest-prefix-wins: one attach restores the whole layered chain
    assert warm.stats.snapshot_attaches == 1


def test_warm_base_still_solves_new_specs(micro_repo, tmp_path):
    """A snapshot-attached base is a *live* base: delta grounding for a
    spec the cold run never saw (same family, so same base key) works on
    top of it."""
    cold = fresh_session(micro_repo, tmp_path)
    cold.solve(BATCH)

    warm = fresh_session(micro_repo, tmp_path)
    fresh_result = signature(warm.solve(["example~bzip"])[0])
    assert warm.stats.base_groundings == 0
    assert warm.stats.snapshot_attaches == 1
    assert warm.stats.delta_groundings == 1

    reference = fresh_session(micro_repo, tmp_path / "other")
    assert fresh_result == signature(reference.solve(["example~bzip"])[0])


def test_unsat_cores_identical_across_snapshot_warm_start(micro_repo, tmp_path):
    def core(session):
        with pytest.raises(UnsatisfiableSpecError) as excinfo:
            session.solve(["example %intel"])
        return [entry.describe() for entry in excinfo.value.explanation]

    cold = fresh_session(micro_repo, tmp_path)
    cold.solve(BATCH)  # publish the snapshot
    cold_core = core(cold)
    assert cold_core  # non-empty: the conflict is explained

    clear_solve_cache(tmp_path)
    warm = fresh_session(micro_repo, tmp_path)
    assert core(warm) == cold_core
    assert warm.stats.base_groundings == 0
    assert warm.stats.snapshot_attaches == 1


# ---------------------------------------------------------------------------
# Damage degrades, never breaks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("damage", ["truncate", "corrupt"])
def test_damaged_snapshot_falls_back_to_pickle(micro_repo, tmp_path, damage):
    cold = fresh_session(micro_repo, tmp_path)
    cold_results = [signature(r) for r in cold.solve(BATCH)]

    for path in snapshot_files(tmp_path):
        data = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(data[: len(data) // 2])
        else:
            middle = len(data) // 2
            path.write_bytes(data[:middle] + b"\xff" + data[middle + 1 :])

    clear_solve_cache(tmp_path)
    warm = fresh_session(micro_repo, tmp_path)
    assert [signature(r) for r in warm.solve(BATCH)] == cold_results
    # no grounding: the intact pickle cache carried the warm start
    assert warm.stats.base_groundings == 0
    assert warm.stats.snapshot_attaches == 0
    assert warm.stats.base_disk_hits == 1
    store_stats = warm.statistics()["snapshot_store"]
    assert store_stats["load_errors"] == 1
    # self-healed: the damaged snapshot was rewritten
    assert store_stats["writes"] == 1


def test_damaged_snapshot_and_pickle_degrade_to_cold_ground(micro_repo, tmp_path):
    cold = fresh_session(micro_repo, tmp_path)
    cold_results = [signature(r) for r in cold.solve(BATCH)]

    for path in snapshot_files(tmp_path) + pickle_files(tmp_path):
        path.write_bytes(b"\x00garbage\x00")

    clear_solve_cache(tmp_path)
    warm = fresh_session(micro_repo, tmp_path)
    assert [signature(r) for r in warm.solve(BATCH)] == cold_results
    assert warm.stats.base_groundings == 1  # genuinely cold
    assert warm.stats.snapshot_attaches == 0
    assert warm.statistics()["snapshot_store"]["load_errors"] == 1

    # and the heal is real: a third session attaches the rewritten snapshot
    clear_solve_cache(tmp_path)
    third = fresh_session(micro_repo, tmp_path)
    assert [signature(r) for r in third.solve(BATCH)] == cold_results
    assert third.stats.base_groundings == 0
    assert third.stats.snapshot_attaches == 1
