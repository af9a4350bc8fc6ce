"""Ground snapshots: warm starts with zero grounder work.

The contract under test:

* a second session pointed at the same ``cache_dir`` reaches warm state by
  reading the base's snapshot — no ``Grounder`` work and no completion
  template build at all (asserted by making both raise) — and its results
  are element-wise identical to the cold path, monolithic and sharded
  alike, down to the solver's counts: the restored template is the
  writer's, array for array;
* unsat answers survive the snapshot path too: the minimal conflict core a
  warm session reports is identical to the cold one's;
* damage degrades, never breaks: a truncated or corrupted snapshot, or one
  with a damaged template or header, falls back to the pickle cache
  (or a cold ground when that is damaged too), is counted as a load error,
  and is healed by a fresh write that carries the template again;
* reading a snapshot leaves the cyclic collector as it found it.
"""

from __future__ import annotations

import gc
import json
import pickle
import shutil
import struct

import pytest

from repro.asp.completion import CompletionBuilder, CompletionTemplate
from repro.asp.grounder import Grounder
from repro.asp.snapshot import GroundSnapshot, SnapshotError
from repro.asp.solver import SolverImage
from repro.spack.concretize import SessionConfig
from repro.spack.concretize.session import ConcretizationSession, clear_shared_bases
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.store import SnapshotStore

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


def forbid_base_work(monkeypatch):
    """Any full base grounding or completion template build after this is
    a test failure (per-spec *delta* grounding and completion on top of an
    attached base are legitimate work)."""

    def boom(self, *args, **kwargs):
        raise AssertionError("base work ran on the warm snapshot path")

    monkeypatch.setattr(Grounder, "ground", boom)
    monkeypatch.setattr(CompletionBuilder, "build_template", boom)


def template_state(session):
    """Every array and scalar of the completion template of the session's
    last base."""
    template = session._last_base.prepared._completion.template()
    state = {name: getattr(template.image, name) for name in SolverImage.__slots__}
    state.update(
        (name, getattr(template, name))
        for name in CompletionTemplate.__slots__
        if name != "image"
    )
    return state


def search_counts(result):
    solver = result.statistics["solver"]
    return (
        solver["propagations"],
        solver["decisions"],
        solver["conflicts"],
        result.statistics["optimization"]["models_found"],
    )


def assert_solver_ready_warm_start(cold, cold_results, warm, warm_results):
    """The warm session solved on the writer's template, built none, and
    searched exactly as the cold writer did."""
    assert [signature(r) for r in warm_results] == [signature(r) for r in cold_results]
    assert [search_counts(r) for r in warm_results] == [
        search_counts(r) for r in cold_results
    ]
    assert cold.statistics()["base"]["template_builds"] == 1
    assert warm.statistics()["base"]["template_builds"] == 0
    assert template_state(warm) == template_state(cold)


# ---------------------------------------------------------------------------
# Warm start: attach, don't ground
# ---------------------------------------------------------------------------


def test_monolithic_warm_start_attaches_with_zero_grounder_work(
    micro_repo, tmp_path, monkeypatch
):
    cold = fresh_session(micro_repo, tmp_path)
    cold_results = cold.solve(BATCH)
    assert cold.stats.snapshot_writes >= 1
    assert snapshot_files(tmp_path)

    clear_solve_cache(tmp_path)  # make the warm run need the base for real
    forbid_base_work(monkeypatch)
    warm = fresh_session(micro_repo, tmp_path)
    warm_results = warm.solve(BATCH)

    assert_solver_ready_warm_start(cold, cold_results, warm, warm_results)
    assert warm.stats.base_groundings == 0
    assert warm.stats.snapshot_attaches == 1
    assert warm.statistics()["base"]["snapshot_attached"] is True
    assert warm.statistics()["snapshot_store"]["attaches"] == 1


def test_sharded_warm_start_attaches_the_deepest_prefix(tmp_path, monkeypatch):
    cold = fresh_session(micro_sharded(), tmp_path)
    cold_results = cold.solve(BATCH)
    assert cold.stats.shard_layers_grounded > 0
    assert cold.stats.snapshot_writes >= 1
    # every prefix has a snapshot, and only the deepest, which solves run
    # on, holds a completion template
    deepest = cold.snapshot_store.path_for(cold._last_base.steps[-1][0])
    with_template = []
    for path in snapshot_files(tmp_path):
        if GroundSnapshot.attach(path).header["template"] is not None:
            with_template.append(str(path))
    assert len(snapshot_files(tmp_path)) == len(cold._last_base.steps) > 1
    assert with_template == [deepest]

    clear_solve_cache(tmp_path)
    forbid_base_work(monkeypatch)
    warm = fresh_session(micro_sharded(), tmp_path)
    warm_results = warm.solve(BATCH)

    assert_solver_ready_warm_start(cold, cold_results, warm, warm_results)
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


@pytest.mark.parametrize("warm_from", ["snapshot", "pickle"])
def test_unsat_cores_identical_across_snapshot_warm_start(micro_repo, tmp_path, warm_from):
    """A base found on disk carries the ground program alone, so the warm
    session's conflict core comes from the encoder it ran again: the same
    core as the cold one's, whether the base was attached from its snapshot
    or, with ``snapshot/`` removed, loaded from its pickle."""

    def core(session):
        with pytest.raises(UnsatisfiableSpecError) as excinfo:
            session.solve(["example %intel"])
        return [entry.describe() for entry in excinfo.value.explanation]

    cold = fresh_session(micro_repo, tmp_path)
    cold.solve(BATCH)  # publish the snapshot
    cold_core = core(cold)
    assert cold_core  # non-empty: the conflict is explained

    clear_solve_cache(tmp_path)
    if warm_from == "pickle":
        shutil.rmtree(tmp_path / "snapshot")
    warm = fresh_session(micro_repo, tmp_path)
    assert core(warm) == cold_core
    assert warm.stats.base_groundings == 0
    assert warm.stats.base_disk_hits == 1
    assert warm.stats.snapshot_attaches == (1 if warm_from == "snapshot" else 0)


# ---------------------------------------------------------------------------
# Damage degrades, never breaks
# ---------------------------------------------------------------------------


def lower_template_atoms(data: bytes) -> bytes:
    """``data`` with its header's template atom count lowered by one: still
    valid JSON of the same byte length, so the file attaches, and a
    materialize that trusted the header would hand the template a program
    it does not fit."""
    (length,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + length])
    header["template"]["atoms"] -= 1
    damaged = json.dumps(header).encode("utf-8")
    assert len(damaged) <= length
    return data[:16] + damaged.ljust(length) + data[16 + length :]


@pytest.mark.parametrize("damage", ["truncate", "corrupt", "template", "header"])
def test_damaged_snapshot_falls_back_to_pickle(micro_repo, tmp_path, damage):
    cold = fresh_session(micro_repo, tmp_path)
    cold_results = [signature(r) for r in cold.solve(BATCH)]
    # the payload pickles (program, template), so the template ends the file
    template_bytes = len(pickle.dumps(cold._last_base.prepared._completion.template()))

    for path in snapshot_files(tmp_path):
        data = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(data[: len(data) // 2])
            continue
        if damage == "header":
            path.write_bytes(lower_template_atoms(data))
        else:
            if damage == "corrupt":
                flipped = len(data) // 2
            else:  # a byte inside the pickled template
                flipped = len(data) - template_bytes // 2
            path.write_bytes(
                data[:flipped] + bytes([data[flipped] ^ 0xFF]) + data[flipped + 1 :]
            )
        snapshot = GroundSnapshot.attach(path)
        with pytest.raises(SnapshotError, match="checksum"):
            snapshot.materialize()

    clear_solve_cache(tmp_path)
    warm = fresh_session(micro_repo, tmp_path)
    assert [signature(r) for r in warm.solve(BATCH)] == cold_results
    # no grounding: the intact pickle cache carried the warm start, and the
    # pickle holds no template, so the warm session built one
    assert warm.stats.base_groundings == 0
    assert warm.stats.snapshot_attaches == 0
    assert warm.stats.base_disk_hits == 1
    assert warm.statistics()["base"]["template_builds"] == 1
    store_stats = warm.statistics()["snapshot_store"]
    assert store_stats["load_errors"] == 1
    # self-healed: the damaged snapshot was rewritten, template included
    assert store_stats["writes"] == 1
    clear_solve_cache(tmp_path)
    third = fresh_session(micro_repo, tmp_path)
    assert [signature(r) for r in third.solve(BATCH)] == cold_results
    assert third.stats.snapshot_attaches == 1
    assert third.statistics()["base"]["template_builds"] == 0


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


@pytest.mark.parametrize("collector", ["on", "off"])
def test_snapshot_load_leaves_the_collector_as_it_found_it(micro_repo, tmp_path, collector):
    """The payload is unpickled with the cyclic collector paused; the pause
    ends with the collector as the caller had it, on or off."""
    cold = fresh_session(micro_repo, tmp_path)
    cold.solve(BATCH)
    key = cold._last_base.steps[-1][0]
    store = SnapshotStore(str(tmp_path))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if collector == "on" else gc.disable()
        assert store.load(key) is not None
        assert gc.isenabled() is (collector == "on")
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert store.statistics()["attaches"] == 1
