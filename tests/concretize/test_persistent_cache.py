"""Persistent on-disk caches: warm starts, corruption, invalidation.

The contract under test (ISSUE 2 tentpole, act 2): with ``cache_dir`` set,
solved results and grounded bases persist across sessions *and processes*,
warm starts replay with zero groundings and zero solver calls, and every
failure mode — corrupted files, version skew, stale store state, concurrent
writers — degrades to a cold solve: never a crash, never a stale result.
"""

from __future__ import annotations

import glob
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest

from repro.spack.concretize import ConcretizationSession, SessionConfig
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.store import (
    CACHE_FORMAT_VERSION,
    Database,
    PersistentGroundCache,
    PersistentSolveCache,
    SolveCache,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

BATCH = ["example", "example+bzip", "example@1.0.0", "example"]


def signature(result):
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        tuple(sorted((level, cost) for level, cost in result.costs.items() if cost)),
        sorted(result.built),
        sorted(result.reused),
    )


def fresh_session(micro_repo, cache_dir, cache_max_entries=None, **kwargs):
    """A session with cold in-memory caches over a (possibly warm) disk dir."""
    clear_shared_bases()
    config = SessionConfig(cache_dir=str(cache_dir), cache_max_entries=cache_max_entries)
    return ConcretizationSession(repo=micro_repo, session_config=config, **kwargs)


def solve_files(cache_dir):
    return sorted(glob.glob(os.path.join(str(cache_dir), "solve", "*.json")))


def ground_files(cache_dir):
    return sorted(glob.glob(os.path.join(str(cache_dir), "ground", "*.pkl")))


def snapshot_files(cache_dir):
    return sorted(glob.glob(os.path.join(str(cache_dir), "snapshot", "*.snap")))


# ---------------------------------------------------------------------------
# Warm starts
# ---------------------------------------------------------------------------


def test_second_session_replays_from_disk(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    first = [signature(r) for r in one.solve(BATCH)]
    assert len(solve_files(tmp_path)) == 3  # distinct specs only
    assert len(ground_files(tmp_path)) == 1  # one family base

    two = fresh_session(micro_repo, tmp_path)
    second = [signature(r) for r in two.solve(BATCH)]
    assert second == first
    assert two.stats.solve_cache_misses == 0
    assert two.stats.delta_groundings == 0
    assert two.stats.base_groundings == 0
    assert two.solve_cache.statistics()["disk_hits"] == 3


def test_second_process_replays_with_zero_solver_calls(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    first = [str(r.spec) for r in one.solve(BATCH)]

    child_code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[3])\n"
        "from tests.conftest import MICRO_PACKAGES\n"
        "from repro.spack.repo import Repository\n"
        "from repro.spack.concretize import ConcretizationSession, SessionConfig\n"
        "repo = Repository(name='micro', packages=MICRO_PACKAGES)\n"
        "repo.set_provider_preference('mpi', ['mpich', 'openmpi'])\n"
        "repo.set_provider_preference('blas', ['miniblas', 'reflapack'])\n"
        "repo.set_provider_preference('lapack', ['miniblas', 'reflapack'])\n"
        "config = SessionConfig(cache_dir=sys.argv[1])\n"
        "session = ConcretizationSession(repo=repo, session_config=config)\n"
        "results = session.solve(json.loads(sys.argv[2]))\n"
        "print(json.dumps({'stats': session.stats.as_dict(),\n"
        "                  'roots': [str(r.spec) for r in results]}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    child = subprocess.run(
        [sys.executable, "-c", child_code, str(tmp_path), json.dumps(BATCH),
         str(REPO_ROOT)],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )
    assert child.returncode == 0, child.stderr
    payload = json.loads(child.stdout)
    assert payload["roots"] == first
    assert payload["stats"]["solve_cache_misses"] == 0  # zero solver calls
    assert payload["stats"]["delta_groundings"] == 0
    assert payload["stats"]["base_groundings"] == 0


def test_ground_cache_warms_base_for_new_specs(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    one.solve(["example"])

    # cold solve cache (override), warm ground cache: the base comes from
    # disk and only the delta is ground + solved
    two = fresh_session(micro_repo, tmp_path, solve_cache=SolveCache())
    result = two.solve(["example~bzip"])[0]
    assert result.spec.concrete
    assert two.stats.base_groundings == 0
    assert two.stats.base_disk_hits == 1
    assert two.stats.delta_groundings == 1


def test_memo_hit_bases_are_still_written_to_disk(micro_repo, tmp_path):
    """A base grounded by a cache-less session and then *reused* (via the
    process-wide memo) by a persisting session must still land on disk —
    warm starts have to find every base the persisting session used."""
    warmup = ConcretizationSession(repo=micro_repo)  # no cache_dir, shared memo
    warmup.solve(["example"])

    session = ConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(cache_dir=str(tmp_path))
    )
    session.solve(["example~bzip"])
    assert session.stats.base_groundings == 0  # reused the memoized base
    assert len(ground_files(tmp_path)) == 1  # ...but persisted it anyway
    assert session.ground_cache.writes == 1
    # and a repeat solve does not re-probe or re-write
    session.solve(["example@1.0.0"])
    assert session.ground_cache.writes == 1


def test_disk_replayed_results_are_fully_usable(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    original = one.solve(["example+bzip"])[0]

    two = fresh_session(micro_repo, tmp_path)
    replayed = two.solve(["example+bzip"])[0]
    assert signature(replayed) == signature(original)
    assert replayed.spec.concrete
    assert replayed.model is None  # the raw solver model does not persist
    assert replayed.statistics["session"]["solve_cache"] == "hit"
    # replays are independent copies: mutating one cannot poison the cache
    # (variant values are canonically "true"/"false" strings, see
    # normalize_variant_value)
    replayed.spec.variants["bzip"] = "false"
    again = two.solve(["example+bzip"])[0]
    assert again.spec.variants["bzip"] == "true"


# ---------------------------------------------------------------------------
# Corruption and version skew: degrade to a cold solve, never crash
# ---------------------------------------------------------------------------


def test_corrupted_solve_entry_degrades_to_cold_solve(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    expected = signature(one.solve(["example"])[0])
    (path,) = solve_files(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b"\x00garbage, not json\xff")

    two = fresh_session(micro_repo, tmp_path)
    result = two.solve(["example"])[0]
    assert signature(result) == expected  # cold re-solve, correct result
    assert two.stats.solve_cache_misses == 1
    assert two.solve_cache.load_errors == 1
    # the cold solve overwrote the damaged entry: a third session hits again
    three = fresh_session(micro_repo, tmp_path)
    three.solve(["example"])
    assert three.stats.solve_cache_misses == 0


def test_truncated_solve_entry_degrades_to_cold_solve(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    one.solve(["example"])
    (path,) = solve_files(tmp_path)
    payload = pathlib.Path(path).read_bytes()
    with open(path, "wb") as handle:
        handle.write(payload[: len(payload) // 2])

    two = fresh_session(micro_repo, tmp_path)
    assert two.solve(["example"])[0].spec.concrete
    assert two.solve_cache.load_errors == 1


def test_version_mismatch_is_a_miss_not_an_error(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    one.solve(["example"])
    (path,) = solve_files(tmp_path)
    payload = json.loads(pathlib.Path(path).read_text())
    payload["version"] = CACHE_FORMAT_VERSION + 1
    pathlib.Path(path).write_text(json.dumps(payload))

    two = fresh_session(micro_repo, tmp_path)
    assert two.solve(["example"])[0].spec.concrete
    assert two.stats.solve_cache_misses == 1
    assert two.solve_cache.load_errors == 0  # skew is not corruption


def test_corrupted_ground_entry_degrades_to_fresh_grounding(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    expected = signature(one.solve(["example"])[0])
    # damage both on-disk forms of the grounded base: the flat snapshot
    # (preferred on load) and the pickled fallback
    for path in ground_files(tmp_path) + snapshot_files(tmp_path):
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")

    two = fresh_session(micro_repo, tmp_path, solve_cache=SolveCache())
    assert signature(two.solve(["example"])[0]) == expected
    assert two.stats.base_groundings == 1  # cold grounding
    assert two.stats.base_disk_hits == 0
    assert two.ground_cache.load_errors == 1
    assert two.ground_cache.writes == 1  # the damaged entry was overwritten
    assert two.snapshot_store.load_errors == 1
    assert two.snapshot_store.writes == 1
    # the cache self-healed: the next cold session loads the base from disk
    three = fresh_session(micro_repo, tmp_path, solve_cache=SolveCache())
    three.solve(["example"])
    assert three.stats.base_disk_hits == 1
    assert three.stats.base_groundings == 0


def test_ground_cache_version_mismatch_is_a_miss(tmp_path):
    cache = PersistentGroundCache(str(tmp_path))
    cache.put("key", {"some": "payload"})
    (path,) = ground_files(tmp_path)
    payload = pickle.loads(pathlib.Path(path).read_bytes())
    payload["version"] = CACHE_FORMAT_VERSION + 1
    pathlib.Path(path).write_bytes(pickle.dumps(payload))
    assert cache.get("key") is None
    assert cache.load_errors == 0


def test_unwritable_cache_dir_never_fails_the_solve(micro_repo, tmp_path):
    target = tmp_path / "cache"
    target.mkdir()
    # plant regular files where the cache subdirectories must go, so every
    # write fails (works even when the suite runs as root, where permission
    # bits would not)
    (target / "solve").write_text("in the way")
    (target / "ground").write_text("in the way")
    session = fresh_session(micro_repo, target)
    result = session.solve(["example"])[0]
    assert result.spec.concrete
    assert session.solve_cache.write_errors >= 1
    assert session.ground_cache.write_errors >= 1


# ---------------------------------------------------------------------------
# Invalidation: stale inputs can never produce stale answers
# ---------------------------------------------------------------------------


def test_stale_store_generation_bypasses_disk_entries(micro_repo, tmp_path):
    store = Database()
    one = fresh_session(micro_repo, tmp_path, store=store, reuse=True)
    seeded = one.solve(["example"])[0]
    store.install(seeded.spec)  # the store grew: old entries are stale

    two = fresh_session(micro_repo, tmp_path, store=store, reuse=True)
    result = two.solve(["example"])[0]
    assert two.stats.solve_cache_misses == 1  # re-solved, not replayed
    assert result.reused  # and the fresh solve sees the new store content

    # the pre-install key still answers a session over the *empty* store
    empty = fresh_session(micro_repo, tmp_path, store=Database(), reuse=True)
    assert signature(empty.solve(["example"])[0]) == signature(seeded)
    assert empty.stats.solve_cache_misses == 0


def test_warm_replay_preserves_installed_hashes(micro_repo, tmp_path):
    """Reuse solves carry install provenance (Spec.installed_hash); a warm
    disk replay must return it intact, not silently stripped."""
    store = Database()
    seeder = fresh_session(micro_repo, tmp_path / "seed", store=store, reuse=True)
    store.install(seeder.solve(["example"])[0].spec)

    one = fresh_session(micro_repo, tmp_path, store=store, reuse=True)
    cold = one.solve(["example"])[0]
    cold_hashes = {
        node.name: node.installed_hash for node in cold.spec.traverse()
    }
    assert any(cold_hashes.values())  # the solve did reuse installed specs

    two = fresh_session(micro_repo, tmp_path, store=store, reuse=True)
    warm = two.solve(["example"])[0]
    assert two.stats.solve_cache_misses == 0  # replayed from disk
    warm_hashes = {
        node.name: node.installed_hash for node in warm.spec.traverse()
    }
    assert warm_hashes == cold_hashes


def test_preset_change_bypasses_disk_entries(micro_repo, tmp_path):
    from repro.asp.configs import SolverConfig

    one = fresh_session(micro_repo, tmp_path)
    one.solve(["example"])

    two = fresh_session(micro_repo, tmp_path, config=SolverConfig.preset("frumpy"))
    two.solve(["example"])
    assert two.stats.solve_cache_misses == 1  # no cross-preset replay


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------


def test_two_sessions_share_one_cache_dir(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    two = ConcretizationSession(
        repo=micro_repo,
        session_config=SessionConfig(cache_dir=str(tmp_path)),
    )
    a = one.solve(["example"])[0]
    # session two sees session one's write immediately (through disk)
    b = two.solve(["example"])[0]
    assert signature(a) == signature(b)
    assert two.stats.solve_cache_misses == 0
    # and writes by two are visible back to a *new* session
    two.solve(["example~bzip"])
    three = fresh_session(micro_repo, tmp_path)
    three.solve(["example", "example~bzip"])
    assert three.stats.solve_cache_misses == 0


def test_concurrent_writers_to_one_key_never_corrupt(micro_repo, tmp_path):
    one = fresh_session(micro_repo, tmp_path)
    result = one.solve(["example"])[0]
    key = one._solve_key(one._as_specs(["example"])[0])
    pristine = one._copy_result(result)

    caches = [PersistentSolveCache(str(tmp_path)) for _ in range(4)]
    errors = []

    def hammer(cache):
        try:
            for _ in range(10):
                cache.put(key, pristine)
                assert cache.get(key) is not None
        except Exception as exc:  # pragma: no cover - the test is that none happen
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(c,)) for c in caches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert all(cache.write_errors == 0 for cache in caches)
    # the surviving file is complete and loadable
    reader = fresh_session(micro_repo, tmp_path)
    assert reader.solve(["example"])[0].spec.concrete
    assert reader.stats.solve_cache_misses == 0
    # no stray temp files left behind
    leftovers = [f for f in os.listdir(tmp_path / "solve") if f.endswith(".tmp")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# Disk eviction / GC (max_entries / max_bytes, LRU pruning on write)
# ---------------------------------------------------------------------------


def _entry_path(cache, key):
    from repro.spack.store import cache_key_token

    return cache._disk.path_for(cache_key_token(key))


def test_ground_cache_prunes_oldest_beyond_max_entries(tmp_path):
    cache = PersistentGroundCache(str(tmp_path), max_entries=3)
    for index in range(3):
        cache.put(("k", index), {"i": index})
    for index, stamp in enumerate((1000, 2000, 3000)):
        os.utime(_entry_path(cache, ("k", index)), (stamp, stamp))

    cache.put(("k", 3), {"i": 3})  # one over budget: the oldest entry goes
    assert cache.evictions == 1
    assert cache.statistics()["evictions"] == 1
    assert cache.get(("k", 0)) is None
    assert all(cache.get(("k", index)) == {"i": index} for index in (1, 2, 3))


def test_prune_never_evicts_the_entry_just_written(tmp_path):
    cache = PersistentGroundCache(str(tmp_path), max_entries=1, max_bytes=1)
    cache.put(("first",), {"payload": "x" * 256})
    cache.put(("second",), {"payload": "y" * 256})
    # the fresh entry survives even though it alone exceeds max_bytes
    assert cache.get(("second",)) == {"payload": "y" * 256}
    assert cache.get(("first",)) is None
    assert len(ground_files(tmp_path)) == 1


def test_ground_cache_prunes_to_byte_budget(tmp_path):
    cache = PersistentGroundCache(str(tmp_path), max_bytes=2500)
    for index in range(4):
        cache.put(("k", index), {"payload": "x" * 1000})
        os.utime(_entry_path(cache, ("k", index)), (1000 + index, 1000 + index))
    files = ground_files(tmp_path)
    assert len(files) < 4
    assert sum(os.path.getsize(f) for f in files) <= 2500
    assert cache.get(("k", 3)) is not None  # newest always survives


def test_reads_refresh_lru_recency(tmp_path):
    cache = PersistentGroundCache(str(tmp_path), max_entries=2)
    cache.put(("hot",), {"v": 1})
    cache.put(("cold",), {"v": 2})
    os.utime(_entry_path(cache, ("hot",)), (1000, 1000))
    os.utime(_entry_path(cache, ("cold",)), (2000, 2000))

    assert cache.get(("hot",)) == {"v": 1}  # bumps its mtime to now
    cache.put(("new",), {"v": 3})  # evicts 'cold', the true LRU
    assert cache.get(("hot",)) is not None
    assert cache.get(("cold",)) is None
    assert cache.get(("new",)) is not None


def test_session_cache_budgets_bound_both_stores(micro_repo, tmp_path):
    session = fresh_session(micro_repo, tmp_path, cache_max_entries=1)
    first = [signature(r) for r in session.solve(BATCH)]
    assert len(solve_files(tmp_path)) == 1  # 3 distinct results written, 2 pruned
    assert len(ground_files(tmp_path)) == 1
    assert session.solve_cache.statistics()["evictions"] == 2

    # the surviving entry is the most recently written result ("example@1.0.0",
    # the last distinct spec) and still replays without a solver call
    replay = fresh_session(micro_repo, tmp_path, cache_max_entries=1)
    assert [signature(r) for r in replay.solve(["example@1.0.0"])] == [first[2]]
    assert replay.stats.solve_cache_misses == 0
    assert replay.solve_cache.statistics()["disk_hits"] == 1


def test_prune_reaps_stale_tmp_files_but_not_live_ones(tmp_path):
    cache = PersistentGroundCache(str(tmp_path), max_entries=8)
    cache.put(("a",), {"v": 1})
    orphan = tmp_path / "ground" / "orphan.tmp"  # interrupted writer, long dead
    orphan.write_bytes(b"partial")
    os.utime(orphan, (1000, 1000))
    live = tmp_path / "ground" / "live.tmp"  # a writer that may still be going
    live.write_bytes(b"in flight")

    cache.put(("b",), {"v": 2})  # any budgeted write prunes
    assert not orphan.exists()
    assert live.exists()
    assert cache.get(("a",)) is not None and cache.get(("b",)) is not None


# ---------------------------------------------------------------------------
# Concurrent-pruner races (a file vanishing mid-load is a miss, not an error)
# ---------------------------------------------------------------------------


def _loaded_layer(tmp_path):
    """A bare _DiskCacheLayer with one valid entry; returns (layer, token)."""
    from repro.spack.store import _DiskCacheLayer, _JsonCodec

    layer = _DiskCacheLayer(str(tmp_path), "solve", ".json", _JsonCodec)
    ok, _ = layer.store("token", {"answer": 42})
    assert ok
    assert layer.load("token") == ("hit", {"answer": 42})
    return layer, "token"


def test_vanished_before_open_is_a_miss(tmp_path):
    layer, token = _loaded_layer(tmp_path)
    os.unlink(layer.path_for(token))  # the concurrent pruner got there first
    assert layer.load(token) == ("miss", None)


def test_stale_handle_mid_read_is_a_miss(tmp_path, monkeypatch):
    """NFS flavor of the same race: the pruner unlinks after ``open``
    succeeded, so the *read* fails with ESTALE — still a miss, never an
    'error' (which would count as corruption in the cache statistics)."""
    import builtins
    import errno

    layer, token = _loaded_layer(tmp_path)
    target = layer.path_for(token)
    real_open = builtins.open

    def stale_open(file, *args, **kwargs):
        if file == target:
            raise OSError(errno.ESTALE, "Stale file handle", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", stale_open)
    assert layer.load(token) == ("miss", None)


def test_genuinely_unreadable_entry_is_still_an_error(tmp_path, monkeypatch):
    """The miss classification is scoped to vanish flavors: a real I/O error
    (EIO and friends) still classifies as corruption."""
    import builtins
    import errno

    layer, token = _loaded_layer(tmp_path)
    target = layer.path_for(token)
    real_open = builtins.open

    def broken_open(file, *args, **kwargs):
        if file == target:
            raise OSError(errno.EIO, "Input/output error", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", broken_open)
    assert layer.load(token) == ("error", None)


def test_utime_race_after_read_keeps_the_hit(tmp_path, monkeypatch):
    """The LRU refresh races the pruner *after* the payload was read: the
    entry vanishing under ``os.utime`` must not demote the hit (the bytes
    are already in hand)."""
    layer, token = _loaded_layer(tmp_path)
    target = layer.path_for(token)
    real_utime = os.utime

    def pruned_utime(path, *args, **kwargs):
        if path == target:
            os.unlink(target)  # the pruner wins the race ...
            return real_utime(path, *args, **kwargs)  # ... and utime explodes
        return real_utime(path, *args, **kwargs)

    monkeypatch.setattr(os, "utime", pruned_utime)
    assert layer.load(token) == ("hit", {"answer": 42})
    assert not os.path.exists(target)  # the pruner really did win


def test_solve_cache_counts_vanished_entry_as_miss_not_error(
    micro_repo, tmp_path, monkeypatch
):
    """End to end through PersistentSolveCache: a concurrently pruned file
    surfaces as an ordinary disk miss in the statistics, not a load error."""
    import builtins
    import errno

    warm = fresh_session(micro_repo, tmp_path)
    warm.solve(["example"])
    [entry] = solve_files(tmp_path)

    real_open = builtins.open

    def stale_open(file, *args, **kwargs):
        if file == entry:
            raise OSError(errno.ESTALE, "Stale file handle", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", stale_open)
    cold = PersistentSolveCache(str(tmp_path))
    assert cold.get(warm._solve_key(warm._as_specs(["example"])[0])) is None
    stats = cold.statistics()
    assert stats["load_errors"] == 0
    assert stats["disk_misses"] == 1
