"""SessionConfig: one frozen config object instead of constructor sprawl.

The contract under test:

* every tuning knob the sessions accept lives in one frozen, validated
  :class:`~repro.spack.concretize.config.SessionConfig`;
* the surfaces removed in 2.0.0 — the per-knob constructor kwargs, the
  service's ``session_kwargs``, per-request solver presets, and the
  ``portfolio`` / ``join_strategy`` / ``persist_ground`` fields — fail with a
  plain ``TypeError`` instead of being silently accepted;
* :class:`ParallelConcretizationSession` keeps ``workers`` as a
  first-class parameter, applied via ``replace()``;
* the async session and the HTTP service accept the same object.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.spack.concretize import SessionConfig
from repro.spack.concretize.async_session import AsyncConcretizationSession
from repro.spack.concretize.session import (
    ConcretizationSession,
    ParallelConcretizationSession,
    clear_shared_bases,
)
from repro.spack.service.app import ConcretizationService


def make_session(repo, **kwargs):
    clear_shared_bases()
    return ConcretizationSession(repo=repo, **kwargs)


# ---------------------------------------------------------------------------
# The config object itself
# ---------------------------------------------------------------------------


def test_config_is_frozen_and_validated():
    config = SessionConfig(workers=2, cache_dir="/tmp/x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.workers = 4
    with pytest.raises(ValueError):
        SessionConfig(workers=0)
    with pytest.raises(ValueError):
        SessionConfig(worker_backend="carrier-pigeon")
    with pytest.raises(ValueError):
        SessionConfig(max_concurrency=0)


def test_replace_returns_a_new_validated_config():
    base = SessionConfig()
    bumped = base.replace(workers=3)
    assert bumped.workers == 3
    assert base.workers == 1  # the original is untouched
    with pytest.raises(ValueError):
        base.replace(workers=-1)


# ---------------------------------------------------------------------------
# Sessions accept the config; the removed surfaces fail loudly
# ---------------------------------------------------------------------------


def test_session_accepts_session_config(micro_repo):
    session = make_session(
        micro_repo,
        session_config=SessionConfig(workers=2, worker_backend="thread", profile=True),
    )
    assert session.workers == 2
    assert session.worker_backend == "thread"
    assert session.session_config.profile is True
    assert session.asp_stats is not None


REMOVED_SURFACES = {
    "config-portfolio": lambda repo, tmp: SessionConfig(portfolio=True),
    "config-join-strategy": lambda repo, tmp: SessionConfig(join_strategy="naive"),
    "config-persist-ground": lambda repo, tmp: SessionConfig(persist_ground=False),
    "session-kwarg": lambda repo, tmp: ConcretizationSession(repo=repo, workers=2),
    "async-session-kwarg": lambda repo, tmp: AsyncConcretizationSession(
        repo=repo, cache_dir=str(tmp)
    ),
    "service-session-kwargs": lambda repo, tmp: ConcretizationService(
        base_repo=repo, session_kwargs={"share_ground_cache": False}
    ),
    "request-preset": lambda repo, tmp: make_session(repo).solve(
        ["example"], preset="tweety"
    ),
}


@pytest.mark.parametrize("surface", sorted(REMOVED_SURFACES))
def test_removed_surfaces_raise_type_error(micro_repo, tmp_path, surface):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        REMOVED_SURFACES[surface](micro_repo, tmp_path)
    assert not list(tmp_path.iterdir())  # nothing was configured, nothing written


def test_session_config_must_be_a_session_config(micro_repo):
    with pytest.raises(TypeError, match="must be a SessionConfig"):
        make_session(micro_repo, session_config={"workers": 2})


def test_unknown_kwarg_raises_type_error(micro_repo):
    with pytest.raises(TypeError, match="unexpected keyword argument 'warp_speed'"):
        make_session(micro_repo, warp_speed=9)


def test_config_only_construction_emits_no_warnings(micro_repo):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = make_session(micro_repo, session_config=SessionConfig(workers=2))
    assert session.workers == 2


def test_parallel_session_workers_is_first_class(micro_repo):
    clear_shared_bases()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = ParallelConcretizationSession(repo=micro_repo, workers=2)
    assert session.workers == 2
    # and it composes with an explicit config
    clear_shared_bases()
    session = ParallelConcretizationSession(
        repo=micro_repo,
        workers=3,
        session_config=SessionConfig(worker_backend="thread"),
    )
    assert session.workers == 3
    assert session.worker_backend == "thread"


def test_async_session_inherits_config_max_concurrency(micro_repo):
    clear_shared_bases()
    async_session = AsyncConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(max_concurrency=3)
    )
    assert async_session.max_concurrency == 3
