"""SessionConfig: one frozen config object instead of constructor sprawl.

The contract under test:

* every tuning knob the sessions accept lives in one frozen, validated
  :class:`~repro.spack.concretize.config.SessionConfig`;
* the surfaces removed in 2.0.0 — the per-knob constructor kwargs, the
  service's ``session_kwargs``, per-request solver presets, and the
  ``portfolio`` / ``join_strategy`` / ``persist_ground`` fields — and in
  3.0.0 — the in-session worker pool's ``workers`` / ``worker_backend``
  fields and the service's ``worker_backend`` — fail with a plain
  ``TypeError`` instead of being silently accepted;
* the async session and the HTTP service accept the same object.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.spack.concretize import SessionConfig
from repro.spack.concretize.async_session import AsyncConcretizationSession
from repro.spack.concretize.session import ConcretizationSession, clear_shared_bases
from repro.spack.service.app import ConcretizationService


def make_session(repo, **kwargs):
    clear_shared_bases()
    return ConcretizationSession(repo=repo, **kwargs)


# ---------------------------------------------------------------------------
# The config object itself
# ---------------------------------------------------------------------------


def test_config_is_frozen_and_validated():
    config = SessionConfig(max_concurrency=2, cache_dir="/tmp/x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_concurrency = 4
    with pytest.raises(ValueError):
        SessionConfig(max_concurrency=0)


def test_replace_returns_a_new_validated_config():
    base = SessionConfig()
    bumped = base.replace(max_concurrency=3)
    assert bumped.max_concurrency == 3
    assert base.max_concurrency is None  # the original is untouched
    with pytest.raises(ValueError):
        base.replace(max_concurrency=-1)


# ---------------------------------------------------------------------------
# Sessions accept the config; the removed surfaces fail loudly
# ---------------------------------------------------------------------------


def test_session_accepts_session_config(micro_repo):
    session = make_session(
        micro_repo,
        session_config=SessionConfig(share_ground_cache=False, profile=True),
    )
    assert session.share_ground_cache is False
    assert session.session_config.profile is True
    assert session.asp_stats is not None


REMOVED_SURFACES = {
    "config-portfolio": lambda repo, tmp: SessionConfig(portfolio=True),
    "config-join-strategy": lambda repo, tmp: SessionConfig(join_strategy="naive"),
    "config-persist-ground": lambda repo, tmp: SessionConfig(persist_ground=False),
    "config-workers": lambda repo, tmp: SessionConfig(workers=2),
    "config-worker-backend": lambda repo, tmp: SessionConfig(worker_backend="thread"),
    "service-worker-backend": lambda repo, tmp: ConcretizationService(
        base_repo=repo, worker_backend="thread"
    ),
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
        make_session(micro_repo, session_config={"cache_dir": "/tmp/x"})


def test_unknown_kwarg_raises_type_error(micro_repo):
    with pytest.raises(TypeError, match="unexpected keyword argument 'warp_speed'"):
        make_session(micro_repo, warp_speed=9)


def test_config_only_construction_emits_no_warnings(micro_repo):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = make_session(micro_repo, session_config=SessionConfig(snapshots=False))
    assert session.session_config.snapshots is False


def test_async_session_inherits_config_max_concurrency(micro_repo):
    clear_shared_bases()
    async_session = AsyncConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(max_concurrency=3)
    )
    assert async_session.max_concurrency == 3
