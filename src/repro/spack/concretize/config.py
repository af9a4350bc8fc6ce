"""The public session configuration: one frozen object, every knob.

Every concretization front-end (session, HTTP service, CLI) takes its
execution knobs — the service's concurrency, the cache directory and its
disk budgets — from a single frozen :class:`SessionConfig` passed as
``session_config=``::

    config = SessionConfig(cache_dir="/var/cache/concretize")
    session = ConcretizationSession(repo, session_config=config)
    service = ConcretizationService(catalogs, session_config=config)

The per-knob constructor keywords of releases before 2.0.0 are gone: passing
one raises :class:`TypeError`, and ``SessionConfig(<same name>=...)`` is the
replacement for each.  The in-session worker pool and its two fields are
gone since 3.0.0 (passing either raises :class:`TypeError` too): a session
solves in input order, and ``python -m repro.spack.service --workers N``
serves from N processes.  4.0.0 removed the ``profile``, ``snapshots`` and
``share_ground_cache`` fields and the front-ends' own ``max_concurrency``
keywords, leaving only settings a deployment changes.  5.0.0 removed the
event-loop session: the service solves on threads.
The solver's own search knobs live on
:class:`~repro.asp.configs.SolverConfig` (the session's ``config=``).

``SessionConfig`` is immutable and hashable, so it is safe to share one
instance across sessions, services, and threads; derive variants with
:meth:`SessionConfig.replace`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["SessionConfig", "default_worker_count"]


def default_worker_count() -> int:
    """The scheduler-visible CPU count (what ``max_concurrency=None`` means)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SessionConfig:
    """Execution configuration shared by every concretization front-end.

    *Concurrency*

    * ``max_concurrency`` — the service's bound on simultaneous solves per
      tenant: the size of each tenant's solver thread pool (``None``: the
      scheduler-visible CPU count, :func:`default_worker_count`).

    *Persistence*

    * ``cache_dir`` — directory for the persistent solve/ground/snapshot
      layers; ``None`` (default) stays purely in-memory.  With a directory,
      grounded bases always persist, as pickles and as ground snapshots
      that carry their completion templates (see ``docs/CACHING.md``);
    * ``cache_max_entries`` / ``cache_max_bytes`` — LRU disk budgets,
      applied to each persistent layer.
    """

    max_concurrency: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    cache_max_bytes: Optional[int] = None

    def __post_init__(self):
        if self.max_concurrency is not None and int(self.max_concurrency) < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency!r}"
            )

    def replace(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)
