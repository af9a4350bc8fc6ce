"""The public session configuration: one frozen object, every knob.

Every concretization front-end (sync session, async session, HTTP service,
CLI) takes its execution knobs — the async front-end's concurrency, cache
directories, disk budgets, profiling, snapshot behaviour — from a single
frozen :class:`SessionConfig` passed as ``session_config=``::

    config = SessionConfig(cache_dir="/var/cache/concretize")
    session = ConcretizationSession(repo, session_config=config)
    service = ConcretizationService(catalogs, session_config=config)

The per-knob constructor keywords of releases before 2.0.0 are gone: passing
one raises :class:`TypeError`, and ``SessionConfig(<same name>=...)`` is the
replacement for each.  The in-session worker pool and its two fields are
gone since 3.0.0 (passing either raises :class:`TypeError` too): a session
solves in input order, and ``python -m repro.spack.service --workers N``
serves from N processes.
The solver's own search knobs live on
:class:`~repro.asp.configs.SolverConfig` (the session's ``config=``).

``SessionConfig`` is immutable and hashable, so it is safe to share one
instance across sessions, services, and threads; derive variants with
:meth:`SessionConfig.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

__all__ = ["SessionConfig"]


@dataclass(frozen=True)
class SessionConfig:
    """Execution configuration shared by every concretization front-end.

    *Concurrency*

    * ``max_concurrency`` — async front-end only: the bound on simultaneous
      solves and the size of its solver thread pool (``None``: the
      scheduler-visible CPU count; the service defaults to 4).

    *Persistence*

    * ``cache_dir`` — directory for the persistent solve/ground/snapshot
      layers; ``None`` (default) stays purely in-memory.  With a directory,
      grounded bases always persist;
    * ``snapshots`` — set False to skip the flat mmap-able ground snapshots
      (``cache_dir`` then persists pickled bases only; see
      ``docs/CACHING.md``);
    * ``cache_max_entries`` / ``cache_max_bytes`` — LRU disk budgets,
      applied to each persistent layer;
    * ``share_ground_cache`` — set False to opt out of the process-wide
      in-memory grounded-base memo.

    *Instrumentation*

    * ``profile`` — ``True`` for per-stage grounding/solving timers,
      ``"rules"`` to also time each rule.
    """

    max_concurrency: Optional[int] = None
    cache_dir: Optional[str] = None
    snapshots: bool = True
    cache_max_entries: Optional[int] = None
    cache_max_bytes: Optional[int] = None
    share_ground_cache: bool = True
    profile: Union[bool, str] = False

    def __post_init__(self):
        if self.max_concurrency is not None and int(self.max_concurrency) < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency!r}"
            )

    def replace(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)
