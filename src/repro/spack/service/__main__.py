"""CLI entry point: ``python -m repro.spack.service [--host H] [--port P]``.

Serves the builtin catalog as the ``default`` tenant.  Options mirror the
:class:`~repro.spack.service.app.ConcretizationService` knobs that matter
operationally: queue depth and default deadline, plus the concurrency and
cache directory it passes on through one
:class:`~repro.spack.concretize.config.SessionConfig`.  ``--workers N``
selects the pre-forked multi-process mode: N processes accept on one
socket and share warm ground state through the ground snapshot files under
``--cache-dir`` (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import argparse

from repro.spack.concretize.config import SessionConfig
from repro.spack.service.app import ConcretizationService
from repro.spack.service.http import serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spack.service",
        description="Serve the ASP concretizer over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--workers", type=int, default=1,
                        help="server processes sharing the listen socket; "
                             "combine with --cache-dir so they share one "
                             "ground snapshot")
    parser.add_argument("--max-concurrency", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=8)
    parser.add_argument("--deadline", type=float, default=30.0,
                        help="default per-request deadline in seconds")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent solve/ground/snapshot cache directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.workers > 1 and not args.cache_dir:
        parser.error("--workers > 1 requires --cache-dir (workers share warm "
                     "state through the snapshot cache on disk)")

    session_config = SessionConfig(
        max_concurrency=args.max_concurrency, cache_dir=args.cache_dir
    )

    def service_factory() -> ConcretizationService:
        return ConcretizationService(
            queue_limit=args.queue_limit,
            default_deadline_s=args.deadline,
            session_config=session_config,
        )

    serve(
        args.host,
        args.port,
        verbose=not args.quiet,
        workers=args.workers,
        service_factory=service_factory,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
