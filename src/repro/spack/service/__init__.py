"""Concretization-as-a-service: an HTTP front end over async sessions.

Two layers:

* :mod:`repro.spack.service.app` — :class:`ConcretizationService`, the
  transport-independent core: per-tenant catalogs (composed over a shared
  base via :meth:`~repro.spack.repo.ShardedRepository.compose`), request
  deadlines enforced through async-session cancellation, and a bounded
  admission queue that sheds load instead of queueing without bound;
* :mod:`repro.spack.service.http` — a stdlib ``http.server``-on-threads
  transport exposing ``POST /v1/concretize``, ``POST /v1/concretize_batch``
  (ordered, or streamed NDJSON in completion order), ``GET /v1/healthz``,
  and ``GET /v1/stats``.

Run a server with ``python -m repro.spack.service`` (see the README
quickstart), or embed the pieces directly::

    from repro.spack.concretize import SessionConfig
    from repro.spack.service import ConcretizationService, ConcretizationServer

    config = SessionConfig(max_concurrency=4)
    with ConcretizationService(session_config=config) as service:
        server = ConcretizationServer(service, host="127.0.0.1", port=8080)
        server.start()
        ...
        server.stop()

No third-party dependencies: the transport is the standard library's
threading HTTP server, and all solving happens on the service's private
asyncio loop through :class:`~repro.spack.concretize.async_session.\
AsyncConcretizationSession`.
"""

from repro.spack.service.app import (
    DEFAULT_TENANT,
    BadRequestError,
    ConcretizationService,
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
    TenantState,
    UnknownTenantError,
    UnsolvableError,
)
from repro.spack.service.http import ConcretizationServer, serve

__all__ = [
    "DEFAULT_TENANT",
    "BadRequestError",
    "ConcretizationServer",
    "ConcretizationService",
    "DeadlineExceededError",
    "OverloadedError",
    "ServiceError",
    "TenantState",
    "UnknownTenantError",
    "UnsolvableError",
    "serve",
]
