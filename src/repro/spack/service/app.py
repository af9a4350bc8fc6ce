"""The transport-independent core of the concretization service.

:class:`ConcretizationService` fronts one
:class:`~repro.spack.concretize.session.ConcretizationSession` per tenant
with the three behaviors a real multi-user deployment needs:

* **deadlines** — every request carries a deadline in seconds (its own, or
  the service default).  The request's thread waits on its solves with
  :func:`concurrent.futures.as_completed` for the time that is left; when
  the deadline passes first it *cancels* every solve not yet started (a
  solve already running finishes on its thread and still fills the cache)
  and surfaces as :class:`DeadlineExceededError` (HTTP 504);
* **backpressure** — a bounded admission queue maps onto the session
  config's ``max_concurrency``: at most ``max_concurrency + queue_limit``
  requests may be in flight (admitted requests beyond ``max_concurrency``
  wait for a solver thread); one more is shed immediately with
  :class:`OverloadedError` (HTTP 429 + ``Retry-After``) instead of queueing
  without bound;
* **per-tenant catalogs** — each registered tenant gets its own composed
  repository via :meth:`~repro.spack.repo.ShardedRepository.compose`
  (tenant overlay shards layered *over* the shared base catalog), its own
  session, and its own solve cache.  Because overlay shards ground last,
  the base catalog's ground layers are shared across every tenant through
  the process-wide layer memo, and a tenant editing its overlay re-grounds
  exactly one layer — warm per-tenant state stays cheap (see
  ``docs/CACHING.md``).

The service runs on threads only.  The calling thread (one per HTTP
request in :mod:`repro.spack.service.http`) parses, admits, and answers
cache hits and in-batch duplicates itself; each distinct miss runs on its
tenant's one :class:`~concurrent.futures.ThreadPoolExecutor` of
``max_concurrency`` threads, which finds or grounds the base, solves, and
writes the cache (``ConcretizationSession._solve_miss``, the same code a
sequential ``solve`` runs).  A hit crosses no thread; a miss crosses two.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import as_completed
from contextlib import closing
from threading import Lock, Semaphore
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.spack.concretize.concretizer import ConcretizationResult
from repro.spack.concretize.config import SessionConfig, default_worker_count
from repro.spack.concretize.session import ConcretizationSession
from repro.spack.errors import (
    SpackError,
    SpecSyntaxError,
    UnknownPackageError,
    UnsatisfiableSpecError,
)
from repro.spack.package import PackageBase
from repro.spack.repo import Repository, RepositoryShard, ShardedRepository, builtin_repository
from repro.spack.spec import Spec
from repro.spack.spec_parser import parse_spec

#: Name under which requests without a tenant resolve (the shared base
#: catalog, no overlay).
DEFAULT_TENANT = "default"


# ---------------------------------------------------------------------------
# Service-level errors (each knows its HTTP status)
# ---------------------------------------------------------------------------


def error_body(
    status: int, code: str, message: str, detail: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The one error envelope every service response uses.

    All error bodies — every 400/404/422/429/500/504 JSON response and
    every terminal NDJSON error record — have exactly this shape::

        {"status": <int>, "error": {"code": ..., "message": ..., "detail": {...}}}

    ``code`` is a stable machine-readable identifier (``bad_request``,
    ``unknown_tenant``, ``unsolvable``, ``overloaded``,
    ``deadline_exceeded``, ``not_found``, ``internal``);
    ``message`` is human-readable and may change; ``detail`` carries
    error-specific structured fields (possibly empty, never absent).  See
    ``docs/SERVICE.md``.
    """
    return {
        "status": status,
        "error": {"code": code, "message": message, "detail": dict(detail or {})},
    }


class ServiceError(SpackError):
    """Base class for request-level service failures."""

    status = 500
    code = "internal"

    def detail(self) -> Dict[str, object]:
        """Error-specific structured fields (the ``error.detail`` object)."""
        return {}

    def payload(self) -> Dict[str, object]:
        return error_body(self.status, self.code, str(self), self.detail())


class BadRequestError(ServiceError):
    """Malformed request: unparsable spec, bad deadline, bad body (400)."""

    status = 400
    code = "bad_request"


class UnknownTenantError(ServiceError):
    """The request names a tenant that was never registered (404)."""

    status = 404
    code = "unknown_tenant"

    def __init__(self, tenant: str):
        super().__init__(f"unknown tenant {tenant!r}")
        self.tenant = tenant

    def detail(self) -> Dict[str, object]:
        return {"tenant": self.tenant}


class OverloadedError(ServiceError):
    """The admission queue is full; shed load instead of queueing (429)."""

    status = 429
    code = "overloaded"

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"admission queue full, retry after {retry_after_s:g}s"
        )
        self.retry_after_s = retry_after_s

    def detail(self) -> Dict[str, object]:
        return {"retry_after_s": self.retry_after_s}


class DeadlineExceededError(ServiceError):
    """The request's deadline elapsed; its solve was cancelled (504)."""

    status = 504
    code = "deadline_exceeded"

    def __init__(self, deadline_s: float):
        super().__init__(f"deadline of {deadline_s:g}s exceeded")
        self.deadline_s = deadline_s

    def detail(self) -> Dict[str, object]:
        return {"deadline_s": self.deadline_s}


class UnsolvableError(ServiceError):
    """The spec parsed but cannot be concretized (422).

    For unsatisfiable specs ``error.detail`` carries the **minimal conflict
    core** extracted by :func:`~repro.spack.concretize.explain.explain_unsat`
    — ``conflict_core`` is a list of constraint-provenance dicts (package,
    kind, directive, when, and a rendered ``constraint`` line) — plus the
    ``specs`` that were requested, so clients can show *why* without parsing
    the message text.
    """

    status = 422
    code = "unsolvable"

    def __init__(
        self,
        message: str,
        explanation: Optional[Sequence[Dict[str, object]]] = None,
        specs: Optional[Sequence[str]] = None,
    ):
        super().__init__(message)
        self.explanation = list(explanation or ())
        self.specs = list(specs or ())

    def detail(self) -> Dict[str, object]:
        body: Dict[str, object] = {"conflict_core": self.explanation}
        if self.specs:
            body["specs"] = self.specs
        return body


# ---------------------------------------------------------------------------
# Tenants
# ---------------------------------------------------------------------------


class TenantState:
    """One tenant's composed catalog, its session and its solver threads."""

    def __init__(self, name: str, repo: Repository, *, session_config: SessionConfig):
        self.name = name
        self.repo = repo
        self.session = ConcretizationSession(repo=repo, session_config=session_config)
        #: each distinct cache miss solves on one of these threads
        self.pool = ThreadPoolExecutor(
            session_config.max_concurrency or default_worker_count(),
            thread_name_prefix=f"repro-solve-{name}",
        )
        self.overlay: Optional[ShardedRepository] = None
        self.requests = 0

    def statistics(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "requests": self.requests,
            "catalog": self.repo.name,
            "packages": len(self.repo),
        }
        stats.update(self.session.statistics())
        return stats


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class ConcretizationService:
    """Deadline- and backpressure-aware front end over per-tenant sessions.

    Parameters:

    * ``base_repo`` — the shared base catalog every tenant composes over
      (default: :func:`~repro.spack.repo.builtin_repository`);
    * ``queue_limit`` — how many admitted requests may *wait* beyond
      ``max_concurrency`` before new ones are shed with 429;
    * ``default_deadline_s`` — deadline applied when a request carries none;
    * ``retry_after_s`` — the hint returned with 429 responses;
    * ``session_config`` — a :class:`~repro.spack.concretize.SessionConfig`
      applied to every tenant session: its ``max_concurrency`` sizes each
      tenant's solver thread pool, and so bounds its simultaneous solves
      (``None`` means the scheduler-visible CPU count), ``cache_dir``
      enables warm restarts and shared snapshots.  Process parallelism
      comes from serving with ``--workers N``
      (:func:`~repro.spack.service.http.serve`).

    Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        base_repo: Optional[Repository] = None,
        *,
        queue_limit: int = 8,
        default_deadline_s: float = 30.0,
        retry_after_s: float = 1.0,
        session_config: Optional[SessionConfig] = None,
    ):
        config = session_config if session_config is not None else SessionConfig()
        if int(queue_limit) < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit!r}")
        self.base_repo = base_repo if base_repo is not None else builtin_repository()
        self.max_concurrency = int(config.max_concurrency or default_worker_count())
        self.queue_limit = int(queue_limit)
        self.default_deadline_s = float(default_deadline_s)
        self.retry_after_s = float(retry_after_s)
        self.session_config = config

        self._admission = Semaphore(self.max_concurrency + self.queue_limit)
        self._lock = Lock()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "admitted": 0,
            "completed": 0,
            "rejected_overload": 0,
            "deadline_exceeded": 0,
            "parse_errors": 0,
            "unsolvable": 0,
            "in_flight": 0,
            "specs_concretized": 0,
        }

        self._tenants: Dict[str, TenantState] = {}
        self._started = False
        self._closed = False
        self.add_tenant(DEFAULT_TENANT)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ConcretizationService":
        """Accept requests (idempotent); a closed service cannot restart."""
        if self._closed:
            raise RuntimeError("service is closed")
        self._started = True
        return self

    def close(self) -> None:
        """Stop accepting requests and release every tenant's solver threads.

        Solves not yet started are dropped; a solve already running
        finishes on its thread.  A closed service stays closed: build a
        new one to serve again.
        """
        self._closed = True
        for state in self._tenants.values():
            state.pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ConcretizationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- tenants --------------------------------------------------------

    def add_tenant(
        self,
        name: str,
        packages: Iterable[Type[PackageBase]] = (),
        overlay: Optional[Repository] = None,
    ) -> TenantState:
        """Register a tenant catalog composed over the shared base.

        ``packages`` become the tenant's overlay shard; alternatively pass a
        ready-made ``overlay`` repository.  With neither, the tenant serves
        the base catalog as-is (still useful: it gets its own solve cache
        and statistics).  The composed repository layers overlay shards
        *after* the base shards, so every tenant shares the base ground
        layers and a tenant overlay edit re-grounds exactly one layer.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        packages = list(packages)
        if overlay is None and packages:
            overlay = ShardedRepository(
                name=name, shards=[RepositoryShard(f"{name}-overlay", packages)]
            )
        if overlay is None:
            repo: Repository = self.base_repo
        else:
            repo = ShardedRepository.compose(overlay, self.base_repo)
        state = TenantState(name, repo, session_config=self.session_config)
        state.overlay = overlay if isinstance(overlay, ShardedRepository) else None
        self._tenants[name] = state
        return state

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def _tenant(self, name: Optional[str]) -> TenantState:
        state = self._tenants.get(name or DEFAULT_TENANT)
        if state is None:
            raise UnknownTenantError(name)
        return state

    # -- request plumbing ----------------------------------------------

    def _count(self, key: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[key] += delta

    def _parse_specs(self, texts: Sequence[str]) -> List[Spec]:
        if not texts:
            raise BadRequestError("empty batch: no specs to concretize")
        specs: List[Spec] = []
        for text in texts:
            if not isinstance(text, str) or not text.strip():
                self._count("parse_errors")
                raise BadRequestError(f"empty or non-string spec: {text!r}")
            try:
                specs.append(parse_spec(text))
            except SpecSyntaxError as exc:
                self._count("parse_errors")
                raise BadRequestError(f"unparsable spec {text!r}: {exc}") from exc
            except SpackError as exc:
                self._count("parse_errors")
                raise BadRequestError(f"invalid spec {text!r}: {exc}") from exc
        return specs

    def _deadline(self, deadline_s: Optional[float]) -> float:
        if deadline_s is None:
            return self.default_deadline_s
        try:
            deadline = float(deadline_s)
        except (TypeError, ValueError):
            raise BadRequestError(f"deadline must be a number, got {deadline_s!r}") from None
        if deadline <= 0:
            raise BadRequestError(f"deadline must be > 0 seconds, got {deadline!r}")
        return deadline

    def _admit(
        self, texts: Sequence[str], tenant: Optional[str], deadline_s: Optional[float]
    ) -> Tuple[TenantState, List[Spec], float]:
        """Count, parse and admit one request; every failure here is a plain
        error, raised before anything is solved.  An admitted request must
        reach :meth:`_release` on every exit."""
        self._check_running()
        self._count("requests")
        state = self._tenant(tenant)
        specs = self._parse_specs(texts)
        deadline = self._deadline(deadline_s)
        if not self._admission.acquire(blocking=False):
            self._count("rejected_overload")
            raise OverloadedError(self.retry_after_s)
        with self._lock:
            self.counters["admitted"] += 1
            self.counters["in_flight"] += 1
            state.requests += 1
        return state, specs, deadline

    def _release(self) -> None:
        self._admission.release()
        self._count("in_flight", -1)

    @staticmethod
    def _map_solve_error(exc: BaseException) -> ServiceError:
        if isinstance(exc, ServiceError):
            return exc
        if isinstance(exc, UnknownPackageError):
            return UnsolvableError(str(exc))
        if isinstance(exc, UnsatisfiableSpecError):
            return UnsolvableError(
                str(exc),
                explanation=[
                    {
                        "package": entry.package,
                        "kind": entry.kind,
                        "directive": entry.directive,
                        "when": entry.when,
                        "constraint": entry.describe(),
                    }
                    for entry in exc.explanation
                ],
                specs=list(exc.specs),
            )
        if isinstance(exc, SpackError):
            return UnsolvableError(str(exc))
        raise exc  # genuinely unexpected: let the transport return 500

    def _result_payload(
        self, index: int, text: str, result: ConcretizationResult
    ) -> Dict[str, object]:
        session_stats = result.statistics.get("session")
        cache = (
            session_stats.get("solve_cache")
            if isinstance(session_stats, dict)
            else None
        )
        return {
            "index": index,
            "spec": text,
            "concrete": str(result.spec),
            "dag_hash": result.spec.dag_hash(),
            "nodes": len(result.specs),
            "built": sorted(result.built),
            "reused": sorted(result.reused),
            "solve_cache": cache,
        }

    # -- solving --------------------------------------------------------

    def _check_running(self) -> None:
        if not self._started or self._closed:
            raise RuntimeError("service is not running (call start() first)")

    @staticmethod
    def _solve(
        state: TenantState, specs: List[Spec], deadline_s: float
    ) -> Iterator[Tuple[int, ConcretizationResult]]:
        """Yield ``(input index, result)`` pairs in completion order.

        Cache hits and in-batch duplicates of them are answered on the
        calling thread and yield first; each distinct miss solves on the
        tenant's threads and yields, with its in-batch duplicates, the
        moment it finishes.  An unsatisfiable spec does not end the
        stream: after the last result, the error of the earliest
        unsatisfiable *input* is raised, the one
        ``ConcretizationSession.solve`` would raise first.  When
        ``deadline_s`` passes first, :class:`DeadlineExceededError` is
        raised; on that and every other exit, solves not yet started are
        cancelled.
        """
        session = state.session
        deadline_at = time.monotonic() + deadline_s
        hits, failures, misses = session._cache_pass(specs)
        futures = {
            state.pool.submit(session._solve_miss, key, specs[indices[0]]): indices
            for key, indices in misses.items()
        }
        try:
            yield from hits
            for future in as_completed(futures, max(0.0, deadline_at - time.monotonic())):
                indices = futures[future]
                try:
                    result = future.result()
                except UnsatisfiableSpecError as error:
                    failures.append((indices[0], error))
                    continue
                # duplicates replay before the first copy leaves this frame
                replays = [session._replay(result) for _ in indices[1:]]
                yield from zip(indices, [result, *replays])
        except FuturesTimeoutError:
            raise DeadlineExceededError(deadline_s) from None
        finally:
            for future in futures:
                future.cancel()
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]

    def concretize(
        self,
        spec: str,
        *,
        tenant: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Concretize one spec; the ``POST /v1/concretize`` core."""
        batch = self.concretize_batch([spec], tenant=tenant, deadline_s=deadline_s)
        return batch["results"][0]

    def concretize_batch(
        self,
        specs: Sequence[str],
        *,
        tenant: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Concretize a batch (input order); ``POST /v1/concretize_batch``."""
        texts = list(specs)
        state, parsed, deadline = self._admit(texts, tenant, deadline_s)
        try:
            results: List[Optional[ConcretizationResult]] = [None] * len(parsed)
            try:
                for index, result in self._solve(state, parsed, deadline):
                    results[index] = result
            except DeadlineExceededError:
                self._count("deadline_exceeded")
                raise
            except Exception as exc:
                mapped = self._map_solve_error(exc)
                self._count("unsolvable")
                raise mapped from exc
            self._count("completed")
            self._count("specs_concretized", len(results))
            return {
                "tenant": state.name,
                "deadline_s": deadline,
                "results": [
                    self._result_payload(index, str(texts[index]), result)
                    for index, result in enumerate(results)
                ],
            }
        finally:
            self._release()

    # -- streaming ------------------------------------------------------

    def stream_batch(
        self,
        specs: Sequence[str],
        *,
        tenant: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Iterator[Dict[str, object]]:
        """Yield per-result records in *completion* order, then a summary.

        A plain generator: nothing happens until the first record is asked
        for.  Parsing and admission happen then, and fail as plain errors
        (so a transport that takes the first record before writing its
        header answers overload and bad requests as plain error
        responses); afterwards the caller receives ``{"index", "spec",
        "concrete", ...}`` records as solves finish, terminated by either
        ``{"status": "ok"}`` or an error record (e.g. a mid-stream
        deadline).  Every exit after admission — the last record, or
        closing the generator early — releases the admission slot and
        cancels the solves not yet started.
        """
        texts = list(specs)
        state, parsed, deadline = self._admit(texts, tenant, deadline_s)
        try:
            with closing(self._solve(state, parsed, deadline)) as outcomes:
                for index, result in outcomes:
                    self._count("specs_concretized")
                    yield self._result_payload(index, str(texts[index]), result)
        except DeadlineExceededError as exc:
            self._count("deadline_exceeded")
            yield exc.payload()
        except Exception as exc:  # solver/encode errors end the stream
            try:
                mapped = self._map_solve_error(exc)
            except Exception:
                yield error_body(500, "internal", f"internal error: {exc}")
            else:
                self._count("unsolvable")
                yield mapped.payload()
        else:
            self._count("completed")
            yield {"status": "ok", "results": len(parsed)}
        finally:
            self._release()

    # -- introspection --------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return {
            "status": "ok" if self._started and not self._closed else "stopped",
            "tenants": self.tenants(),
            "max_concurrency": self.max_concurrency,
            "queue_limit": self.queue_limit,
        }

    def statistics(self) -> Dict[str, object]:
        """Service counters plus per-tenant session/cache statistics.

        ``service.snapshot`` rolls up warm-start provenance across every
        tenant session: how many grounded bases arrived by **attaching** an
        mmap snapshot versus being **cold-ground** from scratch (the number
        a multi-process deployment watches to confirm workers share one
        warm base — see ``docs/ARCHITECTURE.md``).
        """
        with self._lock:
            counters = dict(self.counters)
        snapshot = {"attaches": 0, "writes": 0, "cold_grounds": 0}
        for state in self._tenants.values():
            stats = state.session.stats
            snapshot["attaches"] += stats.snapshot_attaches
            snapshot["writes"] += stats.snapshot_writes
            # one per base, however many layers a sharded base is ground in
            snapshot["cold_grounds"] += stats.base_groundings
        return {
            "service": {
                **counters,
                "max_concurrency": self.max_concurrency,
                "queue_limit": self.queue_limit,
                "default_deadline_s": self.default_deadline_s,
                "snapshot": snapshot,
            },
            "tenants": {
                name: state.statistics() for name, state in self._tenants.items()
            },
        }
