"""The HTTP transport for :class:`~repro.spack.service.app.ConcretizationService`.

A deliberately small stdlib server — :class:`ThreadingHTTPServer` with one
handler thread per connection, no third-party dependencies — that maps the
service core onto four endpoints:

``POST /v1/concretize``
    Body ``{"spec": "zlib@1.2.8", "tenant": ..., "deadline_s": ...}``;
    responds with the concretized result payload.

``POST /v1/concretize_batch``
    Body ``{"specs": [...], "tenant": ..., "deadline_s": ..., "stream": bool}``.
    Without ``stream``, responds with ``{"results": [...]}`` in input order.
    With ``"stream": true``, responds ``200 application/x-ndjson`` with one
    JSON record per line in *completion* order (chunked transfer encoding),
    terminated by a summary record — a mid-stream deadline or solver error
    arrives as a final record in the uniform error envelope.

``GET /v1/healthz`` / ``GET /v1/stats``
    Liveness and the service/tenant statistics payloads.

The deadline may ride in the body (``deadline_s``) or in an
``X-Deadline-Seconds`` header (body wins).  A tenant may likewise come from
the body (``tenant``) or an ``X-Tenant`` header.  Error mapping is the
service core's: 400 malformed request or spec, 404 unknown tenant/route,
422 unsolvable, 429 overloaded (with ``Retry-After``), 504 deadline
exceeded, 500 anything unexpected.  Every error body — including streamed
terminal records — is the :func:`~repro.spack.service.app.error_body`
envelope ``{"status": ..., "error": {"code", "message", "detail"}}``
documented in ``docs/SERVICE.md``.  Unknown body keys are ignored: the
solver configuration is the server's, never the request's.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple

from repro.spack.service.app import (
    BadRequestError,
    ConcretizationService,
    OverloadedError,
    ServiceError,
    error_body,
)

MAX_BODY_BYTES = 1 << 20  # 1 MiB is plenty for spec batches


class ConcretizationRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request against the shared :class:`ConcretizationService`."""

    protocol_version = "HTTP/1.1"  # keep-alive + chunked streaming
    server_version = "repro-concretize/1"
    # headers and body go out as two writes; with Nagle's algorithm on, the
    # body would wait ~40 ms for the client's delayed ACK of the headers
    disable_nagle_algorithm = True

    # quiet by default; the server enables logging when asked to
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> ConcretizationService:
        return self.server.service

    # -- plumbing -------------------------------------------------------

    def _send_json(self, status: int, payload: Dict, headers: Optional[Dict] = None):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, exc: ServiceError):
        headers = {}
        if isinstance(exc, OverloadedError):
            headers["Retry-After"] = f"{exc.retry_after_s:g}"
        if self.close_connection:
            headers["Connection"] = "close"
        self._send_json(exc.status, exc.payload(), headers)

    def _read_body(self) -> Dict:
        # a body refused before it is read stays on the connection, where no
        # later request can be found after it: answer, then close it
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            raise BadRequestError(
                "chunked request bodies are not supported (send a Content-Length)"
            )
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise BadRequestError(f"invalid Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BadRequestError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequestError("empty request body (expected JSON)")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        return body

    def _request_options(self, body: Dict) -> Tuple[Optional[str], Optional[float]]:
        tenant = body.get("tenant") or self.headers.get("X-Tenant")
        deadline = body.get("deadline_s")
        if deadline is None:
            header = self.headers.get("X-Deadline-Seconds")
            if header is not None:
                deadline = header  # validated (and 400-mapped) by the service
        return tenant, deadline

    # -- streaming ------------------------------------------------------

    def _stream_ndjson(self, records: Iterator[Dict]) -> None:
        """Write a generator of dicts as chunked NDJSON.

        The first record is taken before the header goes out, so an error
        raised on the way to it (a bad spec, a full admission queue) is
        still a plain error response.  Every exit closes the generator: a
        client that went away, at the header or mid-stream, releases the
        request's admission slot and cancels its solves not yet started.
        """
        try:
            first = next(records)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for record in itertools.chain([first], records):
                line = json.dumps(record).encode("utf-8") + b"\n"
                self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except ConnectionError:
            pass  # client went away; the finally below cancels the work
        finally:
            records.close()

    # -- routes ---------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        try:
            if self.path == "/v1/healthz":
                self._send_json(200, self.service.healthz())
            elif self.path == "/v1/stats":
                self._send_json(200, self.service.statistics())
            else:
                self._send_json(404, self._no_route())
        except BrokenPipeError:
            pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        try:
            if self.path == "/v1/concretize":
                self._concretize_one()
            elif self.path == "/v1/concretize_batch":
                self._concretize_batch()
            else:
                self._send_json(404, self._no_route())
        except ServiceError as exc:
            self._send_error_payload(exc)
        except BrokenPipeError:
            pass
        except Exception as exc:  # unexpected: 500, keep the worker alive
            self._send_json(500, error_body(500, "internal", f"internal error: {exc}"))

    def _no_route(self) -> Dict:
        return error_body(
            404, "not_found", f"no such route: {self.path}", {"path": self.path}
        )

    def _concretize_one(self):
        body = self._read_body()
        spec = body.get("spec")
        if not isinstance(spec, str):
            raise BadRequestError("body must carry a string 'spec' field")
        tenant, deadline = self._request_options(body)
        result = self.service.concretize(spec, tenant=tenant, deadline_s=deadline)
        self._send_json(200, {"tenant": tenant or "default", "result": result})

    def _concretize_batch(self):
        body = self._read_body()
        specs = body.get("specs")
        if not isinstance(specs, list):
            raise BadRequestError("body must carry a list 'specs' field")
        tenant, deadline = self._request_options(body)
        if body.get("stream"):
            records = self.service.stream_batch(specs, tenant=tenant, deadline_s=deadline)
            self._stream_ndjson(records)
            return
        payload = self.service.concretize_batch(specs, tenant=tenant, deadline_s=deadline)
        self._send_json(200, payload)


class ConcretizationServer:
    """A threaded HTTP server bound to one :class:`ConcretizationService`.

    ``start()`` serves on a daemon thread and returns (``port`` is then the
    bound port — pass ``port=0`` for an ephemeral one); ``stop()`` shuts the
    listener down and joins the serving thread.  The service's lifecycle is
    the caller's: the server never closes it.
    """

    def __init__(
        self,
        service: ConcretizationService,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        verbose: bool = False,
    ):
        self.service = service
        self._httpd = ThreadingHTTPServer(
            (host, port), ConcretizationRequestHandler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = service
        self._httpd.verbose = verbose
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ConcretizationServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "ConcretizationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _serve_process(
    httpd: ThreadingHTTPServer, service_factory, verbose: bool, ready: Optional[str] = None
) -> None:
    """Serve forever on an already-bound listener with a process-local service.

    The service is created *after* any fork: each worker process owns its
    sessions and solver threads, while warm state is shared through the
    ground snapshot files on disk (``SessionConfig(cache_dir=...)``) rather
    than through memory.  ``ready`` is printed once the service is built
    and started.
    """
    service = service_factory()
    service.start()
    httpd.daemon_threads = True
    httpd.service = service
    httpd.verbose = verbose
    if ready is not None:
        print(ready, flush=True)
    try:
        httpd.serve_forever()
    finally:
        service.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = True,
    workers: int = 1,
    service_factory=None,
) -> None:
    """Run a server until interrupted (the ``python -m`` entry point).

    The listener socket is bound once, then the process forks ``workers -
    1`` children: every process ``accept()``\\ s on the shared socket (the
    kernel load-balances connections) and builds its *own*
    :class:`ConcretizationService` from ``service_factory``; this process
    serves too.  Point the factory's
    :class:`~repro.spack.concretize.SessionConfig` at a shared
    ``cache_dir`` and the first worker to ground a base publishes a
    ground snapshot that every other worker reads — N processes, one
    grounding and one completion template build per base (``GET /v1/stats`` →
    ``service.snapshot`` shows attaches vs cold grounds per worker).
    Requires :func:`os.fork` for ``workers > 1``; on platforms without it
    the worker count falls back to 1.

    Called on the main thread, it stops on SIGINT or SIGTERM, also when it
    was started with SIGINT ignored (as a non-interactive shell starts a
    background command): it prints ``shutting down``, closes the listener,
    ends and reaps the workers, restores the previous handlers and returns.
    """
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _interrupt)
    try:
        _serve(host, port, verbose, int(workers), service_factory)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _serve(host: str, port: int, verbose: bool, workers: int, service_factory) -> None:
    if workers > 1 and not hasattr(os, "fork"):
        print("os.fork is unavailable on this platform; serving with 1 worker")
        workers = 1
    factory = service_factory or ConcretizationService
    httpd = ThreadingHTTPServer((host, port), ConcretizationRequestHandler)
    bound_host, bound_port = httpd.server_address[:2]
    ready = f"concretization service listening on http://{bound_host}:{bound_port}"
    if workers > 1:
        ready += f" ({workers} worker processes)"
    children = []
    for _ in range(1, workers):
        pid = os.fork()
        if pid == 0:  # worker: serve on the inherited socket, never return
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            try:
                _serve_process(httpd, factory, verbose)
            finally:
                os._exit(0)
        children.append(pid)
    try:
        _serve_process(httpd, factory, verbose, ready)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        httpd.server_close()
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
