"""Concretization-as-a-service: deadlines, backpressure, tenants, transport.

The contract under test:

* ``POST /v1/concretize`` / ``/v1/concretize_batch`` solve through the
  per-tenant session; batch results come back in input order, the
  streamed variant in completion order as NDJSON, and both are identical
  to ``ConcretizationSession.solve``;
* the request thread answers cache hits and in-batch duplicates itself
  (a stream yields them first) and solves each distinct miss once, on the
  tenant's ``max_concurrency`` solver threads — which that many solves
  fill, and no more;
* a request's deadline cancels every solve not yet started: the response
  is 504 (or a terminal 504 record), the admission slot comes back, and
  the next solves run at full concurrency; a stream closed early — before
  its first record, or by a client that disconnects mid-batch — does the
  same;
* once ``max_concurrency + queue_limit`` requests are in flight, the next
  one is shed with 429 + ``Retry-After`` instead of queueing;
* per-tenant catalogs compose overlay shards over the shared base: a
  tenant sees its private packages, other tenants get 422 for them, and
  the base family stays shared;
* parse errors map to 400, unknown tenants to 404, unsolvable specs to
  422 — a malformed request never kills a worker thread;
* every error body — HTTP responses and streamed terminal records alike —
  uses the one envelope ``{"status": ..., "error": {"code", "message",
  "detail"}}``, and ``/v1/stats`` counts every request exactly, also under
  concurrent clients.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import os
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro
from repro.spack.concretize.config import SessionConfig
from repro.spack.concretize.session import ConcretizationSession, _GroundedBase
from repro.spack.directives import depends_on, version
from repro.spack.package import Package
from repro.spack.service import (
    BadRequestError,
    ConcretizationServer,
    ConcretizationService,
    DeadlineExceededError,
    OverloadedError,
    UnknownTenantError,
    UnsolvableError,
)
from repro.spack.service.http import MAX_BODY_BYTES

from tests.concretize.test_multi_catalog import SHARD_LAYOUT, micro_builtin

#: overlapping single-family batch: six distinct solves, two exact repeats
BATCH = [
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example@1.1.0",
    "example ^zlib~pic",
    "example",
    "example+bzip",
]

#: 24 distinct specs of the ``example`` family
FAMILY = [
    f"example@{version}{bzip} ^zlib@{zlib}{pic}"
    for version, bzip, zlib, pic in itertools.product(
        ("1.0.0", "1.1.0"), ("+bzip", "~bzip"), ("1.3", "1.2.11", "1.2.8"), ("+pic", "~pic")
    )
]


class TenantTool(Package):
    """A tenant-private package over the shared base catalog."""

    name = "tenant-tool"
    version("1.0")
    depends_on("zlib")


def make_service(repo, max_concurrency=2, queue_limit=1):
    return ConcretizationService(
        base_repo=repo,
        queue_limit=queue_limit,
        default_deadline_s=60.0,
        retry_after_s=0.25,
        session_config=SessionConfig(max_concurrency=max_concurrency),
    )


@pytest.fixture()
def service(micro_repo):
    with make_service(micro_repo) as svc:
        yield svc


def signature(payload):
    """What must match between a service payload and a session result."""
    return payload["concrete"], payload["dag_hash"], payload["built"], payload["reused"]


def result_signature(result):
    return str(result.spec), result.spec.dag_hash(), sorted(result.built), sorted(result.reused)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class SolveProbe:
    """Counts the calls of ``ConcretizationSession._solve_uncached`` — the
    solves started, running, and the peak running at once — and holds each
    for ``delay`` seconds first."""

    def __init__(self, monkeypatch, delay=0.0):
        self.delay = delay
        self.started = 0
        self.running = 0
        self.peak = 0
        self._lock = threading.Lock()
        original = ConcretizationSession._solve_uncached
        probe = self

        def solve(session, spec, base):
            with probe._lock:
                probe.started += 1
                probe.running += 1
                probe.peak = max(probe.peak, probe.running)
            try:
                time.sleep(probe.delay)
                return original(session, spec, base)
            finally:
                with probe._lock:
                    probe.running -= 1

        monkeypatch.setattr(ConcretizationSession, "_solve_uncached", solve)

    def settle(self, started):
        """Wait until ``started`` solves have started and none is running."""
        wait_until(lambda: self.started >= started and not self.running)


def http_json(url, payload=None, headers=None):
    """One request; returns (status, parsed body, response headers)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, headers=headers or {})
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, json.loads(body) if body else {}, dict(error.headers)


# ---------------------------------------------------------------------------
# Core solving (in-process, no sockets)
# ---------------------------------------------------------------------------


def test_concretize_single_spec(service):
    payload = service.concretize("example@1.0.0")
    assert payload["spec"] == "example@1.0.0"
    assert payload["concrete"].startswith("example @1.0.0")
    assert payload["nodes"] >= 3  # example + zlib + an mpi provider
    assert payload["dag_hash"]
    assert payload["solve_cache"] == "miss"
    again = service.concretize("example@1.0.0")
    assert again["solve_cache"] == "hit"
    assert signature(again) == signature(payload)
    stats = service.statistics()["tenants"]["default"]
    assert stats["solve_cache_hits"] == 1  # the repeat never solved again
    assert stats["delta_groundings"] == 1


def test_batch_and_stream_match_sequential_solves(micro_repo):
    """Both request shapes answer exactly what ``ConcretizationSession.solve``
    answers, spec by spec, and a stream yields every input index once."""
    expected = [
        result_signature(result)
        for result in ConcretizationSession(repo=micro_repo).solve(BATCH)
    ]
    with make_service(micro_repo) as service:
        batch = service.concretize_batch(BATCH)["results"]
    assert [signature(payload) for payload in batch] == expected
    with make_service(micro_repo) as service:
        records = list(service.stream_batch(BATCH))
    assert records[-1] == {"status": "ok", "results": len(BATCH)}
    assert sorted(record["index"] for record in records[:-1]) == list(range(len(BATCH)))
    by_index = {record["index"]: signature(record) for record in records[:-1]}
    assert [by_index[index] for index in range(len(BATCH))] == expected


def test_stream_yields_cache_hits_and_duplicates_first(service):
    service.concretize("example")  # warm exactly one spec
    records = list(
        service.stream_batch(
            ["example+bzip", "example", "example~bzip", "example", "example+bzip"]
        )
    )
    indices = [record["index"] for record in records[:-1]]
    assert sorted(indices) == [0, 1, 2, 3, 4]
    # the warm spec and its in-batch duplicate stream out before any solve
    assert set(indices[:2]) == {1, 3}
    # a duplicate of a miss follows the result it replays
    assert indices.index(4) == indices.index(0) + 1


def test_concurrent_batches_share_one_session(service):
    """Two batches in flight at once on one tenant both get their own
    answers: the session's caches and counters are shared, not its
    requests."""
    batches = {
        "lo": ["example@1.0.0", "example@1.0.0+bzip"],
        "hi": ["example@1.1.0", "example@1.1.0+bzip"],
    }
    outcomes = {}

    def run(name):
        outcomes[name] = service.concretize_batch(batches[name])["results"]

    threads = [threading.Thread(target=run, args=(name,), daemon=True) for name in batches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    for name, specs in batches.items():
        version = specs[0].split("@")[1]
        assert [r["concrete"].split()[1] for r in outcomes[name]] == [f"@{version}"] * 2
    assert service.statistics()["tenants"]["default"]["delta_groundings"] == 4


def test_in_batch_duplicates_are_solved_once(service):
    service.concretize_batch(BATCH)
    stats = service.statistics()["tenants"]["default"]
    assert stats["delta_groundings"] == 6  # distinct specs only
    assert stats["solve_cache_hits"] == 2  # the two in-batch repeats
    assert stats["solve_cache_misses"] == 6
    assert stats["specs_solved"] == len(BATCH)
    assert stats["base_groundings"] == 1  # grounded once, under the ground lock


@pytest.mark.parametrize("catalog", ["flat", "sharded"])
def test_stats_count_one_cold_ground_per_base(micro_repo, catalog):
    """``service.snapshot.cold_grounds`` counts bases ground cold: a sharded
    base is ground as one layer per shard it reaches, and still counts
    once, as a flat one does."""
    repo = micro_repo if catalog == "flat" else micro_builtin()
    with make_service(repo, max_concurrency=1) as service:
        service.concretize("example")
        stats = service.statistics()
    assert stats["tenants"]["default"]["shard_layers_grounded"] == (
        0 if catalog == "flat" else len(SHARD_LAYOUT)
    )
    assert stats["service"]["snapshot"]["cold_grounds"] == 1


@pytest.mark.parametrize("max_concurrency", [1, 2])
def test_solver_threads_bound_inflight_solves(micro_repo, monkeypatch, max_concurrency):
    """A tenant's solver threads are the only bound on its solves in flight:
    a batch of six distinct misses runs exactly ``max_concurrency`` solves
    at its peak."""
    expected = [
        result_signature(result)
        for result in ConcretizationSession(repo=micro_repo).solve(BATCH)
    ]
    probe = SolveProbe(monkeypatch, delay=0.05)
    with make_service(micro_repo, max_concurrency=max_concurrency) as service:
        results = service.concretize_batch(BATCH)["results"]
    assert [signature(payload) for payload in results] == expected
    assert probe.peak == max_concurrency


def test_concurrent_requests_race_for_one_completion_template(micro_repo):
    """More concurrent single-spec requests than CPUs, switching threads
    every microsecond, solve distinct specs over one grounded base on the
    tenant's solver threads.  Nothing builds the completion template ahead
    of the solves: the first solve builds it while the others wait for it
    under the base's lock, every result matches sequential solving, and the
    template is built exactly once."""
    workers = min((os.cpu_count() or 1) + 2, len(FAMILY))
    specs = FAMILY[:workers]
    expected = [
        result_signature(result)
        for result in ConcretizationSession(repo=micro_repo).solve(specs)
    ]
    service = make_service(micro_repo, max_concurrency=workers, queue_limit=0)
    payloads = {}

    def request(spec):
        payloads[spec] = service.concretize(spec)

    threads = [threading.Thread(target=request, args=(spec,), daemon=True) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            stats = service.statistics()["tenants"]["default"]
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [signature(payloads[spec]) for spec in specs] == expected
    assert stats["delta_groundings"] == len(specs)
    assert stats["base"]["template_builds"] == 1


def test_batch_preserves_input_order(service):
    out = service.concretize_batch(["example@1.1.0", "example@1.0.0", "example@1.1.0"])
    versions = [r["concrete"].split("@")[1].split(" ")[0].split("%")[0]
                for r in out["results"]]
    assert [r["index"] for r in out["results"]] == [0, 1, 2]
    assert versions[0] == versions[2] == "1.1.0"
    assert versions[1] == "1.0.0"


def test_stream_batch_completion_order_and_summary(service):
    records = list(service.stream_batch(["example@1.0.0", "example@1.1.0"]))
    assert records[-1] == {"status": "ok", "results": 2}
    indices = sorted(r["index"] for r in records[:-1])
    assert indices == [0, 1]


def test_closing_a_stream_mid_batch_cancels_unstarted_solves(micro_repo, monkeypatch):
    """Closing a stream after its first record releases the admission slot
    at once and cancels every solve not yet started; at most the one
    running on the single solver thread goes on."""
    with make_service(micro_repo, max_concurrency=1, queue_limit=0) as service:
        service.concretize("example")  # ground the base and build its template
        probe = SolveProbe(monkeypatch, delay=0.1)
        stream = service.stream_batch(FAMILY[:6])
        assert next(stream)["index"] in range(6)
        stream.close()
        assert service.counters["in_flight"] == 0
        probe.settle(1)
        time.sleep(0.3)
        assert probe.started <= 2
        assert service.concretize(FAMILY[-1])["spec"] == FAMILY[-1]


def test_stream_closed_before_its_first_record_releases_its_slot(micro_repo):
    """A stream is a plain generator: one closed before it started was never
    admitted, so it cannot hold the one admission slot there is."""
    with make_service(micro_repo, max_concurrency=1, queue_limit=0) as service:
        service.stream_batch(["example"]).close()
        assert service.counters["in_flight"] == 0
        assert service.concretize("example")["concrete"]  # admitted, not 429
        assert service.counters["rejected_overload"] == 0


def test_parse_errors_are_bad_requests(service):
    for bad in ["", "   ", "example+bzip+bzip", "example@1.0::2", "example ^example", None, 7]:
        with pytest.raises(BadRequestError):
            service.concretize_batch([bad])
    with pytest.raises(BadRequestError):
        service.concretize_batch([])
    with pytest.raises(BadRequestError):
        service.concretize("example", deadline_s=-1)
    with pytest.raises(BadRequestError):
        service.concretize("example", deadline_s="soon")


def test_unsolvable_spec_maps_to_422_class(service):
    with pytest.raises(UnsolvableError):
        service.concretize("example %intel")  # conflicts()
    with pytest.raises(UnsolvableError):
        service.concretize("no-such-package")
    # the worker thread survived: the next request is fine
    assert service.concretize("example")["concrete"]


def test_unknown_tenant_is_404_class(service):
    with pytest.raises(UnknownTenantError):
        service.concretize("example", tenant="nobody")


def test_unsolvable_payload_carries_the_conflict_core(service):
    """An unsatisfiable spec's 422 payload names the minimal conflict core
    as structured provenance, not just prose."""
    with pytest.raises(UnsolvableError) as excinfo:
        service.concretize("example %intel")
    payload = excinfo.value.payload()
    assert payload["status"] == 422
    assert payload["error"]["code"] == "unsolvable"
    detail = payload["error"]["detail"]
    assert detail["specs"] == ["example %intel"]
    core = detail["conflict_core"]
    assert [entry["constraint"] for entry in core] == [
        'example: conflicts("%intel")',
        'example: requested spec "example %intel"',
    ]
    assert core[0] == {
        "package": "example",
        "kind": "conflict",
        "directive": 'conflicts("%intel")',
        "when": "",
        "constraint": 'example: conflicts("%intel")',
    }
    # an *unknown package* is unsolvable too, but has no core to report
    with pytest.raises(UnsolvableError) as excinfo:
        service.concretize("no-such-package")
    assert excinfo.value.payload()["error"]["detail"]["conflict_core"] == []


def test_streamed_batch_error_record_carries_the_conflict_core(service):
    """A stream that ends on an unsatisfiable spec still delivers the
    satisfiable results, then a terminal error record with the core."""
    records = list(
        service.stream_batch(["example@1.0.0", "example %intel"])
    )
    assert records[-1]["status"] == 422
    assert records[-1]["error"]["code"] == "unsolvable"
    core = records[-1]["error"]["detail"]["conflict_core"]
    assert [e["constraint"] for e in core] == [
        'example: conflicts("%intel")',
        'example: requested spec "example %intel"',
    ]
    ok = [r for r in records[:-1] if "index" in r]
    assert [r["index"] for r in ok] == [0]
    assert ok[0]["concrete"].startswith("example @1.0.0")


# ---------------------------------------------------------------------------
# Deadlines (504 + cancellation, not leakage)
# ---------------------------------------------------------------------------


def test_deadline_exceeded_cancels_and_releases_workers(service, monkeypatch):
    """The deadline fires while both solver threads are busy: the solves not
    yet started are cancelled and never run, the request's slot comes back,
    and once the running solves end the next two solves run side by side."""
    service.concretize("example")  # ground the base and build its template
    probe = SolveProbe(monkeypatch, delay=0.5)
    with pytest.raises(DeadlineExceededError):
        service.concretize_batch(FAMILY[:6], deadline_s=0.15)
    assert service.counters["deadline_exceeded"] == 1
    assert service.counters["in_flight"] == 0
    probe.settle(service.max_concurrency)
    time.sleep(0.2)
    assert probe.started == service.max_concurrency  # the other four never ran
    probe.delay, probe.peak = 0.1, 0
    results = service.concretize_batch(FAMILY[6:8], deadline_s=30)["results"]
    assert [r["concrete"].split()[1] for r in results] == ["@1.0.0", "@1.0.0"]
    assert probe.peak == service.max_concurrency


def test_deadline_during_grounding_is_not_repeated(service, monkeypatch):
    """A deadline fires while the first request's base is being ground.  The
    grounding goes on, on its solver thread, and keeps the ground lock
    until it ends, so the next request of the same family waits for it and
    reuses the base instead of grounding a second copy beside it."""
    original = _GroundedBase.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.5)
        original(self, *args, **kwargs)

    monkeypatch.setattr(_GroundedBase, "__init__", slow_init)
    started = time.perf_counter()
    with pytest.raises(DeadlineExceededError):
        service.concretize("example", deadline_s=0.1)
    waited = time.perf_counter() - started
    payload = service.concretize("example+bzip")
    assert waited < 0.3  # the deadline fired on time
    assert "+bzip" in payload["concrete"]
    stats = service.statistics()["tenants"]["default"]
    assert stats["base_groundings"] == 1
    assert stats["base_cache_hits"] == 1


def test_mid_stream_deadline_ends_stream_with_504_record(service, monkeypatch):
    service.concretize("example")  # ground the base and build its template
    probe = SolveProbe(monkeypatch, delay=1.0)
    records = list(service.stream_batch(FAMILY[:3], deadline_s=0.2))
    assert records[-1]["status"] == 504
    assert service.counters["in_flight"] == 0
    probe.settle(service.max_concurrency)
    assert probe.started == service.max_concurrency  # the third never ran


# ---------------------------------------------------------------------------
# Backpressure (429 + Retry-After once the admission queue is full)
# ---------------------------------------------------------------------------


def test_saturation_sheds_load_with_429(service, monkeypatch):
    """max_concurrency=2, queue_limit=1: with 3 slow requests admitted, the
    4th is rejected immediately — it never waits on the solver at all."""
    original = ConcretizationSession._solve_uncached
    release = threading.Event()

    def blocked(self, spec, base):
        release.wait(timeout=30)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", blocked)

    outcomes = []

    def request(spec):
        try:
            outcomes.append(("ok", service.concretize(spec, deadline_s=60)))
        except Exception as exc:
            outcomes.append(("error", exc))

    threads = [
        threading.Thread(target=request, args=(f"example@1.{i}.0",), daemon=True)
        for i in (0, 1)
    ] + [threading.Thread(target=request, args=("example+bzip",), daemon=True)]
    for thread in threads:
        thread.start()
    deadline = time.time() + 10
    while service.counters["in_flight"] < 3 and time.time() < deadline:
        time.sleep(0.01)
    assert service.counters["in_flight"] == 3  # 2 solving + 1 queued

    with pytest.raises(OverloadedError) as excinfo:
        service.concretize("example~bzip")
    assert excinfo.value.retry_after_s == pytest.approx(0.25)
    assert service.counters["rejected_overload"] == 1

    release.set()
    for thread in threads:
        thread.join(timeout=30)
    assert all(kind == "ok" for kind, _ in outcomes)  # admitted work completed
    assert service.counters["in_flight"] == 0
    # capacity freed: new requests are admitted again
    assert service.concretize("example~bzip")["concrete"]


# ---------------------------------------------------------------------------
# Per-tenant catalogs
# ---------------------------------------------------------------------------


def test_tenants_compose_overlays_over_the_shared_base(service):
    service.add_tenant("acme", packages=[TenantTool])

    mine = service.concretize("tenant-tool", tenant="acme")
    assert mine["concrete"].startswith("tenant-tool @1.0")
    # the overlay still resolves base packages (zlib came from the base)
    assert any("zlib" in node for node in [mine["concrete"]])

    # other tenants cannot see acme's package
    with pytest.raises(UnsolvableError):
        service.concretize("tenant-tool")

    # the composed catalog layers the overlay last: base shards first
    state = service._tenant("acme")
    shard_names = [shard.name for shard in state.repo.shards]
    assert shard_names[-1] == "acme/acme-overlay"

    stats = service.statistics()
    assert set(stats["tenants"]) == {"default", "acme"}
    assert stats["tenants"]["acme"]["requests"] == 1
    assert stats["tenants"]["default"]["requests"] == 1  # the failed probe


def test_duplicate_tenant_is_rejected(service):
    service.add_tenant("acme", packages=[TenantTool])
    with pytest.raises(ValueError):
        service.add_tenant("acme")


# ---------------------------------------------------------------------------
# HTTP transport (real sockets, loopback)
# ---------------------------------------------------------------------------


@pytest.fixture()
def server(service):
    with ConcretizationServer(service, port=0) as srv:
        yield srv


def test_http_healthz_and_stats(server):
    status, body, _ = http_json(f"{server.url}/v1/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert "default" in body["tenants"]

    status, body, _ = http_json(f"{server.url}/v1/stats")
    assert status == 200
    assert body["service"]["max_concurrency"] == 2
    assert "default" in body["tenants"]
    # snapshot-attach vs cold-ground rollup is always present
    assert set(body["service"]["snapshot"]) == {"attaches", "writes", "cold_grounds"}

    # two solves over one base: its completion template is built once
    for spec in ("example@1.0.0", "example@1.1.0"):
        status, _, _ = http_json(f"{server.url}/v1/concretize", {"spec": spec})
        assert status == 200
    status, body, _ = http_json(f"{server.url}/v1/stats")
    base = body["tenants"]["default"]["base"]
    assert base["template_builds"] == 1
    assert base["template_bytes"] > 0
    assert base["stability_checks_skipped"] >= 0


def test_http_keep_alive_responses_do_not_wait_for_delayed_acks(server):
    """Headers and body leave in two writes; with Nagle's algorithm on, the
    body of every keep-alive response waits ~40 ms for the client's delayed
    ACK of the headers."""
    url = urllib.parse.urlsplit(server.url)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    latencies = []
    try:
        for _ in range(20):
            start = time.perf_counter()
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
            latencies.append(time.perf_counter() - start)
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.020


def test_http_concretize_and_errors(server):
    status, body, _ = http_json(
        f"{server.url}/v1/concretize", {"spec": "example@1.0.0"}
    )
    assert status == 200
    assert body["result"]["concrete"].startswith("example @1.0.0")

    status, body, _ = http_json(f"{server.url}/v1/concretize", {"spec": "++"})
    assert status == 400
    assert body["error"]["code"] == "bad_request"
    status, body, _ = http_json(
        f"{server.url}/v1/concretize", {"spec": "example", "tenant": "nobody"}
    )
    assert status == 404
    assert body["error"]["code"] == "unknown_tenant"
    assert body["error"]["detail"]["tenant"] == "nobody"
    status, body, _ = http_json(
        f"{server.url}/v1/concretize", {"spec": "example %intel"}
    )
    assert status == 422
    assert body["error"]["code"] == "unsolvable"
    detail = body["error"]["detail"]
    assert [e["constraint"] for e in detail["conflict_core"]] == [
        'example: conflicts("%intel")',
        'example: requested spec "example %intel"',
    ]
    assert detail["specs"] == ["example %intel"]
    status, body, _ = http_json(f"{server.url}/v1/concretize", {"wrong": 1})
    assert status == 400
    assert body["error"]["code"] == "bad_request"
    status, body, _ = http_json(f"{server.url}/v1/nothing", {"spec": "example"})
    assert status == 404
    assert body["error"]["code"] == "not_found"
    assert body["error"]["detail"]["path"] == "/v1/nothing"


def post_headers_until_close(server, headers, timeout):
    """Send the head of a ``POST /v1/concretize`` with ``headers`` and no
    body, then read until the server closes the connection (a socket
    timeout fails the test); returns the response's head and body.  No body
    bytes go out: bytes the server leaves unread can turn its close into a
    reset."""
    with socket.create_connection((server.host, server.port), timeout=timeout) as connection:
        connection.sendall(
            b"POST /v1/concretize HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n" + headers + b"\r\n\r\n"
        )
        received = b""
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break  # the server closed the connection
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    return head, body


@pytest.mark.parametrize("declared", ["abc", "-1"])
def test_http_malformed_content_length_is_a_bad_request(server, declared):
    """A Content-Length that is not a non-negative integer is answered 400
    in the error envelope, and the connection is closed: where the body
    ends is unknown.  Reading it as given would answer 500 for ``abc`` and
    wait for the client to close for ``-1``."""
    head, body = post_headers_until_close(
        server, b"Content-Length: " + declared.encode(), timeout=10
    )
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    error = json.loads(body)["error"]
    assert error["code"] == "bad_request"
    assert "Content-Length" in error["message"]


@pytest.mark.parametrize(
    "header, message",
    [
        (b"Content-Length: %d" % (MAX_BODY_BYTES + 12), "request body too large"),
        (b"Transfer-Encoding: chunked", "chunked request bodies are not supported"),
    ],
    ids=["too-large", "chunked"],
)
def test_http_unread_body_is_refused_and_closes_the_connection(server, header, message):
    """A body the server will not read is answered once, 400 in the error
    envelope, and the connection is closed.  Kept open, the unread bytes
    would be parsed as the next request: an HTML 414 after a body over
    ``MAX_BODY_BYTES``, an HTML 400 for a chunked body's first size line."""
    head, body = post_headers_until_close(server, header, timeout=2)
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    declared = re.search(rb"\r\nContent-Length: (\d+)", head)
    assert len(body) == int(declared.group(1))  # one envelope, nothing after it
    error = json.loads(body)["error"]
    assert error["code"] == "bad_request"
    assert message in error["message"]


def test_http_batch_and_header_options(server):
    status, body, _ = http_json(
        f"{server.url}/v1/concretize_batch",
        {"specs": ["example@1.0.0", "example@1.1.0"]},
        headers={"X-Deadline-Seconds": "60"},
    )
    assert status == 200
    assert [r["index"] for r in body["results"]] == [0, 1]
    assert body["deadline_s"] == 60.0


def test_http_deadline_maps_to_504(server, service, monkeypatch):
    original = ConcretizationSession._solve_uncached
    slow = [True]

    def maybe_slow(self, spec, base):
        if slow[0]:
            time.sleep(1.0)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", maybe_slow)
    status, body, _ = http_json(
        f"{server.url}/v1/concretize",
        {"spec": "example@1.0.0", "deadline_s": 0.2},
    )
    assert status == 504
    assert body["error"]["code"] == "deadline_exceeded"
    assert "deadline" in body["error"]["message"]
    assert body["error"]["detail"]["deadline_s"] == pytest.approx(0.2)
    assert service.counters["in_flight"] == 0
    # the solve already running ends on its thread, then the next is served
    slow[0] = False
    status, body, _ = http_json(f"{server.url}/v1/concretize", {"spec": "example@1.1.0"})
    assert status == 200


def test_http_429_carries_retry_after(server, service, monkeypatch):
    original = ConcretizationSession._solve_uncached
    release = threading.Event()

    def blocked(self, spec, base):
        release.wait(timeout=30)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", blocked)
    results = []

    def request(spec):
        results.append(http_json(f"{server.url}/v1/concretize", {"spec": spec}))

    threads = [
        threading.Thread(target=request, args=(s,), daemon=True)
        for s in ("example@1.0.0", "example@1.1.0", "example+bzip")
    ]
    for thread in threads:
        thread.start()
    deadline = time.time() + 10
    while service.counters["in_flight"] < 3 and time.time() < deadline:
        time.sleep(0.01)

    status, body, headers = http_json(
        f"{server.url}/v1/concretize", {"spec": "example~bzip"}
    )
    assert status == 429
    assert headers.get("Retry-After") == "0.25"
    assert body["error"]["code"] == "overloaded"
    assert body["error"]["detail"]["retry_after_s"] == pytest.approx(0.25)

    release.set()
    for thread in threads:
        thread.join(timeout=30)
    assert sorted(status for status, _, _ in results) == [200, 200, 200]


def test_http_streamed_batch_ndjson(server):
    request = urllib.request.Request(
        f"{server.url}/v1/concretize_batch",
        data=json.dumps(
            {"specs": ["example@1.0.0", "example@1.1.0"], "stream": True}
        ).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        records = [json.loads(line) for line in response if line.strip()]
    assert records[-1] == {"status": "ok", "results": 2}
    assert sorted(r["index"] for r in records[:-1]) == [0, 1]


def test_http_streamed_unsat_ndjson_carries_conflict_core(server):
    request = urllib.request.Request(
        f"{server.url}/v1/concretize_batch",
        data=json.dumps(
            {"specs": ["example@1.0.0", "example %intel"], "stream": True}
        ).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        records = [json.loads(line) for line in response if line.strip()]
    assert records[-1]["status"] == 422
    assert records[-1]["error"]["code"] == "unsolvable"
    core = records[-1]["error"]["detail"]["conflict_core"]
    assert [e["constraint"] for e in core] == [
        'example: conflicts("%intel")',
        'example: requested spec "example %intel"',
    ]
    delivered = [r for r in records[:-1] if "index" in r]
    assert [r["index"] for r in delivered] == [0]


def test_http_stream_errors_before_the_first_record_are_plain_responses(server):
    """The handler takes a stream's first record before it writes the
    header, so a request that fails on the way there is a plain JSON
    error response, not a 200 stream."""
    status, body, headers = http_json(
        f"{server.url}/v1/concretize_batch", {"specs": ["example", "++"], "stream": True}
    )
    assert status == 400
    assert headers["Content-Type"] == "application/json"
    assert body["error"]["code"] == "bad_request"
    status, body, _ = http_json(
        f"{server.url}/v1/concretize_batch",
        {"specs": ["example"], "stream": True, "tenant": "nobody"},
    )
    assert status == 404
    assert body["error"]["code"] == "unknown_tenant"


def test_http_stream_client_disconnect_mid_batch(micro_repo, monkeypatch):
    """A streaming client reads the first NDJSON record and hangs up.  The
    server's next write fails, which closes the stream: the slot comes
    back, the solves still queued never run, and the next request is
    served."""
    specs = FAMILY[:12]
    with make_service(micro_repo, max_concurrency=1) as service, \
            ConcretizationServer(service, port=0) as server:
        service.concretize("example")  # ground the base and build its template
        probe = SolveProbe(monkeypatch, delay=0.2)
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        connection.request(
            "POST",
            "/v1/concretize_batch",
            body=json.dumps({"specs": specs, "stream": True}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200
        first = json.loads(response.readline())
        assert first["index"] in range(len(specs))
        # hang up with a reset, as a client that went away does
        connection.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        response.close()
        connection.close()

        wait_until(lambda: service.counters["in_flight"] == 0)
        probe.settle(1)
        started = probe.started
        time.sleep(0.5)  # longer than two solves
        assert probe.started == started < len(specs)
        probe.delay = 0.0
        status, body, _ = http_json(f"{server.url}/v1/concretize", {"spec": specs[-1]})
        assert status == 200
        assert body["result"]["spec"] == specs[-1]


def test_http_stats_stay_exact_under_concurrent_requests(micro_repo):
    """Four clients, switching threads every microsecond, send cache hits,
    batches with in-batch duplicates and misses at once; ``/v1/stats``
    counts every request and spec exactly, and each answer is right."""
    clients = 4
    with make_service(micro_repo, max_concurrency=2, queue_limit=clients) as service, \
            ConcretizationServer(service, port=0) as server:
        warm = ["example@1.0.0", "example@1.1.0"]
        status, _, _ = http_json(f"{server.url}/v1/concretize_batch", {"specs": warm})
        assert status == 200
        plans = [
            [
                {"spec": warm[client % 2]},
                {"specs": [FAMILY[client], warm[0], FAMILY[client], FAMILY[client + 4]]},
                {"spec": FAMILY[client + 8]},
                {"specs": [warm[1], warm[1]]},
            ]
            for client in range(clients)
        ]
        answers = []

        def run(plan):
            for body in plan:
                route = "/v1/concretize" if "spec" in body else "/v1/concretize_batch"
                answers.append((body, http_json(f"{server.url}{route}", body)))

        threads = [threading.Thread(target=run, args=(plan,), daemon=True) for plan in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        status, stats, _ = http_json(f"{server.url}/v1/stats")

    assert status == 200
    for body, (status, answer, _) in answers:
        assert status == 200
        asked = [body["spec"]] if "spec" in body else body["specs"]
        got = [answer["result"]] if "spec" in body else answer["results"]
        assert [result["spec"] for result in got] == asked
        for spec, result in zip(asked, got):
            version = spec.split("@")[1][:5]  # every spec here is example@X.Y.Z...
            assert result["concrete"].startswith(f"example @{version}")
    requests = 1 + sum(len(plan) for plan in plans)
    specs = len(warm) + sum(
        len(body.get("specs", [None])) for plan in plans for body in plan
    )
    counters = stats["service"]
    assert counters["requests"] == counters["admitted"] == counters["completed"] == requests
    assert counters["specs_concretized"] == specs
    assert counters["in_flight"] == counters["rejected_overload"] == 0
    tenant = stats["tenants"]["default"]
    assert tenant["requests"] == requests
    assert tenant["specs_solved"] == specs
    assert tenant["solve_cache_hits"] + tenant["solve_cache_misses"] == specs


def ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize(
    "signum, preexec_fn, workers",
    [pytest.param(signal.SIGINT, None, n, id=str(n)) for n in (1, 2)]
    + [
        pytest.param(signal.SIGINT, ignore_sigint, n, id=f"ignored-SIGINT-{n}")
        for n in (1, 2)
    ]
    + [pytest.param(signal.SIGTERM, None, n, id=f"SIGTERM-{n}") for n in (1, 2)],
)
def test_cli_prints_its_ready_line_and_stops_on_sigint(signum, preexec_fn, workers, tmp_path):
    """``python -m repro.spack.service`` prints exactly ``concretization
    service listening on URL`` once its service is up (tools that start it
    parse the URL from that line; with ``--workers N`` > 1 it adds ``(N
    worker processes)``), answers on that URL, and returns from ``main()``
    on SIGINT or SIGTERM, also when it was started with SIGINT ignored (as a
    non-interactive shell starts a background command).  With two workers
    this process forked one child that accepts on the same listener; the
    signal ends and reaps it too, so once ``main()`` has returned nothing
    accepts on the port any more."""
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("serving with several workers needs os.fork")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.spack.service",
            "--port", "0", "--quiet", "--workers", str(workers),
            "--cache-dir", str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
        preexec_fn=preexec_fn,
    )
    rest = None
    try:
        line = proc.stdout.readline().rstrip("\n")
        suffix = "" if workers == 1 else re.escape(f" ({workers} worker processes)")
        ready = re.fullmatch(
            r"concretization service listening on (http://127\.0\.0\.1:(\d+))" + suffix, line
        )
        assert ready, line
        status, body, _ = http_json(f"{ready.group(1)}/v1/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body, _ = http_json(
            f"{ready.group(1)}/v1/concretize", {"spec": "zlib"}
        )
        assert status == 200 and body["result"]["concrete"].startswith("zlib")
        proc.send_signal(signum)
        rest, _ = proc.communicate(timeout=60)
    finally:
        # whatever failed above, no process of the server outlives the test
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        if rest is None:
            proc.communicate()
    assert proc.returncode == 0
    assert rest == "shutting down\n"
    # every process that held the listener has exited
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", int(ready.group(2))), timeout=5).close()


def test_server_start_stop_is_clean(micro_repo):
    service = ConcretizationService(base_repo=micro_repo)
    with service, ConcretizationServer(service, port=0) as server:
        status, body, _ = http_json(f"{server.url}/v1/healthz")
        assert status == 200
    # closed cleanly: the service reports stopped and rejects new work
    assert service.healthz()["status"] == "stopped"
    with pytest.raises(RuntimeError):
        service.concretize("example")
    # and stays closed: its solver threads are gone, so it cannot restart
    with pytest.raises(RuntimeError, match="service is closed"):
        service.start()
    assert service.healthz()["status"] == "stopped"
