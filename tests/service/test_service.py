"""Concretization-as-a-service: deadlines, backpressure, tenants, transport.

The contract under test (ISSUE 6 tentpole):

* ``POST /v1/concretize`` / ``/v1/concretize_batch`` solve through the
  per-tenant async session; batch results come back in input order, the
  streamed variant in completion order as NDJSON;
* a request's deadline is enforced through async-session cancellation: the
  response is 504, the leased workers come back immediately (asserted on
  the semaphore), nothing leaks;
* once ``max_concurrency + queue_limit`` requests are in flight, the next
  one is shed with 429 + ``Retry-After`` instead of queueing;
* per-tenant catalogs compose overlay shards over the shared base: a
  tenant sees its private packages, other tenants get 422 for them, and
  the base family stays shared;
* parse errors map to 400, unknown tenants to 404, unsolvable specs to
  422 — a malformed request never kills a worker thread;
* every error body — HTTP responses and streamed terminal records alike —
  uses the one envelope ``{"status": ..., "error": {"code", "message",
  "detail"}}`` (ISSUE 9), and the service accepts a ``SessionConfig``
  instead of loose session kwargs.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.spack.concretize.config import SessionConfig
from repro.spack.concretize.session import ConcretizationSession, clear_shared_bases
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


class TenantTool(Package):
    """A tenant-private package over the shared base catalog."""

    name = "tenant-tool"
    version("1.0")
    depends_on("zlib")


@pytest.fixture()
def service(micro_repo):
    clear_shared_bases()
    with ConcretizationService(
        base_repo=micro_repo,
        max_concurrency=2,
        queue_limit=1,
        default_deadline_s=60.0,
        retry_after_s=0.25,
        session_config=SessionConfig(share_ground_cache=False),
    ) as svc:
        yield svc


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
    original = ConcretizationSession._solve_uncached
    slow = [True]

    def maybe_slow(self, spec, base):
        if slow[0]:
            time.sleep(1.0)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", maybe_slow)

    with pytest.raises(DeadlineExceededError):
        service.concretize_batch(
            ["example@1.0.0", "example@1.1.0", "example+bzip"], deadline_s=0.2
        )
    # the solve was cancelled, not leaked: every semaphore permit is back
    state = service._tenant(None)
    assert state.async_session._semaphore._value == service.max_concurrency
    assert service.counters["deadline_exceeded"] == 1
    assert service.counters["in_flight"] == 0
    # and the session still answers at full speed afterwards
    slow[0] = False
    assert service.concretize("example@1.0.0", deadline_s=30)["concrete"]


def test_mid_stream_deadline_ends_stream_with_504_record(service, monkeypatch):
    original = ConcretizationSession._solve_uncached

    def slow(self, spec, base):
        time.sleep(1.0)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", slow)
    records = list(
        service.stream_batch(["example@1.0.0", "example@1.1.0"], deadline_s=0.2)
    )
    assert records[-1]["status"] == 504
    state = service._tenant(None)
    assert state.async_session._semaphore._value == service.max_concurrency
    assert service.counters["in_flight"] == 0


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

    def slow(self, spec, base):
        time.sleep(1.0)
        return original(self, spec, base)

    monkeypatch.setattr(ConcretizationSession, "_solve_uncached", slow)
    status, body, _ = http_json(
        f"{server.url}/v1/concretize",
        {"spec": "example@1.0.0", "deadline_s": 0.2},
    )
    assert status == 504
    assert body["error"]["code"] == "deadline_exceeded"
    assert "deadline" in body["error"]["message"]
    assert body["error"]["detail"]["deadline_s"] == pytest.approx(0.2)
    state = service._tenant(None)
    assert state.async_session._semaphore._value == service.max_concurrency


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


def test_server_start_stop_is_clean(micro_repo):
    clear_shared_bases()
    service = ConcretizationService(
        base_repo=micro_repo, session_config=SessionConfig(share_ground_cache=False)
    )
    with service, ConcretizationServer(service, port=0) as server:
        status, body, _ = http_json(f"{server.url}/v1/healthz")
        assert status == 200
    # closed cleanly: the service reports stopped and rejects new work
    assert service.healthz()["status"] == "stopped"
    with pytest.raises(RuntimeError):
        service.concretize("example")
