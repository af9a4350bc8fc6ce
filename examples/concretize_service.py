#!/usr/bin/env python3
"""Concretization-as-a-service, step by step (the ISSUE-6 tentpole).

This walks the service stack without needing a second terminal: it boots a
real HTTP server on an ephemeral port, then plays the roles of several
clients against it.

1. **The service core** (:class:`repro.spack.service.app.ConcretizationService`)
   owns one :class:`repro.spack.concretize.session.ConcretizationSession`
   and one pool of solver threads per tenant; the request's own thread
   answers cache hits.  Tenant catalogs are composed with
   ``ShardedRepository.compose(overlay, base)`` — overlay shards layer
   *after* the base, so every tenant shares the base ground layers and a
   tenant edit re-grounds exactly one layer.
2. **The HTTP transport** (:class:`repro.spack.service.http.ConcretizationServer`)
   maps it onto ``POST /v1/concretize``, ``POST /v1/concretize_batch``
   (ordered, or ``"stream": true`` for completion-order NDJSON),
   ``GET /v1/healthz``, and ``GET /v1/stats``.
3. **Deadlines**: each request carries ``deadline_s`` (or an
   ``X-Deadline-Seconds`` header); a request that cannot finish in time is
   answered **504**, and its solves that had not started are *cancelled*.
4. **Backpressure**: at most ``max_concurrency + queue_limit`` requests are
   in flight; the next one is shed with **429** and a ``Retry-After`` hint
   instead of queueing without bound.

Run with::

    PYTHONPATH=src python examples/concretize_service.py
"""

import json
import time
import urllib.error
import urllib.request

from repro.spack.concretize import SessionConfig
from repro.spack.directives import depends_on, version
from repro.spack.package import Package
from repro.spack.service import ConcretizationServer, ConcretizationService


class Webstack(Package):
    """A tenant-private package layered over the shared builtin catalog."""

    version("1.0")
    depends_on("zlib@1.2.8:")
    depends_on("openssl")


def post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


def main():
    service = ConcretizationService(
        default_deadline_s=120.0, session_config=SessionConfig(max_concurrency=4)
    )
    service.add_tenant("acme", packages=[Webstack])

    with service, ConcretizationServer(service, port=0) as server:
        print(f"serving on {server.url}\n")

        # -- a single solve through the default tenant (builtin catalog)
        start = time.perf_counter()
        status, body = post(f"{server.url}/v1/concretize", {"spec": "zlib"})
        print(f"[{status}] zlib -> {body['result']['concrete'].split(' %')[0]}"
              f"  ({time.perf_counter() - start:.2f}s cold)")

        # -- the same solve again: answered from the tenant's warm cache
        start = time.perf_counter()
        status, body = post(f"{server.url}/v1/concretize", {"spec": "zlib"})
        print(f"[{status}] zlib again                 "
              f"({time.perf_counter() - start:.3f}s warm)")

        # -- the acme tenant sees its private package over the shared base
        status, body = post(
            f"{server.url}/v1/concretize", {"spec": "webstack", "tenant": "acme"}
        )
        print(f"[{status}] webstack (tenant=acme) -> "
              f"{body['result']['concrete'].split(' %')[0]}")

        # -- the default tenant does not
        status, body = post(f"{server.url}/v1/concretize", {"spec": "webstack"})
        print(f"[{status}] webstack (default tenant): {body['error']}")

        # -- a malformed spec is a clean 400, not a dead worker
        status, body = post(f"{server.url}/v1/concretize", {"spec": "zlib+pic+pic"})
        print(f"[{status}] zlib+pic+pic: {body['error']}")

        # -- an impossible deadline: 504, and the solve is cancelled
        status, body = post(
            f"{server.url}/v1/concretize",
            {"spec": "hdf5+mpi", "deadline_s": 0.05},
        )
        print(f"[{status}] hdf5+mpi with a 50 ms deadline: {body['error']}")

        # -- service statistics: admission, deadlines, per-tenant sessions
        with urllib.request.urlopen(f"{server.url}/v1/stats", timeout=30) as response:
            stats = json.loads(response.read())
        svc = stats["service"]
        print(
            f"\nstats: {svc['requests']} requests, "
            f"{svc['completed']} completed, "
            f"{svc['deadline_exceeded']} deadline-exceeded, "
            f"{svc['rejected_overload']} shed"
        )
        for tenant, tstats in sorted(stats["tenants"].items()):
            print(f"  {tenant}: {tstats['requests']} requests over "
                  f"{tstats['packages']} packages ({tstats['catalog']})")


if __name__ == "__main__":
    main()
