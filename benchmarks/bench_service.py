#!/usr/bin/env python3
"""Benchmark: the concretization service under concurrent multi-tenant load.

An in-process load generator against :class:`ConcretizationService` — no
sockets, so the numbers measure the service core (admission, deadline
supervision, per-tenant sessions over the shared base layers), not TCP:

1. two tenants are registered, each composing a one-package overlay shard
   over the shared micro catalog (``ShardedRepository.compose``);
2. a warmup pass concretizes each distinct spec once per tenant, so the
   measured phase exercises the service on warm per-tenant caches — the
   steady state a long-lived server actually runs in;
3. N client threads per tenant then issue single-spec requests from the
   16-spec overlapping family for a fixed wall-clock window, recording
   per-request latency.

Reported per tenant and overall: requests/s, p50 and p99 latency.
Assertions:

* every request succeeds (no 429/504 at this offered load: the admission
  queue is sized for the client count);
* both tenants make progress (each completes at least one request);
* every response is a well-formed result payload (concrete spec string).

``--quick`` (the CI smoke) shrinks the measurement window and client
count.  Absolute throughput is hardware-dependent; nothing wall-clock is
asserted.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py --quick
    PYTHONPATH=src python benchmarks/bench_service.py          # full
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, REPO_ROOT)

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import FAMILY_WORKLOAD_16 as WORKLOAD  # noqa: E402
from benchmarks.workloads import micro_repo  # noqa: E402
from repro.spack.concretize import SessionConfig  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402
from repro.spack.directives import depends_on, version  # noqa: E402
from repro.spack.package import Package  # noqa: E402
from repro.spack.service import ConcretizationService  # noqa: E402

MAX_CONCURRENCY = 4
QUEUE_LIMIT = 64  # sized so this benchmark's offered load is never shed


class TenantAApp(Package):
    """Tenant A's private package, layered over the shared base."""

    name = "tenant-a-app"
    version("1.0")
    depends_on("zlib")


class TenantBApp(Package):
    """Tenant B's private package, layered over the shared base."""

    name = "tenant-b-app"
    version("2.0")
    depends_on("bzip2")


TENANTS = {
    "tenant-a": (TenantAApp, "tenant-a-app"),
    "tenant-b": (TenantBApp, "tenant-b-app"),
}


def percentile(sorted_values, fraction):
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_load(service, tenant, specs, clients, duration_s, failures):
    """Drive one tenant with ``clients`` threads; returns latency samples."""
    latencies = []
    lock = threading.Lock()
    deadline = time.perf_counter() + duration_s

    def client(worker_index):
        position = worker_index  # stagger starting offsets across clients
        while time.perf_counter() < deadline:
            spec = specs[position % len(specs)]
            position += 1
            start = time.perf_counter()
            try:
                payload = service.concretize(spec, tenant=tenant, deadline_s=30.0)
            except Exception as exc:
                with lock:
                    failures.append(f"{tenant}: {spec!r} failed: {exc}")
                return
            elapsed = time.perf_counter() - start
            if not payload.get("concrete"):
                with lock:
                    failures.append(f"{tenant}: {spec!r} returned no concrete spec")
                return
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short measurement window, fewer clients (CI smoke test)",
    )
    args = parser.parse_args(argv)

    clients = 2 if args.quick else 4
    duration_s = 2.0 if args.quick else 8.0

    clear_shared_bases()
    failures = []
    rows = []
    with ConcretizationService(
        base_repo=micro_repo(),
        max_concurrency=MAX_CONCURRENCY,
        queue_limit=QUEUE_LIMIT,
        default_deadline_s=60.0,
        session_config=SessionConfig(),
    ) as service:
        specs_of = {}
        for tenant, (package_cls, private_spec) in TENANTS.items():
            service.add_tenant(tenant, packages=[package_cls])
            specs_of[tenant] = list(WORKLOAD) + [private_spec]

        # warmup: populate each tenant's solve cache once per distinct spec
        warm_start = time.perf_counter()
        for tenant, specs in specs_of.items():
            for spec in specs:
                service.concretize(spec, tenant=tenant, deadline_s=120.0)
        warm_elapsed = time.perf_counter() - warm_start
        rows.append(("warmup (all tenants, cold) [s]", f"{warm_elapsed:.3f}"))

        # measured phase: all tenants hammered concurrently
        results = {}
        collectors = []
        for tenant, specs in specs_of.items():
            def collect(tenant=tenant, specs=specs):
                results[tenant] = run_load(
                    service, tenant, specs, clients, duration_s, failures
                )
            collectors.append(threading.Thread(target=collect, daemon=True))
        measure_start = time.perf_counter()
        for thread in collectors:
            thread.start()
        for thread in collectors:
            thread.join()
        measured = time.perf_counter() - measure_start

        all_latencies = []
        for tenant in TENANTS:
            latencies = sorted(results.get(tenant, []))
            all_latencies.extend(latencies)
            if not latencies:
                failures.append(f"{tenant}: completed zero requests")
                continue
            rows.extend(
                [
                    (f"{tenant} requests/s", f"{len(latencies) / measured:.1f}"),
                    (f"{tenant} p50 latency [ms]",
                     f"{percentile(latencies, 0.50) * 1e3:.2f}"),
                    (f"{tenant} p99 latency [ms]",
                     f"{percentile(latencies, 0.99) * 1e3:.2f}"),
                ]
            )
        all_latencies.sort()
        if all_latencies:
            rows.extend(
                [
                    ("overall requests/s", f"{len(all_latencies) / measured:.1f}"),
                    ("overall p50 latency [ms]",
                     f"{percentile(all_latencies, 0.50) * 1e3:.2f}"),
                    ("overall p99 latency [ms]",
                     f"{percentile(all_latencies, 0.99) * 1e3:.2f}"),
                ]
            )
        stats = service.statistics()["service"]
        if stats["rejected_overload"]:
            failures.append(
                f"admission queue shed {stats['rejected_overload']} requests "
                f"at an offered load it is sized for"
            )
        if stats["deadline_exceeded"]:
            failures.append(
                f"{stats['deadline_exceeded']} requests hit their deadline"
            )

    record(
        "service_load",
        f"Concretization service: {len(TENANTS)} tenants x {clients} clients "
        f"for {duration_s:g}s (max_concurrency={MAX_CONCURRENCY})",
        ["metric", "value"],
        rows,
    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            "\nOK: both tenants served warm requests concurrently with no "
            "shed load and no deadline misses"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
