#!/usr/bin/env python3
"""CI smoke test for the concretization service over real HTTP.

Boots a server on an ephemeral loopback port against the builtin catalog and
drives the request lifecycle end to end:

1. ``GET /v1/healthz`` answers ``ok``;
2. ``POST /v1/concretize`` solves a real spec (``zlib``) and returns a
   concrete result payload;
3. a batch with a tiny deadline against an artificially slowed solver
   returns **504** at the deadline, and the solve it had not started yet
   never runs (it was cancelled, not leaked);
4. a repeat of the first request still succeeds (the worker pool survived);
5. an unsatisfiable spec returns **422** whose body carries the minimal
   conflict core (structured constraint provenance, not just prose);
6. ``GET /v1/stats`` reflects exactly the traffic driven;
7. server and service shut down cleanly (no lingering non-daemon threads).

With ``--workers N`` it instead exercises the multi-process warm-start
contract (ISSUE 9 tentpole): N server processes share one ``cache_dir``;
the first request grounds its one base cold (``service.snapshot.cold_grounds
== 1`` on the first worker) and publishes an mmap ground snapshot, and
every later worker reaches warm state by *attaching* it — asserted as
``service.snapshot.cold_grounds == 0`` with ``attaches >= 1`` on the
second worker's ``/v1/stats``.

Exits non-zero on the first violated expectation.  Run from the repository
root (CI does)::

    PYTHONPATH=src python tools/smoke_service.py
    PYTHONPATH=src python tools/smoke_service.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro.spack.concretize import SessionConfig
from repro.spack.concretize.session import ConcretizationSession
from repro.spack.service import ConcretizationServer, ConcretizationService


def request(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if data else {}
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, json.loads(body) if body else {}


def main() -> int:
    failures = []

    def check(label, condition, detail=""):
        status = "ok" if condition else "FAIL"
        print(f"[smoke-service] {label}: {status}{' — ' + detail if detail and not condition else ''}")
        if not condition:
            failures.append(label)

    service = ConcretizationService(
        default_deadline_s=60.0, session_config=SessionConfig(max_concurrency=2)
    )
    with service, ConcretizationServer(service, port=0) as server:
        status, body = request(f"{server.url}/v1/healthz")
        check("healthz answers ok", status == 200 and body.get("status") == "ok",
              f"status={status} body={body}")

        status, body = request(f"{server.url}/v1/concretize", {"spec": "zlib"})
        check("concretize zlib succeeds",
              status == 200 and body.get("result", {}).get("concrete", "").startswith("zlib"),
              f"status={status} body={body}")

        # deadline: slow every solve down, then send one more miss than
        # there are solver threads, with an impossible deadline
        original = ConcretizationSession._solve_uncached
        slow = [True]
        started = []

        def maybe_slow(self, spec, base):
            started.append(str(spec))
            if slow[0]:
                time.sleep(2.0)
            return original(self, spec, base)

        ConcretizationSession._solve_uncached = maybe_slow
        try:
            start = time.perf_counter()
            status, body = request(
                f"{server.url}/v1/concretize_batch",
                {"specs": ["zlib@1.2.11", "zlib@1.2.8", "zlib~shared"], "deadline_s": 0.3},
            )
            elapsed = time.perf_counter() - start
            check("deadline-exceeded returns 504", status == 504,
                  f"status={status} body={body}")
            check("504 arrives at ~the deadline, not after the solve",
                  elapsed < 1.5, f"elapsed={elapsed:.2f}s")
            time.sleep(2.5)  # the two solves already running end
            check("the solve not yet started was cancelled and never ran",
                  len(started) == service.max_concurrency, f"started={started}")
        finally:
            slow[0] = False
            ConcretizationSession._solve_uncached = original

        status, body = request(f"{server.url}/v1/concretize", {"spec": "zlib"})
        check("service still answers after the 504", status == 200,
              f"status={status}")

        status, body = request(
            f"{server.url}/v1/concretize", {"spec": "zlib@99.99"}
        )
        error = body.get("error", {})
        detail = error.get("detail", {}) if isinstance(error, dict) else {}
        check("unsatisfiable spec returns 422 with its conflict core",
              status == 422
              and error.get("code") == "unsolvable"
              and [entry.get("constraint")
                   for entry in detail.get("conflict_core", [])]
              == ['zlib: requested spec "zlib @99.99"']
              and detail.get("specs") == ["zlib @99.99"],
              f"status={status} body={body}")

        status, body = request(f"{server.url}/v1/stats")
        counters = body.get("service", {})
        check("stats reflect the traffic",
              status == 200
              and counters.get("requests") == 4
              and counters.get("deadline_exceeded") == 1
              and counters.get("unsolvable") == 1
              and counters.get("in_flight") == 0,
              f"counters={counters}")

    check("clean shutdown", service.healthz()["status"] == "stopped")

    if failures:
        print(f"[smoke-service] {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("[smoke-service] all checks passed")
    return 0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(url: str, proc: subprocess.Popen, timeout: float = 60.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            return False
        try:
            status, body = request(f"{url}/v1/healthz")
            if status == 200 and body.get("status") == "ok":
                return True
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            pass
        time.sleep(0.2)
    return False


def multi_worker_main(workers: int) -> int:
    """N server processes, one cache_dir: later workers must attach, not ground."""
    failures = []

    def check(label, condition, detail=""):
        status = "ok" if condition else "FAIL"
        print(f"[smoke-service] {label}: {status}"
              f"{' — ' + detail if detail and not condition else ''}")
        if not condition:
            failures.append(label)

    cache_dir = tempfile.mkdtemp(prefix="smoke-service-snap-")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    procs, urls = [], []
    try:
        for _ in range(workers):
            port = free_port()
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.spack.service",
                 "--port", str(port), "--cache-dir", cache_dir, "--quiet"],
                env=env,
            ))
            urls.append(f"http://127.0.0.1:{port}")
        for index, url in enumerate(urls):
            check(f"worker {index} comes up healthy",
                  wait_healthy(url, procs[index]))
        if failures:
            return 1

        # worker 0 grounds cold and publishes the snapshot
        status, body = request(f"{urls[0]}/v1/concretize", {"spec": "zlib"})
        check("worker 0 concretizes zlib", status == 200,
              f"status={status} body={body}")
        status, body = request(f"{urls[0]}/v1/stats")
        snap = body.get("service", {}).get("snapshot", {})
        check("worker 0 ground its one base cold and wrote the snapshot",
              status == 200 and snap.get("cold_grounds") == 1
              and snap.get("writes", 0) >= 1,
              f"snapshot={snap}")

        # every other worker answers a *new* spec of the same family: its
        # base must come from the shared snapshot, with zero grounding
        versions = ["1.2.11", "1.2.8", "1.2.3"]
        for index, url in enumerate(urls[1:], start=1):
            spec = f"zlib@{versions[(index - 1) % len(versions)]}"
            status, body = request(f"{url}/v1/concretize", {"spec": spec})
            check(f"worker {index} concretizes {spec}", status == 200,
                  f"status={status} body={body}")
            status, body = request(f"{url}/v1/stats")
            snap = body.get("service", {}).get("snapshot", {})
            check(f"worker {index} attached the snapshot with zero grounding",
                  status == 200 and snap.get("cold_grounds") == 0
                  and snap.get("attaches", 0) >= 1,
                  f"snapshot={snap}")
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        shutil.rmtree(cache_dir, ignore_errors=True)

    if failures:
        print(f"[smoke-service] {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print(f"[smoke-service] all multi-worker checks passed ({workers} workers)")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="run the multi-process warm-start smoke with N "
                             "server processes sharing one snapshot cache")
    args = parser.parse_args()
    if args.workers > 1:
        raise SystemExit(multi_worker_main(args.workers))
    raise SystemExit(main())
