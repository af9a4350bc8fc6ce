"""The processes the benchmark launches.

Run as ``python3 -m perfbench.child MODE JOB`` from the checkout root with
``src`` on ``PYTHONPATH``; ``JOB`` is a JSON file and the findings go, as
JSON, to the path in its ``out`` field.

``batch``      one measured in-memory session answering the job's requests
               in order (family-batch); with ``setup_only`` it stops once
               ready
``reference``  one-shot ``Concretizer`` answers: full grounding, no shared
               base, no delta, no caches
``fill``       concretizes the service workload's seen specs into the cache
               directory every measured server starts from a copy of
``server``     ``python -m repro.spack.service`` with the layer shims
               installed (``server OUT -- ARGS``); spans go to OUT on exit

Every mode prints ``ready`` (the server: its ``listening on`` line) once it
can take its first request.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def ready() -> None:
    print("ready", flush=True)


def catalog(job):
    if job["catalog"] == "builtin":
        from repro.spack.repo import builtin_repository

        return builtin_repository()
    from benchmarks.workloads import solver_heavy_repo

    return solver_heavy_repo()


def core(explanation):
    """A conflict core as comparable ``[package, kind, directive, when]`` rows."""
    return [[entry.package, entry.kind, entry.directive, entry.when] for entry in explanation]


def batch(job):
    from benchmarks.workloads import signature
    from repro.spack.concretize import ConcretizationSession, SessionConfig

    session = ConcretizationSession(repo=catalog(job), session_config=SessionConfig())
    ready()
    if job.get("setup_only"):
        return {}
    tracer = None
    if job.get("trace"):
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    answers, latency = [], []
    clock = time.perf_counter
    begin = clock()
    for spec in job["requests"]:
        start = clock()
        try:
            answers.append(session.concretize(spec))
        except Exception as exc:  # counted as a failed request, never fatal
            answers.append(exc)
        latency.append(clock() - start)
    wall = clock() - begin
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = session.statistics()
    return {
        "wall_s": wall,
        "latency_s": latency,
        "answers": [
            {"error": repr(answer)}
            if isinstance(answer, Exception)
            else {
                "signature": signature(answer),
                "cache": answer.statistics["session"]["solve_cache"],
            }
            for answer in answers
        ],
        "peak_rss_mb": rss_mb,
        "stats": {key: stats[key] for key in ("base_cache_hits", "delta_groundings")},
        "trace": tracer.dump() if tracer else None,
    }


def reference(job):
    from benchmarks.workloads import signature
    from repro.spack.concretize import Concretizer
    from repro.spack.errors import UnsatisfiableSpecError

    repo = catalog(job)
    ready()
    answers = {}
    for spec in job["specs"]:
        try:
            result = Concretizer(repo=repo).concretize(spec)
        except UnsatisfiableSpecError as error:
            answers[spec] = {"core": core(error.explanation)}
            continue
        answers[spec] = {"signature": signature(result), "dag_hash": result.spec.dag_hash()}
    return {"answers": answers}


def fill(job):
    from repro.spack.concretize import ConcretizationSession, SessionConfig

    session = ConcretizationSession(
        repo=catalog(job), session_config=SessionConfig(cache_dir=job["cache_dir"])
    )
    ready()
    session.solve(job["specs"])
    return {}


def server(out: str, argv) -> None:
    from perfbench.tracing import Tracer, install
    from repro.spack.service.__main__ import main

    tracer = Tracer()
    install(tracer)
    try:
        main(argv)
    finally:
        with open(out, "w") as handle:
            json.dump(tracer.dump(), handle)


MODES = {"batch": batch, "reference": reference, "fill": fill}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[0] == "server":
        server(argv[1], argv[3:] if argv[2:3] == ["--"] else argv[2:])
        return 0
    with open(argv[1]) as handle:
        job = json.load(handle)
    found = MODES[argv[0]](job)
    with open(job["out"], "w") as handle:
        json.dump(found, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
