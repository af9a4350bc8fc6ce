#!/usr/bin/env python3
"""The concretizer benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload family-batch --seed 1 --seconds 40 --trace 0

``--workload`` is ``family-batch``, ``service-mixed``, or ``all`` (each in
turn).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs the same work once untraced and twice
traced (``PYTHONHASHSEED`` 0 and 1) and reports the per-layer metrics,
failing when an exact count differs between the two traced runs.  The
fixed request list of a workload is repeated in fresh processes for as
long as the next repetition is expected to end within ``--seconds``.

Reference answers come from the one-shot ``Concretizer`` before anything
is timed.  A differing answer, an unexpected status or an exception counts
as a failed operation.  ``BENCHMARK.json`` names every metric and its unit,
``perfbench/METRICS.md`` says what each one measures.  The last line of
standard output is the JSON result; the exit code is 1 when the run is not
correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: one-shot reference answers, kept per program version across runs
REFERENCE_DIR = ROOT / ".perfbench-work" / "reference"

WORKLOADS = ("family-batch", "service-mixed")
#: set-up samples per run (the measured processes plus set-up-only launches)
SETUP_SAMPLES = 5
READY_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 170
SERVER_READY = "concretization service listening on "
#: counts whose size carries measured floats (the solve cache's JSON embeds
#: timings, whose text length varies), so two runs may differ by a few bytes
COUNT_TOLERANCE = {"cache.write.bytes": 1e-3}


class Run:
    """One benchmark invocation: its working directory and child processes."""

    def __init__(self):
        base = ROOT / ".perfbench-work"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=base))
        self.procs = []
        self.made = 0

    def path(self, name: str) -> Path:
        self.made += 1
        return self.dir / f"{self.made:03d}-{name}"

    def launch(self, args, hashseed: int = 0) -> subprocess.Popen:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            PYTHONHASHSEED=str(hashseed),
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.procs.append(proc)
        return proc

    def start_job(self, mode: str, job, hashseed: int = 0):
        path = self.path(f"{mode}.json")
        job = dict(job, out=f"{path}.out")
        path.write_text(json.dumps(job))
        started = time.perf_counter()
        return self.launch(["-m", "perfbench.child", mode, str(path)], hashseed), started, job["out"]

    def finish_job(self, handle):
        proc, started, out = handle
        setup_s, _line = wait_ready(proc, started, "ready")
        finish(proc, CHILD_TIMEOUT_S)
        found = json.loads(Path(out).read_text())
        found["setup_s"] = setup_s
        return found

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        shutil.rmtree(self.dir, ignore_errors=True)


def wait_ready(proc: subprocess.Popen, started: float, prefix: str):
    """Seconds from ``started`` until the child printed its ready line, and the line."""
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    elapsed = time.perf_counter() - started
    if not line.startswith(prefix):
        raise RuntimeError(f"child process did not come up (read {line!r})")
    return elapsed, line.strip()


def finish(proc: subprocess.Popen, timeout: float, clean=(0,)) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child process timed out") from None
    if proc.returncode not in clean:
        raise RuntimeError(f"child process exited with status {proc.returncode}")


class Tally:
    """Operations attempted and failed, plus run-level problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(reason)

    def problem(self, reason: str) -> None:
        self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def program_digest() -> str:
    """Digest of every file of the program, of the catalogs it is given
    and of the code that computes reference answers: those answers hold
    for exactly one digest."""
    digest = hashlib.sha256()
    files = [path for top in ("src", "benchmarks") for path in (ROOT / top).rglob("*")]
    for path in sorted(files + [ROOT / "perfbench" / "child.py"]):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def reference(run: Run, catalog, specs, wrong: bool = False):
    """One-shot answers for every distinct spec.  Answers an earlier run of
    the same program (same :func:`program_digest`) computed are read back;
    the rest are computed by two processes and kept for later runs."""
    distinct = sorted(set(specs))
    store = REFERENCE_DIR / f"{catalog}-{program_digest()}.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    missing = [spec for spec in distinct if spec not in known]
    handles = [
        run.start_job("reference", {"catalog": catalog, "specs": part})
        for part in (missing[0::2], missing[1::2])
        if part
    ]
    for handle in handles:
        known.update(run.finish_job(handle)["answers"])
    if missing:
        REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
        partial = run.path("reference.json")
        partial.write_text(json.dumps(known))
        os.replace(partial, store)
    answers = {spec: known[spec] for spec in distinct}
    if wrong:  # self-test: one deliberately wrong answer must fail the run
        answer = answers[distinct[0]]
        if "signature" in answer:
            answer["signature"][0] += " (wrong)"
        else:
            answer["core"].append(["wrong", "wrong", "wrong", None])
    return answers


def measure(seconds: float, one_pass):
    """Run ``one_pass`` once, then again while the passes so far, plus one
    more of their mean length, fit in ``seconds`` of measured wall time."""
    passes, spent = [], 0.0
    while not passes or spent * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(one_pass())
        spent += passes[-1]["wall_s"]
    return passes


def end_to_end(walls, setups, rss, hit_s, miss_s, notes):
    from perfbench import stats

    hits = stats.summarize([value * 1e3 for value in hit_s])
    misses = stats.summarize([value * 1e3 for value in miss_s])
    if hits["p90"] is None or misses["p50"] is None:
        raise RuntimeError("too few hit or miss samples for the latency metrics")
    notes.append(
        f"hits: n={hits['count']} p50={hits['p50']:.3f} ms p90={hits['p90']:.3f} ms, "
        f"highest supported p{hits['tail'][0]:g}={hits['tail'][1]:.3f} ms; "
        f"misses: n={misses['count']} p50={misses['p50']:.1f} ms; "
        f"passes={len(walls)} setup samples={len(setups)}"
    )
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "miss_p50_ms": misses["p50"],
    }


def traced(layers, traced_walls, plain_wall, units, tally):
    """Per-layer metrics of two traced passes: exact counts must agree,
    times are averaged, overhead is against the untraced pass."""
    metrics = {}
    for name, value in layers[0].items():
        if units.get(name) == "s" or name.startswith("trace."):
            metrics[name] = statistics.mean(layer[name] for layer in layers)
            continue
        if abs(layers[1][name] - value) > COUNT_TOLERANCE.get(name, 0.0) * abs(value):
            tally.problem(
                f"{name} differs between PYTHONHASHSEED 0 and 1: {value} != {layers[1][name]}"
            )
        metrics[name] = value
    metrics["trace.overhead_frac"] = statistics.mean(traced_walls) / plain_wall - 1.0
    return metrics


# ---------------------------------------------------------------------------
# family-batch
# ---------------------------------------------------------------------------


def batch_pass(run: Run, job, hashseed: int = 0, **flags):
    return run.finish_job(run.start_job("batch", dict(job, **flags), hashseed))


def batch_workload(args, run: Run, plan, units, tally: Tally, notes):
    from perfbench import tracing
    from perfbench.workloads import batch_requests

    specs = plan["specs"]
    requests = batch_requests(specs)
    # a spec's first request solves; every later one is a cache replay
    solves = [requests.index(spec) == index for index, spec in enumerate(requests)]
    expected = reference(run, plan["catalog"], specs, args.wrong_reference)
    job = {"catalog": plan["catalog"], "requests": requests}

    def checked(found):
        for spec, solve, answer in zip(requests, solves, found["answers"]):
            cache_state = "miss" if solve else "hit"
            ok = (
                answer.get("signature") == expected[spec].get("signature")
                and answer.get("cache") == cache_state
            )
            tally.check(ok, f"{spec!r} ({cache_state}): got {answer}")
        return found

    notes.append(f"specs: {specs}")
    if args.trace:
        # traced, untraced, traced: the overhead estimate sees no drift
        first = checked(batch_pass(run, job, 0, trace=True))
        plain = checked(batch_pass(run, job))
        passes = [first, checked(batch_pass(run, job, 1, trace=True))]
        layers = [tracing.per_layer(p["trace"], p["stats"], p["wall_s"]) for p in passes]
        return traced(layers, [p["wall_s"] for p in passes], plain["wall_s"], units, tally)
    passes = measure(args.seconds, lambda: checked(batch_pass(run, job)))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(batch_pass(run, job, setup_only=True)["setup_s"])
    latency = [(s, solve) for p in passes for s, solve in zip(p["latency_s"], solves)]
    return end_to_end(
        [p["wall_s"] for p in passes],
        setups,
        [p["peak_rss_mb"] for p in passes],
        [s for s, solve in latency if not solve],
        [s for s, solve in latency if solve],
        notes,
    )


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live process (Linux ``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def serve_pass(run: Run, plan, seen_dir: Path, hashseed: int = 0, trace=False, setup_only=False):
    """Start the server on a copy of the seen directory, drive the clients, stop it."""
    from perfbench import client

    cache_dir = run.path("cache")
    if setup_only:
        cache_dir.mkdir()
    else:
        shutil.copytree(seen_dir, cache_dir)
    options = ["--port", "0", "--cache-dir", str(cache_dir), "--quiet"]
    trace_out = run.path("trace.json")
    if trace:
        command = ["-m", "perfbench.child", "server", str(trace_out), "--", *options]
    else:
        command = ["-m", "repro.spack.service", *options]
    try:
        started = time.perf_counter()
        proc = run.launch(command, hashseed)
        setup_s, line = wait_ready(proc, started, SERVER_READY)
        found = {"setup_s": setup_s}
        url = line[len(SERVER_READY):]
        if setup_only:
            client.get_json(url, "/v1/healthz")
        else:
            outcomes, makespan = client.drive(url, plan["clients"])
            found.update(
                outcomes=outcomes,
                wall_s=makespan,
                stats=client.get_json(url, "/v1/stats"),
                peak_rss_mb=peak_rss_mb(proc.pid),
            )
        proc.send_signal(signal.SIGINT)
        # an interrupt that lands before the serve loop is still a clean stop
        finish(proc, 30, clean=(0, -signal.SIGINT))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if trace:
        found["trace"] = json.loads(trace_out.read_text())
    return found


def service_answer_ok(request, status, body, want) -> bool:
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    if "core" in want:
        if status != 422:
            return False
        core = payload["error"]["detail"]["conflict_core"]
        return [[e["package"], e["kind"], e["directive"], e["when"]] for e in core] == want["core"]
    if status != 200 or "signature" not in want:
        return False
    result, signature = payload["result"], want["signature"]
    return (
        result["concrete"] == signature[0]
        and result["nodes"] == len(signature[1])
        and result["built"] == signature[3]
        and result["reused"] == signature[4]
        and result["dag_hash"] == want["dag_hash"]
        and result["solve_cache"] == ("hit" if request["kind"] == "hit" else "miss")
    )


def service_workload(args, run: Run, plan, units, tally: Tally, notes):
    from perfbench import tracing

    seen_dir = run.path("seen")
    fill = run.start_job(
        "fill", {"catalog": "builtin", "specs": plan["seen"], "cache_dir": str(seen_dir)}
    )
    requested = plan["seen"] + [r["spec"] for requests in plan["clients"] for r in requests]
    expected = reference(run, "builtin", requested, args.wrong_reference)
    run.finish_job(fill)

    def checked(found):
        for outcomes in found.get("outcomes", ()):
            for request, status, body, _latency in outcomes:
                want = expected[request["spec"]]
                ok = service_answer_ok(request, status, body, want)
                tally.check(ok, f"{request} -> {status} {body[:300]!r}, want {want}")
        if "stats" in found:
            service = found["stats"]["service"]
            tenant = found["stats"]["tenants"]["default"]
            for counter in ("rejected_overload", "deadline_exceeded"):
                if service[counter]:
                    tally.problem(f"/v1/stats: {counter} = {service[counter]}")
            if tenant["base_groundings"] != plan["unseen_families"]:
                tally.problem(
                    f"/v1/stats: {tenant['base_groundings']} bases ground cold, "
                    f"expected one per unseen family ({plan['unseen_families']})"
                )
            notes.append(f"/v1/stats snapshot: {service['snapshot']}")
        return found

    notes.append(f"seen: {plan['seen']}")
    misses = [r["spec"] for requests in plan["clients"] for r in requests if r["kind"] != "hit"]
    notes.append(f"misses: {misses}")
    if args.trace:
        first = checked(serve_pass(run, plan, seen_dir, 0, trace=True))
        plain = checked(serve_pass(run, plan, seen_dir))
        passes = [first, checked(serve_pass(run, plan, seen_dir, 1, trace=True))]
        layers = []
        for found in passes:
            latency = sum(o[3] for outcomes in found["outcomes"] for o in outcomes)
            served = sum(s[3] - s[2] for s in found["trace"]["spans"] if s[0] == "service")
            tenant = found["stats"]["tenants"]["default"]
            counters = {
                "base_cache_hits": tenant["base_cache_hits"],
                "delta_groundings": tenant["delta_groundings"],
                "rejected_overload": found["stats"]["service"]["rejected_overload"],
            }
            layers.append(tracing.per_layer(found["trace"], counters, latency, latency - served))
        return traced(layers, [p["wall_s"] for p in passes], plain["wall_s"], units, tally)
    passes = measure(args.seconds, lambda: checked(serve_pass(run, plan, seen_dir)))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(serve_pass(run, plan, seen_dir, setup_only=True)["setup_s"])
    done = [o for p in passes for outcomes in p["outcomes"] for o in outcomes]
    return end_to_end(
        [p["wall_s"] for p in passes],
        setups,
        [p["peak_rss_mb"] for p in passes],
        [o[3] for o in done if o[0]["kind"] == "hit"],
        [o[3] for o in done if o[0]["kind"] != "hit"],
        notes,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def plan_for(workload: str, seed: int):
    from perfbench import workloads

    return {
        "family-batch": workloads.family_batch,
        "service-mixed": workloads.service_mixed,
    }[workload](seed)


def run_workload(args, workload: str, units, tally: Tally, notes):
    run = Run()
    try:
        plan = plan_for(workload, args.seed)
        if workload == "service-mixed":
            return service_workload(args, run, plan, units, tally, notes)
        return batch_workload(args, run, plan, units, tally, notes)
    finally:
        run.close()


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"machine: nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--wrong-reference",
        action="store_true",
        help="self-test: corrupt one reference answer; the run must come out incorrect",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "workloads.py").is_file():
        print("perfbench: run from a checkout of the repository (src/ and benchmarks/ missing)",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"] + spec["end_to_end"]}
    tally = Tally()
    metrics = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        notes = []
        attempted, failed = tally.attempted, tally.failed
        found = run_workload(args, workload, units, tally, notes)
        attempted, failed = tally.attempted - attempted, tally.failed - failed
        print(f"== {workload} seed={args.seed} trace={args.trace}")
        for entry in entries:
            value = found[entry["name"]]
            print(f"  {entry['name']:<26} {value:>16.6f} {entry['unit']}")
            key = entry["name"] if args.workload != "all" else f"{workload}.{entry['name']}"
            metrics[key] = {"value": value, "unit": entry["unit"]}
        print(f"  {'failed_frac':<26} {failed / max(1, attempted):>16.6f} ratio")
        for note in notes:
            print(f"  {note}")
    print(machine())
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still stop the children
    raise SystemExit(main())
