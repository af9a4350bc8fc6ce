"""Helpers for recording benchmark series, plus the benchmark-trend runner.

Every benchmark regenerates one table or figure of the paper.  Since the
interesting output is a *series* (e.g. solve time vs. number of possible
dependencies) rather than a single number, each harness writes its rows both
to stdout and to ``benchmarks/results/<name>.txt`` (human-readable) and
``benchmarks/results/<name>.json`` (machine-readable) so the data survives
the pytest run and can be compared against the paper (see EXPERIMENTS.md).

This module is also the **bench-trend** entry point CI uses to record the
repository's performance trajectory::

    PYTHONPATH=src python benchmarks/reporting.py --quick

runs every ``--quick``-capable session benchmark as a subprocess, times it,
collects the machine-readable tables it recorded, and writes one aggregate
trend file ``BENCH_<n>.json`` — ``n`` derived from the ``BENCH_TREND_NUMBER``
environment variable or the latest ``PR <n>`` line in ``CHANGES.md`` (see
:func:`trend_number`), never hardcoded — whose schema is stable across PRs
and which embeds a ``history`` summary of every *prior* ``BENCH_*.json``,
so the perf trajectory reads as a curve instead of an empty placeholder.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCHMARKS_DIR)
RESULTS_DIR = os.path.join(BENCHMARKS_DIR, "results")

#: The benchmarks the trend runner executes, in order.  Each must accept
#: ``--quick`` (the CI smoke mode) and record its tables through
#: :func:`record` so the trend file can pick them up.
QUICK_BENCHMARKS = (
    "bench_batch_session.py",
    "bench_warm_start.py",
    "bench_sharded_repo.py",
    "bench_async_session.py",
    "bench_service.py",
    "bench_unsat.py",
    "bench_snapshot.py",
)

#: Schema version of the aggregate trend file.  Bump on layout changes so
#: downstream tooling comparing BENCH_<n>.json files across PRs can tell.
TREND_SCHEMA = 2


def format_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _json_cell(cell):
    return cell if isinstance(cell, (int, float, bool, str)) or cell is None else str(cell)


def record(name: str, title: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Print and persist one result table; returns the formatted text.

    Writes both renderings: ``results/<name>.txt`` for humans and
    ``results/<name>.json`` (``{"name", "title", "header", "rows"}``) for
    the trend runner and any downstream tooling.
    """
    rows = list(rows)
    text = format_table(title, header, rows)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as stream:
        stream.write(text + "\n")
    payload = {
        "name": name,
        "title": title,
        "header": list(header),
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
    }
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print("\n" + text)
    return text


# ---------------------------------------------------------------------------
# The bench-trend runner
# ---------------------------------------------------------------------------


def trend_number() -> int:
    """The PR number this trend run belongs to — *derived*, never hardcoded.

    Resolution order:

    1. the ``BENCH_TREND_NUMBER`` environment variable (CI sets it from the
       PR/issue number);
    2. the highest ``PR <n>`` recorded in ``CHANGES.md`` (every merged PR
       appends one line there, so a local run after updating CHANGES.md
       reproduces exactly the file CI will emit);
    3. 1, when neither exists (a fresh checkout before any PR landed).
    """
    override = os.environ.get("BENCH_TREND_NUMBER")
    if override:
        try:
            return int(override)
        except ValueError:
            print(
                f"[bench-trend] ignoring non-integer BENCH_TREND_NUMBER={override!r}",
                file=sys.stderr,
            )
    changes = os.path.join(REPO_ROOT, "CHANGES.md")
    numbers = []
    try:
        with open(changes) as stream:
            for line in stream:
                match = re.match(r"^PR (\d+)\b", line.strip())
                if match:
                    numbers.append(int(match.group(1)))
    except OSError:
        pass
    return max(numbers) if numbers else 1


def default_trend_path() -> str:
    """``<repo>/BENCH_<n>.json`` for the current :func:`trend_number`."""
    return os.path.join(REPO_ROOT, f"BENCH_{trend_number()}.json")


def collect_history() -> List[Dict]:
    """Summaries of every prior ``BENCH_*.json``, oldest first.

    This is what turns a pile of per-PR artifacts into a *trajectory*:
    each entry carries the PR number, benchmark count/status, and total
    quick-sweep wall time, so the current trend file shows the whole curve.
    Missing, empty, or corrupt prior files are tolerated (recorded as
    ``"unreadable"`` entries rather than aborting or — worse — silently
    yielding an empty history).
    """
    history: List[Dict] = []
    for path in sorted(
        glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")),
        key=lambda p: _bench_number(p),
    ):
        number = _bench_number(path)
        if number is None:
            continue
        entry: Dict = {"pr": number, "file": os.path.basename(path)}
        try:
            with open(path) as stream:
                payload = json.load(stream)
        except (OSError, ValueError):
            entry["status"] = "unreadable"
            history.append(entry)
            continue
        if not isinstance(payload, dict) or not payload.get("benchmarks"):
            entry["status"] = "empty"
            history.append(entry)
            continue
        benchmarks = payload["benchmarks"]
        entry["status"] = (
            "ok" if all(b.get("status") == "ok" for b in benchmarks) else "fail"
        )
        entry["benchmarks"] = len(benchmarks)
        entry["total_wall_time_s"] = round(
            sum(b.get("wall_time_s", 0) for b in benchmarks), 3
        )
        entry["generated_utc"] = payload.get("generated_utc")
        history.append(entry)
    return history


def _bench_number(path: str) -> Optional[int]:
    match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    return int(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# Per-metric deltas + the regression gate
# ---------------------------------------------------------------------------

#: Default relative noise band for the wall-time regression gate.  Shared CI
#: runners jitter; a slowdown must exceed the band to count as a regression.
#: Override with the ``BENCH_NOISE_BAND`` environment variable (e.g. ``0.2``
#: on quiet dedicated hardware).
DEFAULT_NOISE_BAND = 0.5

#: Wall-time metrics faster than this (seconds) are exempt from the gate:
#: at sub-50ms scales the relative band measures scheduler jitter, not code.
MIN_GATED_SECONDS = 0.05


def noise_band() -> float:
    """The configured relative noise band (fraction, not percent)."""
    raw = os.environ.get("BENCH_NOISE_BAND")
    if raw:
        try:
            value = float(raw)
            if value >= 0:
                return value
        except ValueError:
            pass
        print(
            f"[bench-trend] ignoring invalid BENCH_NOISE_BAND={raw!r}",
            file=sys.stderr,
        )
    return DEFAULT_NOISE_BAND


def _parse_metric(value) -> Optional[float]:
    """A float out of a recorded table cell (``"1.234"``, ``"2.5x"``, 7)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        return None
    text = value.strip().rstrip("x")
    try:
        return float(text)
    except ValueError:
        return None


def previous_trend(current_number: int) -> Optional[Dict]:
    """The payload of the newest ``BENCH_<m>.json`` with ``m < n``, if any."""
    best: Optional[tuple] = None
    for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")):
        number = _bench_number(path)
        if number is None or number >= current_number:
            continue
        if best is None or number > best[0]:
            best = (number, path)
    if best is None:
        return None
    try:
        with open(best[1]) as stream:
            payload = json.load(stream)
    except (OSError, ValueError):
        return None
    if isinstance(payload, dict):
        payload.setdefault("pr", best[0])
        return payload
    return None


def compute_deltas(
    current_tables: Dict[str, Dict], prior_tables: Dict[str, Dict]
) -> Dict[str, Dict]:
    """Per-metric deltas vs the prior trend file's tables.

    Only numeric metrics present in both runs are compared.  A table whose
    *title* changed between runs is skipped entirely (and marked
    ``workload_changed``): benchmarks encode their workload in the title, so
    a title change means the numbers measure different work and a delta
    would be noise dressed up as signal.
    """
    deltas: Dict[str, Dict] = {}
    for name, table in sorted(current_tables.items()):
        prior = prior_tables.get(name)
        if not isinstance(prior, dict):
            continue
        if prior.get("title") != table.get("title"):
            deltas[name] = {"workload_changed": True}
            continue
        prior_rows = {
            row[0]: row[1]
            for row in prior.get("rows", ())
            if isinstance(row, (list, tuple)) and len(row) >= 2
        }
        metrics: Dict[str, Dict] = {}
        for row in table.get("rows", ()):
            if not isinstance(row, (list, tuple)) or len(row) < 2:
                continue
            metric = row[0]
            current = _parse_metric(row[1])
            prior_value = _parse_metric(prior_rows.get(metric))
            if current is None or prior_value is None:
                continue
            entry: Dict[str, object] = {
                "previous": prior_value,
                "current": current,
            }
            if prior_value:
                entry["delta_pct"] = round(
                    (current - prior_value) / prior_value * 100.0, 1
                )
            metrics[metric] = entry
        if metrics:
            deltas[name] = metrics
    return deltas


def check_regressions(trend: Dict, band: Optional[float] = None) -> List[str]:
    """Wall-time regressions beyond the noise band, as failure strings.

    Gated metrics are the ones benchmarks label with an ``[s]`` suffix —
    wall times by convention.  A metric regresses when
    ``current > previous * (1 + band)`` and the previous value is at least
    :data:`MIN_GATED_SECONDS` (sub-jitter timings are informational only).
    Missing prior data is never a failure: the first run after a workload
    change has nothing comparable to regress against.
    """
    if band is None:
        band = noise_band()
    failures: List[str] = []
    for table_name, metrics in sorted((trend.get("deltas") or {}).items()):
        if not isinstance(metrics, dict) or metrics.get("workload_changed"):
            continue
        for metric, entry in sorted(metrics.items()):
            if not isinstance(entry, dict) or not metric.endswith("[s]"):
                continue
            previous = entry.get("previous")
            current = entry.get("current")
            if not isinstance(previous, (int, float)) or not isinstance(
                current, (int, float)
            ):
                continue
            if previous < MIN_GATED_SECONDS:
                continue
            if current > previous * (1.0 + band):
                failures.append(
                    f"{table_name}: {metric} regressed "
                    f"{previous:.3f}s -> {current:.3f}s "
                    f"(+{(current - previous) / previous * 100.0:.0f}%, "
                    f"band {band * 100.0:.0f}%)"
                )
    return failures


def run_quick_benchmarks(scripts: Sequence[str] = QUICK_BENCHMARKS) -> List[Dict]:
    """Run every quick benchmark as a subprocess; one status entry each.

    A failing benchmark does not abort the sweep — its non-zero exit code is
    recorded (and surfaced through :func:`main`'s exit status) so the trend
    file always reflects the full picture.
    """
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    entries = []
    for script in scripts:
        path = os.path.join(BENCHMARKS_DIR, script)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, path, "--quick"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        entry = {
            "benchmark": script,
            "status": "ok" if proc.returncode == 0 else "fail",
            "returncode": proc.returncode,
            "wall_time_s": round(elapsed, 3),
        }
        if proc.returncode != 0:
            entry["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
        entries.append(entry)
        print(f"[bench-trend] {script}: {entry['status']} in {elapsed:.1f}s")
    return entries


def collect_tables(since: Optional[float] = None) -> Dict[str, Dict]:
    """Machine-readable tables under ``results/``.

    With ``since`` (a ``time.time()`` stamp), only tables written at or
    after it are collected — the trend runner passes its sweep start so a
    locally regenerated trend file can never pick up stale tables from
    earlier, unrelated benchmark runs and diverge from CI's fresh-checkout
    artifact.
    """
    tables: Dict[str, Dict] = {}
    if not os.path.isdir(RESULTS_DIR):
        return tables
    for filename in sorted(os.listdir(RESULTS_DIR)):
        if not filename.endswith(".json"):
            continue
        path = os.path.join(RESULTS_DIR, filename)
        try:
            if since is not None and os.stat(path).st_mtime < since:
                continue
            with open(path) as stream:
                payload = json.load(stream)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and "rows" in payload:
            tables[payload.get("name", filename[:-5])] = payload
    return tables


def write_trend(output: str, entries: List[Dict], since: Optional[float] = None) -> Dict:
    """Aggregate run entries + recorded tables + prior history into one
    trend file.  The output file itself is excluded from the history, so
    re-running the sweep is idempotent (the current run never summarizes a
    stale copy of itself)."""
    history = [
        entry
        for entry in collect_history()
        if entry.get("file") != os.path.basename(output)
    ]
    number = trend_number()
    tables = collect_tables(since=since)
    prior = previous_trend(number)
    deltas = compute_deltas(tables, (prior or {}).get("tables") or {})
    trend = {
        "schema": TREND_SCHEMA,
        "source": "benchmarks/reporting.py --quick",
        "pr": number,
        "previous_pr": prior.get("pr") if prior else None,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": entries,
        "tables": tables,
        "deltas": deltas,
        "history": history,
    }
    with open(output, "w") as stream:
        json.dump(trend, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return trend


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run every quick session benchmark and aggregate the trend file",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="path of the aggregate trend file (default: BENCH_<n>.json "
        "where n comes from BENCH_TREND_NUMBER or CHANGES.md; see "
        "trend_number)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="after the sweep (or standalone against an existing trend "
        "file), fail on wall-time regressions vs the previous BENCH_*.json "
        "beyond the noise band (BENCH_NOISE_BAND, default "
        f"{DEFAULT_NOISE_BAND})",
    )
    args = parser.parse_args(argv)
    if not args.quick and not args.check:
        parser.error("nothing to do: pass --quick and/or --check")
    output = args.output or default_trend_path()

    failures: List[str] = []
    if args.quick:
        sweep_start = time.time()
        entries = run_quick_benchmarks()
        trend = write_trend(output, entries, since=sweep_start)
        failed = [e for e in entries if e["status"] != "ok"]
        failures += [f"{e['benchmark']} exited {e['returncode']}" for e in failed]
        print(
            f"[bench-trend] wrote {output}: {len(entries) - len(failed)}/"
            f"{len(entries)} benchmarks ok"
        )
    else:
        try:
            with open(output) as stream:
                trend = json.load(stream)
        except (OSError, ValueError) as error:
            print(f"[bench-trend] cannot read {output}: {error}", file=sys.stderr)
            return 1

    if args.check:
        regressions = check_regressions(trend)
        for regression in regressions:
            print(f"[bench-trend] REGRESSION: {regression}", file=sys.stderr)
        if not regressions:
            compared = sum(
                len(m)
                for m in (trend.get("deltas") or {}).values()
                if isinstance(m, dict) and not m.get("workload_changed")
            )
            print(
                f"[bench-trend] regression check ok "
                f"({compared} metrics compared, band {noise_band() * 100:.0f}%)"
            )
        failures += regressions
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
