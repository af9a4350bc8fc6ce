"""Timing utilities mirroring the paper's per-phase measurement.

The paper instruments the concretizer into four phases (Section VII):

* **setup** — generating the facts for a given spec (done by the Spack layer),
* **load**  — loading/parsing the logic program,
* **ground** — grounding the logic program against the facts,
* **solve** — the actual search plus optimization.

:class:`PhaseTimer` accumulates wall-clock durations per named phase and is
shared between :class:`repro.asp.control.Control` and the concretizer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

PHASES = ("setup", "load", "ground", "solve")


class PhaseTimer:
    """Accumulates wall-clock time per named phase."""

    def __init__(self):
        self._durations: Dict[str, float] = {}
        self._starts: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager measuring one phase (durations accumulate)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._durations[name] = self._durations.get(name, 0.0) + elapsed

    def start(self, name: str):
        self._starts[name] = time.perf_counter()

    def stop(self, name: str):
        start = self._starts.pop(name, None)
        if start is None:
            return
        elapsed = time.perf_counter() - start
        self._durations[name] = self._durations.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float):
        self._durations[name] = self._durations.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        return self._durations.get(name, 0.0)

    @property
    def total(self) -> float:
        return sum(self._durations.values())

    def as_dict(self) -> Dict[str, float]:
        result = {name: self._durations.get(name, 0.0) for name in PHASES}
        for name, value in self._durations.items():
            result[name] = value
        result["total"] = self.total
        return result

    def merge(self, other: "PhaseTimer") -> "PhaseTimer":
        merged = PhaseTimer()
        for name, value in self._durations.items():
            merged.add(name, value)
        for name, value in other._durations.items():
            merged.add(name, value)
        return merged

    def __repr__(self):
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(self._durations.items()))
        return f"PhaseTimer({parts})"


class Timer:
    """Simple one-shot timer (used by benchmarks and the original concretizer)."""

    def __init__(self):
        self.start_time: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start_time = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.elapsed = time.perf_counter() - self.start_time
        return False


class ASPStats:
    """Opt-in fine-grained grounding/solving profile.

    Where :class:`PhaseTimer` mirrors the paper's four coarse phases, an
    ``ASPStats`` breaks the *ground* and *solve* phases down further: named
    stages (``ground.rules``, ``delta.facts``, ``solve.search`` ...), event
    counters (base and delta groundings run ...), and — when
    ``per_rule=True`` — per-rule wall-clock attribution so a grounding
    regression can be pinned to the rule that caused it.

    The object is cheap when unused (plain dict upserts) and entirely opt-in:
    the grounder/control take ``stats=None`` by default and skip all timing
    calls.  ``merge`` folds a worker's stats into a session-wide aggregate;
    ``as_dict`` is the JSON-friendly form served by ``/v1/stats`` and dumped
    by the bench-profile CI step.
    """

    def __init__(self, per_rule: bool = False):
        self.per_rule = per_rule
        self.stages: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.rules: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time under stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    def add_stage(self, name: str, seconds: float):
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_rule(self, label: str, seconds: float):
        self.rules[label] = self.rules.get(label, 0.0) + seconds

    def merge(self, other: "ASPStats"):
        """Fold ``other`` into this instance (sums everywhere)."""
        for name, value in other.stages.items():
            self.add_stage(name, value)
        for name, value in other.counters.items():
            self.count(name, value)
        for label, value in other.rules.items():
            self.add_rule(label, value)

    def as_dict(self, top_rules: int = 20) -> Dict[str, object]:
        """JSON-friendly snapshot; rules truncated to the ``top_rules``
        most expensive (pass ``top_rules=0`` for all of them)."""
        rules = sorted(self.rules.items(), key=lambda kv: -kv[1])
        if top_rules:
            rules = rules[:top_rules]
        return {
            "stages": dict(sorted(self.stages.items())),
            "counters": dict(sorted(self.counters.items())),
            "rules": {label: seconds for label, seconds in rules},
        }

    def __repr__(self):
        stages = ", ".join(
            f"{name}={seconds:.3f}s" for name, seconds in sorted(self.stages.items())
        )
        return f"ASPStats({stages})"
