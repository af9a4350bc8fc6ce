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
from typing import Dict, Iterator, List

PHASES = ("setup", "load", "ground", "solve")


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Phases may nest: a phase opened inside another is charged to itself
    only, so the outer phase excludes it and :attr:`total` counts every
    instant once (facts streamed by ``setup`` inside a ``ground`` phase).
    """

    def __init__(self):
        self._durations: Dict[str, float] = {}
        #: time spent in phases nested inside each open phase
        self._nested: List[float] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager measuring one phase (durations accumulate)."""
        start = time.perf_counter()
        self._nested.append(0.0)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            nested = self._nested.pop()
            self._durations[name] = self._durations.get(name, 0.0) + elapsed - nested
            if self._nested:
                self._nested[-1] += elapsed

    @property
    def total(self) -> float:
        return sum(self._durations.values())

    def as_dict(self) -> Dict[str, float]:
        result = {name: self._durations.get(name, 0.0) for name in PHASES}
        for name, value in self._durations.items():
            result[name] = value
        result["total"] = self.total
        return result

    def __repr__(self):
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(self._durations.items()))
        return f"PhaseTimer({parts})"
