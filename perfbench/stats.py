"""Order statistics the benchmark reports.

Latency is reported as the median plus the highest percentile that still
has at least ``MIN_TAIL`` samples beyond it, always with the sample count,
so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile
MIN_TAIL = 10

#: tail percentiles considered, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of already sorted samples."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above their nearest-rank ``p``-th percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail(ordered: Sequence[float], min_tail: int = MIN_TAIL) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest ladder percentile with at least
    ``min_tail`` samples beyond it, or None when the samples are too few."""
    for p in TAIL_LADDER:
        if samples_beyond(len(ordered), p) >= min_tail:
            return p, percentile(ordered, p)
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Count, median, p90 (None unless it has ``MIN_TAIL`` samples beyond
    it) and the highest supported tail of latency samples."""
    ordered = sorted(samples)
    supported = samples_beyond(len(ordered), 90.0) >= MIN_TAIL
    return {
        "count": len(ordered),
        "p50": statistics.median(ordered) if ordered else None,
        "p90": percentile(ordered, 90.0) if supported else None,
        "tail": tail(ordered),
    }


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
