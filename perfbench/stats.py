"""Small order statistics for the benchmark's per-call timings.

Pure Python so the benchmark process can use it before numpy is imported.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def _rank(n: int, p: float) -> int:
    # rounded first so that, say, 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest candidate percentile with at least ten samples beyond it,
    as (p, value); None when even the median has fewer than ten."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(values), p) >= MIN_BEYOND:
            return p, nearest_rank(values, p)
    return None


def describe(values: Sequence[float], unit: str) -> str:
    """One line: median, the tail percentile the sample count allows, and n."""
    line = f"median={statistics.median(values):.6g}{unit}"
    tail = tail_percentile(values)
    if tail is None:
        line += " (no percentile has 10 samples beyond it)"
    else:
        line += f" p{tail[0]:g}={tail[1]:.6g}{unit}"
    return f"{line} n={len(values)}"

