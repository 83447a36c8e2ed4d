"""Summary statistics for benchmark samples (standard library only)."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_ABOVE = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(samples: list[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile: the ceil(pct/100 * n)-th smallest."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def samples_above(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(samples: list[float]) -> tuple[float, float, int] | None:
    """(pct, value, n) for the highest percentile with at least
    ``TAIL_MIN_ABOVE`` samples above it, or None when no candidate has."""
    n = len(samples)
    for pct in TAIL_CANDIDATES:
        if samples_above(n, pct) >= TAIL_MIN_ABOVE:
            return pct, nearest_rank(samples, pct), n
    return None


def percentile_if_supported(samples: list[float], pct: float) -> float | None:
    """The ``pct`` percentile when at least ``TAIL_MIN_ABOVE`` samples lie
    above it, else None: a tail read from fewer samples is not reported."""
    if samples_above(len(samples), pct) < TAIL_MIN_ABOVE:
        return None
    return nearest_rank(samples, pct)


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))

