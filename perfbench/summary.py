"""Percentiles the benchmark reports only when enough samples support them."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; otherwise it is left out, never filled in.
MIN_BEYOND = 10


def samples_needed(q: int) -> int:
    """Fewest samples for which the ``q``-th percentile has its support."""

    n = MIN_BEYOND
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def _rank(n: int, q: int) -> int:
    # q * n is exact for an integer q, so the ceiling cannot round up a
    # product that is whole.
    return max(1, math.ceil(q * n / 100))


def beyond(n: int, q: int) -> int:
    """Samples above the nearest-rank ``q``-th percentile of ``n`` samples."""

    return n - _rank(n, q)


def percentile(values: list[float], q: int) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` without enough support."""

    n = len(values)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(values)[_rank(n, q) - 1]

