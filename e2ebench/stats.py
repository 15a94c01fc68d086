"""The benchmark's own arithmetic: percentiles, ratios, self time, bytes moved.

Everything here is pure Python over plain numbers so that it can be
unit-tested without the program under test (``e2ebench/tests``).
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; fewer would make it the maximum of a handful of values.
MIN_BEYOND = 10


def nearest_rank(values, p: float) -> float:
    """The nearest-rank ``p``-th percentile: the ``ceil(p/100 * n)``-th smallest."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``p``-th rank."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values, p: float = 99.0) -> float:
    """``nearest_rank(values, p)``, refusing a sample too small for that tail.

    Raises ``ValueError`` unless at least ``MIN_BEYOND`` samples lie
    beyond the percentile's rank.
    """
    beyond = samples_beyond(len(values), p)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} over {len(values)} samples leaves {beyond} beyond it; "
            f"need >= {MIN_BEYOND} (lengthen the window)"
        )
    return nearest_rank(values, p)


def ok_frac(succeeded: int, attempted: int) -> float:
    """Succeeded over attempted; ``0.0`` when nothing was attempted.

    Nothing attempted means nothing was shown to work, so it scores as a
    total failure rather than dividing by zero.
    """
    if attempted < 0 or succeeded < 0 or succeeded > attempted:
        raise ValueError(f"bad counts: {succeeded} succeeded of {attempted}")
    return succeeded / attempted if attempted else 0.0


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children may overlap each other (the router's parallel scatter legs
    do), so the covered part is the length of their union, clipped to
    the parent's interval.
    """
    clipped = [(max(start, s), min(end, e)) for s, e in children]
    return (end - start) - union_length(clipped)


def gemm_bytes(m: int, n: int, k: int, stored_itemsize: int) -> int:
    """Bytes one ``cross_sq_distances_from_parts`` call moves, from operand shapes.

    Reads the ``(m, k)`` float64 query block, the ``(n, k)`` stored block
    at its storage width, the ``m`` + ``n`` float64 squared norms, and
    writes the ``(m, n)`` float64 result: each operand counted once.
    """
    return 8 * m * k + stored_itemsize * n * k + 8 * (m + n) + 8 * m * n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        raise ValueError("median is zero; the spread is undefined")
    return (q3 - q1) / abs(median)


def mean(values) -> float:
    """Arithmetic mean; ``0.0`` for no values (a layer the run never used)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
