"""Latency and spread summaries shared by the runner and the tools.

Every timing the benchmark reports goes through :func:`median` and
:func:`tail`; every comparison between sets of runs goes through
:func:`quartiles`, which is Python's ``statistics.quantiles(values, n=4)``
(the exclusive method), so the figures printed here are the ones a reader
recomputes from the recorded values.
"""

from __future__ import annotations

import statistics

#: a tail needs at least this many samples beyond it
TAIL_BEYOND = 10
#: below this many samples a run reports no tail at all
TAIL_MIN_SAMPLES = 40


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values) -> "tuple[float, float] | None":
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it, or ``None`` below
    :data:`TAIL_MIN_SAMPLES` samples.

    With ``n`` samples sorted ascending that is the sample at index
    ``n - TAIL_BEYOND - 1``: a fixed sample count gives a fixed
    percentile, so two runs of one workload report the same percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return None
    index = n - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / n


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 for a single value or identical values)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2) if q2 else float("inf")
