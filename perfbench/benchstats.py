"""Order statistics and ratio arithmetic for the layer benchmark.

Timings are summarised per repeat (a block of the measured window) and then
across repeats: the reported value is the median over repeats, with the
first and third quartile beside it.  A ratio is reported with its base counts
and an uncertainty propagated in quadrature from the spread of its numerator
and denominator.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it; below that the tail estimate is one or two outliers, not a percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the *q*-th percentile."""
    return count - math.ceil(count * q / 100.0)


def supported(count: int, q: float) -> bool:
    """Whether *count* samples support the *q*-th percentile (MIN_BEYOND rule)."""
    return samples_beyond(count, q) >= MIN_BEYOND


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles over repeats, with the repeat count.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same rule the run-to-run steadiness check uses; a single
    repeat reports itself as all three.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("spread of an empty sample")
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def sigma(values: Sequence[float]) -> float:
    """A robust standard deviation: the interquartile range over 1.349."""
    summary = spread(values)
    return (summary["q3"] - summary["q1"]) / 1.349


def ratio(
    numerator: float,
    denominator: float,
    numerator_sigma: float = 0.0,
    denominator_sigma: float = 0.0,
) -> Dict[str, Optional[float]]:
    """``numerator / denominator`` with its error added in quadrature.

    For ``r = a / b`` the relative errors add in quadrature:
    ``σr = |r| · sqrt((σa / a)² + (σb / b)²)``.  Both bases are returned, so
    a ratio never travels without the counts it was made of.  A zero
    denominator gives ``None`` for the value and its error.
    """
    result: Dict[str, Optional[float]] = {
        "value": None,
        "err": None,
        "numerator": numerator,
        "denominator": denominator,
    }
    if denominator == 0:
        return result
    value = numerator / denominator
    terms: List[float] = [(denominator_sigma / denominator) ** 2]
    if numerator != 0:
        terms.append((numerator_sigma / numerator) ** 2)
    result["value"] = value
    result["err"] = abs(value) * math.sqrt(sum(terms))
    return result


def per(numerator: float, denominator: float) -> float:
    """A plain average that reads 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
