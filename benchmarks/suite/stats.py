"""Order statistics shared by the runner, ``compare.py`` and the self-tests."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_SUPPORT = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` (nearest rank, 0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct``."""
    return n - max(math.ceil(pct / 100 * n), 1)


def highest_supported(n: int, ladder: Sequence[float] = (99, 90, 80, 75)) -> Optional[float]:
    """The highest percentile of ``ladder`` with ``TAIL_SUPPORT`` samples beyond it.

    ``None`` when even the lowest rung lacks that support: the sample
    then supports a median and nothing further out.
    """
    for pct in sorted(ladder, reverse=True):
        if beyond(n, pct) >= TAIL_SUPPORT:
            return pct
    return None


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else math.inf
