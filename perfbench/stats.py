"""Order statistics reported for every timing: median, quartiles, count."""

from __future__ import annotations

import statistics


def summary(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``, n=4) and n."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}

