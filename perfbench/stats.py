"""Order statistics the benchmark reports.

Every latency is reported with its sample count and with the number of
samples that lie beyond it, so a reader can tell whether a percentile
is supported by the data (the benchmark requires at least ten samples
beyond any tail percentile it reports for an open-loop phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample: its value, the sample size, and how
    many samples are strictly greater than the value."""

    q: float
    value: float
    count: int
    beyond: int


def percentile(values: Iterable[float], q: float) -> Percentile:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation
    between closest ranks (the same rule as numpy's default)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile q must be in (0, 100), got {q}")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    # Failed requests enter latency samples as +inf; interpolate only
    # between distinct finite neighbours so inf never turns into nan.
    if frac == 0 or data[hi] == data[lo]:
        value = data[lo]
    elif math.isinf(data[hi]):
        value = data[hi]
    else:
        value = data[lo] + (data[hi] - data[lo]) * frac
    beyond = sum(1 for v in data if v > value)
    return Percentile(q=q, value=value, count=len(data), beyond=beyond)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50).value


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def trend_grew(lags: List[float], threshold: float) -> bool:
    """Did lateness grow across a phase?  Compares the median lateness of
    the last quarter of sends with that of the first quarter; a growth
    by more than ``threshold`` seconds means the generator fell behind
    its schedule, i.e. the backlog grew and latencies are not steady
    state."""
    if len(lags) < 8:
        return False
    quarter = len(lags) // 4
    return median(lags[-quarter:]) - median(lags[:quarter]) > threshold


def activation_rates(runs: Iterable[tuple]) -> Dict[str, float]:
    """Engine activations per second of engine time, per engine, from
    ``(engine, activations, seconds)`` triples (one per engine run)."""
    totals: Dict[str, List[float]] = {}
    for engine, activations, seconds in runs:
        acc = totals.setdefault(engine, [0.0, 0.0])
        acc[0] += activations
        acc[1] += seconds
    return {
        f"engine.activations_per_s.{e}": (
            totals[e][0] / totals[e][1] if e in totals and totals[e][1] else 0.0
        )
        for e in ("fast", "wide")
    }
