"""Per-octave maxima tables, power-law fits, and divergence detection.

Finite sampling can certify lower bounds and growth evidence, never decay of
the true supremum; the detector below flags a sweep as divergent only when
the top of the octave ladder dominates the middle by a large documented
factor, for several consecutive octaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

DIVERGENCE_FACTOR = 8.0
DIVERGENCE_OCTAVES = 3
MIN_LADDER = 6  # shorter ladders never flag


def octave_of(scale: float) -> int:
    return round(math.log2(scale))


def per_octave_max(samples: Iterable[tuple[int, float]]) -> dict[int, float]:
    """Collapse (octave, value) samples to the max finite value per octave."""
    table: dict[int, float] = {}
    for k, v in samples:
        if not math.isfinite(v):
            continue
        if k not in table or v > table[k]:
            table[k] = v
    return table


def is_divergent(ladder: Sequence[tuple[int, float]]) -> bool:
    """True when each of the top `DIVERGENCE_OCTAVES` rungs exceeds
    `DIVERGENCE_FACTOR` times the rung halfway down the recorded ladder."""
    if len(ladder) < max(MIN_LADDER, 2 * DIVERGENCE_OCTAVES):
        return False
    vals = [v for _, v in ladder]
    n = len(vals)
    for idx in range(n - DIVERGENCE_OCTAVES, n):
        mid = idx // 2
        if not (vals[mid] > 0.0 and vals[idx] >= DIVERGENCE_FACTOR * vals[mid]):
            return False
    return True


def fit_log2_slope(ladder: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log2(value) against octave index."""
    pts = [(k, math.log2(v)) for k, v in ladder if v > 0.0 and math.isfinite(v)]
    if len(pts) < 2:
        return 0.0
    n = len(pts)
    mx = sum(k for k, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((k - mx) ** 2 for k, _ in pts)
    if sxx == 0.0:
        return 0.0
    sxy = sum((k - mx) * (y - my) for k, y in pts)
    return sxy / sxx


@dataclass(frozen=True)
class LadderReport:
    """Octave ladder with its divergence verdict and fitted growth rate."""

    ladder: tuple[tuple[int, float], ...]
    divergent: bool
    growth_per_octave: float

    @classmethod
    def from_samples(cls, samples: Iterable[tuple[int, float]]) -> "LadderReport":
        return cls.from_maxima(per_octave_max(samples))

    @classmethod
    def from_maxima(cls, top: dict[int, float]) -> "LadderReport":
        """The report of the finite per-octave maxima, as :func:`per_octave_max` gives them."""
        ladder = sorted(top.items())
        return cls(
            ladder=tuple(ladder),
            divergent=is_divergent(ladder),
            growth_per_octave=2.0 ** fit_log2_slope(ladder),
        )


def rising_prefix_maxima(rows: Sequence[tuple]) -> list[tuple]:
    """Subsequence of rows (sorted by scale) where the running value max rises.

    Rows are (key..., value) tuples with the value last; the result is the
    monotone-growing witness chain attached to divergence flags.
    """
    best = -math.inf
    out = []
    for row in rows:
        v = row[-1]
        if math.isfinite(v) and v > best:
            best = v
            out.append(row)
    return out
