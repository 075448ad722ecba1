"""Distance-power weights w(x) = d(x, E)^(-alpha) with closed-form windows.

The distance to a locally finite set is piecewise affine with slope +-1,
breaking at set points and at midpoints between consecutive points.  Every
integral over a bounded interval therefore reduces to power-function pieces
(x - e)^(1-alpha)/(1-alpha), which this module evaluates piece by piece and
sums with `fsum`.  Arithmetic runs of points contribute one aggregated term,
so windows spanning millions of lattice points stay O(#runs).  On finite
point sets the terms of the components between a window's first and last
interior points are memoised per window and exponent as exact partial sums;
a query adds its two edge terms and rounds once, so the result equals the
`fsum` of all the terms bit for bit.  Such a window builds its terms by
index, with no run: a cell run's term from its step, and each span's from
the set's gap table at that exponent (n - 1 floats for n points, filled as
windows read it and replaced when another exponent is asked), beside a
table of the span peaks that lives as long as the set.  Both paths evaluate
one pair of expressions, `_cell_integral` and `_span_integral` of `sets`.

Weights with alpha >= 1 are representable; any window whose closure meets the
set then integrates to infinity and is reported as non-locally-integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import NamedTuple, Optional, Sequence

from .intervals import Interval
from .sets import (
    EmptySetError,
    SetDescription,
    WindowSummary,
    _segment_integral,
    distance,
    window_summary,
)


@dataclass(frozen=True)
class WeightSpec:
    """The weight d(., E)^(-alpha); locally integrable iff alpha < 1."""

    e: SetDescription
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


def distance_power(d: float, alpha: float) -> float:
    """d^(-alpha), infinite at d = 0."""
    if d == 0.0:
        return math.inf
    return d ** -alpha


class IntegralWindow(NamedTuple):
    """What an integral over J and its distance peak need that does not depend on alpha.

    The summary of J and the set points bracketing its edge components:
    ``left`` below ``lo`` when (lo, first interior point) is a component,
    ``right`` above ``hi`` when (last, hi) is (both when J holds no point);
    ``None`` where unused or absent.
    """

    interval: Interval
    summary: WindowSummary
    left: Optional[float]
    right: Optional[float]

    @classmethod
    def of(cls, e: SetDescription, j: Interval) -> "IntegralWindow":
        s = window_summary(e, j)
        if s.first is None:
            return cls(j, s, e.nearest_leq(j.lo), e.nearest_geq(j.hi))
        return cls(
            j,
            s,
            e.nearest_leq(j.lo) if s.first > j.lo else None,
            e.nearest_geq(j.hi) if j.hi > s.last else None,
        )

    def integral(self, alpha: float) -> float:
        """Integral of d(., E)^(-alpha) over the window; math.inf when not integrable."""
        j, s, left, right = self
        if s.first is None:
            terms = [_segment_integral(j.lo, j.hi, left, right, alpha)]
        else:
            terms = s.integral_terms(alpha)
            if s.first > j.lo:
                terms.append(_segment_integral(j.lo, s.first, left, s.first, alpha))
            if j.hi > s.last:
                terms.append(_segment_integral(s.last, j.hi, s.last, right, alpha))
        if math.inf in terms:
            return math.inf
        return fsum(terms)

    def peak(self) -> float:
        """Max over the closure of J of d(., E); attained at an endpoint or a gap midpoint."""
        j, s, left, right = self
        if s.first is None:
            return max(0.0, _segment_peak(j.lo, j.hi, left, right))
        best = s.peak()
        if s.first > j.lo:
            best = max(best, _segment_peak(j.lo, s.first, left, s.first))
        if j.hi > s.last:
            best = max(best, _segment_peak(s.last, j.hi, s.last, right))
        return best


def integrate(w: WeightSpec, j: Interval) -> float:
    """Exact integral of the weight over the bounded interval J.

    Returns math.inf when alpha >= 1 and the closure of J meets the set.
    """
    return IntegralWindow.of(w.e, j).integral(w.alpha)


def _segment_peak(a: float, b: float, p_left: Optional[float], p_right: Optional[float]) -> float:
    """Max of the distance profile over [a, b] with the given neighbors."""
    if p_left is None and p_right is None:
        raise EmptySetError("distance undefined without set points")
    if p_left is None:
        return p_right - a
    if p_right is None:
        return b - p_left
    m = min(max(0.5 * (p_left + p_right), a), b)
    return min(m - p_left, p_right - m)


def max_distance_on(e: SetDescription, j: Interval) -> float:
    """Max over the closure of J of d(., E); attained at an endpoint or a gap midpoint."""
    return IntegralWindow.of(e, j).peak()


def evaluation_table(w: WeightSpec, xs: Sequence[float]) -> list[tuple[float, float, float]]:
    """(x, d(x, E), w(x)) rows for plotting exports."""
    rows = []
    for x in xs:
        d = distance(w.e, x)
        rows.append((x, d, distance_power(d, w.alpha)))
    return rows
