"""Distance-power weights w(x) = d(x, E)^(-alpha) with closed-form windows.

The distance to a locally finite set is piecewise affine with slope +-1,
breaking at set points and at midpoints between consecutive points.  Every
integral over a bounded interval therefore reduces to power-function pieces
(x - e)^(1-alpha)/(1-alpha), which this module evaluates piece by piece and
sums with `fsum`.  Arithmetic runs of points contribute one aggregated term,
so windows spanning millions of lattice points stay O(#runs).  On finite
point sets the terms of the components between a window's first and last
interior points are memoised per exponent as exact partial sums; a query
adds its two edge terms and rounds once, so the result equals the `fsum` of
all the terms bit for bit.

Weights with alpha >= 1 are representable; any window whose closure meets the
set then integrates to infinity and is reported as non-locally-integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Sequence

from .intervals import Interval
from .sets import (
    DEFAULT_POINT_CAP,
    EmptySetError,
    Run,
    SetDescription,
    distance,
    set_distance,
    window_summary,
)


@dataclass(frozen=True)
class WeightSpec:
    """The weight d(., E)^(-alpha); locally integrable iff alpha < 1."""

    e: SetDescription
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def locally_integrable(self) -> bool:
        return self.alpha < 1.0


def weight_value(w: WeightSpec, x: float) -> float:
    d = distance(w.e, x)
    if d == 0.0:
        return math.inf
    return d ** -w.alpha


def _power_piece(u1: float, u2: float, alpha: float) -> float:
    """Integral of u^(-alpha) over [u1, u2], 0 <= u1 <= u2."""
    if u2 == u1:
        return 0.0
    if alpha == 1.0:
        if u1 == 0.0:
            return math.inf
        return math.log(u2 / u1)
    p = 1.0 - alpha
    if u1 == 0.0:
        if p < 0.0:
            return math.inf
        return u2 ** p / p
    return (u2 ** p - u1 ** p) / p


def _segment_integral(a: float, b: float, p_left: Optional[float], p_right: Optional[float], alpha: float) -> float:
    """Integral over (a, b) given the bracketing set points (None when absent)."""
    if p_left is None and p_right is None:
        raise EmptySetError("weight undefined without set points")
    if p_left is None:
        return _power_piece(p_right - b, p_right - a, alpha)
    if p_right is None:
        return _power_piece(a - p_left, b - p_left, alpha)
    m = 0.5 * (p_left + p_right)
    if b <= m:
        return _power_piece(a - p_left, b - p_left, alpha)
    if a >= m:
        return _power_piece(p_right - b, p_right - a, alpha)
    return _power_piece(a - p_left, m - p_left, alpha) + _power_piece(p_right - b, p_right - m, alpha)


def _middle_integrals(runs: list[Run], alpha: float) -> list[float]:
    """Integral terms of the middle components, one per span and one per cell run."""
    terms = []
    prev = None
    for r in runs:  # the traversal of sets._middle, inlined: this runs on every lattice query
        start = r.start
        if prev is not None and start > prev:
            terms.append(_segment_integral(prev, start, prev, start, alpha))
        if r.count >= 2:
            terms.append((r.count - 1) * (2.0 * _power_piece(0.0, 0.5 * r.step, alpha)))
        prev = r.end
    return terms


def integrate(w: WeightSpec, j: Interval) -> float:
    """Exact integral of the weight over the bounded interval J.

    Returns math.inf when alpha >= 1 and the closure of J meets the set.
    """
    e, alpha = w.e, w.alpha
    s = window_summary(e, j)
    if s.first is None:
        terms = [_segment_integral(j.lo, j.hi, e.nearest_leq(j.lo), e.nearest_geq(j.hi), alpha)]
    else:
        terms = s.integral_terms(j.lo, j.hi, alpha, _middle_integrals)
        if s.first > j.lo:
            terms.append(_segment_integral(j.lo, s.first, e.nearest_leq(j.lo), s.first, alpha))
        if j.hi > s.last:
            terms.append(_segment_integral(s.last, j.hi, s.last, e.nearest_geq(j.hi), alpha))
    if math.inf in terms:
        return math.inf
    return fsum(terms)


def average(w: WeightSpec, j: Interval) -> float:
    """Mean of the weight over J: :func:`integrate` divided by ``j.length``.

    Closed form, like :func:`integrate`: correct up to floating-point
    rounding.  Infinite when the integral is.
    """
    return integrate(w, j) / j.length


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
    s = window_summary(e, j)
    if s.first is None:
        return max(0.0, _segment_peak(j.lo, j.hi, e.nearest_leq(j.lo), e.nearest_geq(j.hi)))
    best = s.peak(j.lo, j.hi)
    if s.first > j.lo:
        best = max(best, _segment_peak(j.lo, s.first, e.nearest_leq(j.lo), s.first))
    if j.hi > s.last:
        best = max(best, _segment_peak(s.last, j.hi, s.last, e.nearest_geq(j.hi)))
    return best


def ess_inf(w: WeightSpec, j: Interval) -> float:
    """Essential infimum of the weight over J: (max distance over closure)^(-alpha)."""
    d = max_distance_on(w.e, j)
    if d == 0.0:
        return math.inf
    return d ** -w.alpha


def ess_sup(w: WeightSpec, j: Interval) -> float:
    """Essential supremum over J; infinite as soon as the closure meets the set."""
    d = set_distance(w.e, j)
    if d == 0.0:
        return math.inf
    return d ** -w.alpha


# ---------------------------------------------------------------------------
# support profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportProfile:
    """Vanishing/blow-up structure of a one-sided weight.

    Distance powers with alpha < 1 are positive and finite almost everywhere,
    so both cut points sit at infinity.  For alpha >= 1 the weight stays a.e.
    finite but loses local integrability exactly on the set; that locus is
    reported instead of abusing the cut-point convention.
    """

    x0: float
    x1: float
    locally_integrable: bool
    detail: str


def support_profile(w: WeightSpec) -> SupportProfile:
    if w.alpha < 1.0:
        return SupportProfile(
            x0=-math.inf,
            x1=math.inf,
            locally_integrable=True,
            detail="positive and finite a.e.; integrable on every bounded interval",
        )
    return SupportProfile(
        x0=-math.inf,
        x1=math.inf,
        locally_integrable=False,
        detail="integrability fails exactly on the underlying set (window closures meeting it integrate to infinity)",
    )


# ---------------------------------------------------------------------------
# piecewise distance profile (materialised; capped)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseDistance:
    """Breakpoint table of d(., E) on a window: set points and gap midpoints.

    Between consecutive breakpoints the profile is affine with slope +-1, so
    extrema over the window are attained on this table.
    """

    window: Interval
    breakpoints: tuple[float, ...]
    e: SetDescription

    def value(self, x: float) -> float:
        return distance(self.e, x)

    def max_value(self) -> float:
        return max(self.value(x) for x in self.breakpoints)

    def min_value(self) -> float:
        return min(self.value(x) for x in self.breakpoints)


def distance_profile(e: SetDescription, window: Interval, cap: int = DEFAULT_POINT_CAP) -> PiecewiseDistance:
    pts = e.points_in(window.lo, window.hi, cap=cap)
    neighbors = []
    p = e.nearest_leq(window.lo)
    if p is not None:
        neighbors.append(p)
    q = e.nearest_geq(window.hi)
    if q is not None:
        neighbors.append(q)
    chain = sorted(set(pts + neighbors))
    bps = {window.lo, window.hi}
    for a, b in zip(chain[:-1], chain[1:]):
        m = 0.5 * (a + b)
        if window.lo <= m <= window.hi:
            bps.add(m)
    for p in pts:
        bps.add(p)
    return PiecewiseDistance(window=window, breakpoints=tuple(sorted(bps)), e=e)


# ---------------------------------------------------------------------------
# one-sided maximal averages (certified lower bounds)
# ---------------------------------------------------------------------------

FILL_PER_OCTAVE = 64
DEFAULT_SPAN = 1024.0
BREAKPOINT_SAMPLES = 256


def _candidate_offsets(e: SetDescription, x: float, side: str, span: float, per_octave: int) -> list[float]:
    lo, hi = (x - span, x) if side == "minus" else (x, x + span)
    offs: set[float] = set()
    runs = e.runs_in(lo, hi)
    total = sum(r.count for r in runs)
    if total:
        take = min(total, BREAKPOINT_SAMPLES)
        stride = total / take
        pos, offset = 0.0, 0
        it = iter(runs)
        run = next(it)
        for _ in range(take):
            idx = int(pos)
            while idx >= offset + run.count:
                offset += run.count
                run = next(it)
            p = run.point(idx - offset)
            offs.add(abs(x - p))
            pos += stride
    octaves = max(1, int(math.log2(span)) + 20)
    for j in range(octaves * per_octave + 1):
        offs.add(span * 2.0 ** (-j / per_octave))
    return sorted(h for h in offs if h > 0.0)


def maximal_minus(
    w: WeightSpec,
    x: float,
    h_candidates: Optional[Sequence[float]] = None,
    span: float = DEFAULT_SPAN,
    per_octave: int = FILL_PER_OCTAVE,
) -> float:
    """Certified lower bound of the backward maximal average sup_h (1/h) int_{x-h}^{x} w.

    Candidates are breakpoint-aligned offsets plus a geometric fill-in grid;
    the supremum of the piecewise-smooth average sits near breakpoints, but
    only a lower bound is ever claimed.
    """
    hs = list(h_candidates) if h_candidates is not None else _candidate_offsets(w.e, x, "minus", span, per_octave)
    best = 0.0
    for h in hs:
        v = integrate(w, Interval(x - h, x)) / h
        if v > best:
            best = v
    return best


def maximal_plus(
    w: WeightSpec,
    x: float,
    h_candidates: Optional[Sequence[float]] = None,
    span: float = DEFAULT_SPAN,
    per_octave: int = FILL_PER_OCTAVE,
) -> float:
    """Forward analog of :func:`maximal_minus`."""
    hs = list(h_candidates) if h_candidates is not None else _candidate_offsets(w.e, x, "plus", span, per_octave)
    best = 0.0
    for h in hs:
        v = integrate(w, Interval(x, x + h)) / h
        if v > best:
            best = v
    return best


def evaluation_table(w: WeightSpec, xs: Sequence[float]) -> list[tuple[float, float, float]]:
    """(x, d(x, E), w(x)) rows for plotting exports."""
    rows = []
    for x in xs:
        d = distance(w.e, x)
        rows.append((x, d, math.inf if d == 0.0 else d ** -w.alpha))
    return rows
