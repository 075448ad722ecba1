"""Symbolic closed null subsets of the real line with exact window queries.

Every supported set variant is locally finite: any bounded window contains
finitely many points.  Queries answer from a run-compressed form (maximal
arithmetic progressions of points), so hole radii and integrals stay cheap
on windows whose raw point count would be enormous.  Materialising points
(``points_in``, ``gaps``) is capped at ``DEFAULT_POINT_CAP``.

Hole radii, porosity fractions, weight integrals and distance peaks all read
one :class:`WindowSummary` per window: the components of I \\ E strictly
between the first and last interior set points, reduced to O(1) numbers
plus grouped lengths.  Queries add the two edge components of their own
interval.  Finite point sets (:class:`SortedPoints`) memoise summaries per
index window; other variants build one from ``runs_in`` on every call.

All set values are immutable.  The per-instance summary memo is a benign
cache: it is left out of equality, hashing, ``repr``, ``to_dict`` and
pickling, every entry is a pure function of its key, and a lost race only
builds an equal entry twice, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
import math
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from typing import Callable, Iterator, Optional

from .intervals import GapList, Interval

DEFAULT_POINT_CAP = 1_000_000

MAX_CANTOR_DEPTH = 18  # 2^(d+1) endpoints must stay well under the point cap


class EmptySetError(ValueError):
    """Raised when a query needs at least one point and the set has none."""


class PointCapExceeded(RuntimeError):
    """Raised when a window would materialise more points than the cap allows."""

    def __init__(self, count: int, cap: int, window: tuple[float, float]):
        self.count = count
        self.cap = cap
        self.window = window
        super().__init__(
            f"window {window} holds {count} points, above the cap of {cap}"
        )


class SetFormatError(ValueError):
    """Raised by the JSON parser on a malformed set description."""


@dataclass(frozen=True, slots=True)
class Run:
    """Arithmetic progression of points: start + i*step for i in [0, count)."""

    start: float
    step: float
    count: int

    @property
    def end(self) -> float:
        if self.count == 1:
            return self.start
        return self.start + (self.count - 1) * self.step

    def point(self, i: int) -> float:
        return self.start + i * self.step

    def points(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        return [self.start + i * self.step for i in range(self.count)]


def _compress(points: list[float]) -> list[Run]:
    """Greedy compression of a sorted list of distinct points into runs."""
    runs: list[Run] = []
    i, n = 0, len(points)
    while i < n:
        if i + 1 == n:
            runs.append(Run(points[i], 0.0, 1))
            break
        step = points[i + 1] - points[i]  # positive: the points are distinct
        j = i + 1
        while j + 1 < n and points[j + 1] - points[j] == step:
            j += 1
        runs.append(Run(points[i], step, j - i + 1))
        i = j + 1
    return runs


def _increasing(runs: list[Run]) -> bool:
    """Whether the computed points of the runs strictly increase.

    Within a run, ``start + i*step`` carries at most about 3 ulps of rounding
    at the run's magnitude, so a step above 4 ulps keeps its points apart.
    """
    prev = -math.inf
    for r in runs:
        if not r.start > prev:
            return False
        prev = r.end
        if r.count >= 2 and not r.step > 4.0 * math.ulp(max(abs(r.start), abs(prev), prev - r.start)):
            return False
    return True


def _clip(runs: list[Run], lo: float, hi: float) -> list[Run]:
    """The runs cut to their points in [lo, hi]; only a few points may lie outside."""
    out = []
    for r in runs:
        start, step, count = r.start, r.step, r.count
        while count and start < lo:
            start, count = start + step, count - 1
        while count and start + (count - 1) * step > hi:
            count -= 1
        if count == r.count:
            out.append(r)
        elif count:
            out.append(Run(start, step, count))
    return out


def _index_floor(t: float, step: float) -> int:
    """Largest integer k with k*step <= t, robust to float rounding."""
    k = math.floor(t / step)
    while k * step > t:
        k -= 1
    while (k + 1) * step <= t:
        k += 1
    return k


def _index_ceil(t: float, step: float) -> int:
    k = math.ceil(t / step)
    while k * step < t:
        k += 1
    while (k - 1) * step >= t:
        k -= 1
    return k


class SetDescription:
    """Base for all set variants.  Subclasses implement the window primitives."""

    # -- primitives ---------------------------------------------------------

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        """Runs covering exactly the points of the set in the closed [lo, hi]."""
        raise NotImplementedError

    def nearest_leq(self, x: float) -> Optional[float]:
        """Largest point <= x, or None."""
        raise NotImplementedError

    def nearest_geq(self, x: float) -> Optional[float]:
        """Smallest point >= x, or None."""
        raise NotImplementedError

    # -- derived queries ----------------------------------------------------

    def count_in(self, lo: float, hi: float) -> int:
        return sum(r.count for r in self.runs_in(lo, hi))

    def points_in(self, lo: float, hi: float, cap: int = DEFAULT_POINT_CAP) -> list[float]:
        runs = self.runs_in(lo, hi)
        total = sum(r.count for r in runs)
        if total > cap:
            raise PointCapExceeded(total, cap, (lo, hi))
        out: list[float] = []
        for r in runs:
            out.extend(r.points())
        return out

    def is_empty(self) -> bool:
        raise NotImplementedError

    def __contains__(self, x: float) -> bool:
        p = self.nearest_leq(x)
        return p is not None and p == x


def sample_points(e: SetDescription, lo: float, hi: float, cap: int) -> list[float]:
    """Up to ``cap`` points of the set in [lo, hi], evenly strided, without materialising the rest."""
    runs = e.runs_in(lo, hi)
    total = sum(r.count for r in runs)
    if total == 0:
        return []
    take = min(total, cap)
    picks: list[float] = []
    stride = total / take
    pos = 0.0
    offset = 0
    run_iter = iter(runs)
    run = next(run_iter)
    for _ in range(take):
        idx = int(pos)
        while idx >= offset + run.count:
            offset += run.count
            run = next(run_iter)
        picks.append(run.point(idx - offset))
        pos += stride
    return picks


# ---------------------------------------------------------------------------
# concrete variants
# ---------------------------------------------------------------------------


class SortedPoints(SetDescription):
    """A finite set held as one sorted tuple of distinct points.

    Window summaries are memoised per index window ``(a, b)`` (the slice of
    points in the closed window) together with the two endpoint comparisons
    that decide which interior points the open window keeps: whether the
    first point equals ``lo`` and whether the computed end of the final run
    equals ``hi``.  The memo holds O(1)-size summaries, never points, and
    stores a window's run ends only when they differ from its last point.
    """

    def _pts(self) -> tuple[float, ...]:
        raise NotImplementedError

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        pts = self._pts()
        return _compress(list(pts[bisect_left(pts, lo):bisect_right(pts, hi)]))

    def nearest_leq(self, x: float) -> Optional[float]:
        pts = self._pts()
        i = bisect_right(pts, x)
        return pts[i - 1] if i > 0 else None

    def nearest_geq(self, x: float) -> Optional[float]:
        pts = self._pts()
        i = bisect_left(pts, x)
        return pts[i] if i < len(pts) else None

    def is_empty(self) -> bool:
        return False

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """Memoised :class:`WindowSummary` of the open window (lo, hi)."""
        pts = self._pts()
        a = bisect_left(pts, lo)
        b = bisect_right(pts, hi)
        if a == b:
            return EMPTY_SUMMARY
        memo = self.__dict__.get("_windows")
        if memo is None:
            memo = ({}, {})
            object.__setattr__(self, "_windows", memo)
        summaries, odd_ends = memo
        window = a * (len(pts) + 1) + b  # one int per index window
        ends = odd_ends.get(window)
        if ends is _NO_MEMO:
            return WindowSummary.of(_interior(self.runs_in(lo, hi), lo, hi))
        first_dropped = pts[a] == lo
        end = pts[b - 1] if ends is None else ends[first_dropped]
        key = 4 * window + 2 * first_dropped + (end == hi)
        s = summaries.get(key)
        if s is None:
            runs = self.runs_in(lo, hi)
            ends = _final_ends(runs, pts[b - 1])
            if ends is _NO_MEMO:
                odd_ends[window] = ends
                return WindowSummary.of(_interior(runs, lo, hi))
            if ends != (pts[b - 1], pts[b - 1]):
                odd_ends[window] = ends
                key = 4 * window + 2 * first_dropped + (ends[first_dropped] == hi)
            s = summaries[key] = WindowSummary.of(_interior(runs, lo, hi), weakref.ref(self))
        return s

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_windows"}


# ends of a window whose summary is rebuilt on every query (see _final_ends)
_NO_MEMO = object()


def _final_ends(runs: list[Run], last_point: float):
    """(end kept, end dropped) of a window's runs, or ``_NO_MEMO``.

    These are the computed end of the final interior run when the first
    point stays or is dropped (``None`` when nothing is left); a query
    compares it with its ``hi`` to decide the last-point drop.  Usually both
    equal the window's last point, and the memo stores nothing for them.
    The comparison alone decides the drop only when every other run ends
    before the last point, which rounding in a run's computed end can break;
    such windows get ``_NO_MEMO``.
    """
    head = _interior(runs[:1], runs[0].start, math.inf)
    if len(runs) == 1:
        return runs[0].end, (head[0].end if head else None)
    if (head and head[0].end >= last_point) or any(r.end >= last_point for r in runs[:-1]):
        return _NO_MEMO
    return runs[-1].end, runs[-1].end


@dataclass(frozen=True)
class FinitePoints(SortedPoints):
    points: tuple[float, ...]

    def __init__(self, points):
        pts = sorted(set(float(p) for p in points))
        if not pts:
            raise ValueError("FinitePoints needs at least one point")
        if not all(math.isfinite(p) for p in pts):
            raise ValueError("FinitePoints requires finite coordinates")
        object.__setattr__(self, "points", tuple(pts))

    def _pts(self) -> tuple[float, ...]:
        return self.points


EXTENTS = ("two_sided", "right", "left")


@dataclass(frozen=True)
class Lattice(SetDescription):
    """origin + k*step for integer k; extent restricts k >= 0 ('right') or k <= 0 ('left')."""

    origin: float
    step: float
    extent: str = "two_sided"

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("lattice step must be positive")
        if self.extent not in EXTENTS:
            raise ValueError(f"extent must be one of {EXTENTS}")

    def _k_bounds(self, lo: float, hi: float) -> tuple[int, int]:
        k_lo = _index_ceil(lo - self.origin, self.step)
        k_hi = _index_floor(hi - self.origin, self.step)
        if self.extent == "right":
            k_lo = max(k_lo, 0)
        elif self.extent == "left":
            k_hi = min(k_hi, 0)
        return k_lo, k_hi

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        k_lo, k_hi = self._k_bounds(lo, hi)
        if k_lo > k_hi:
            return []
        count = k_hi - k_lo + 1
        return [Run(self.origin + k_lo * self.step, self.step, count)]

    def nearest_leq(self, x: float) -> Optional[float]:
        if x == math.inf:
            # only a left-bounded-above lattice has a largest point
            return self.origin if self.extent == "left" else None
        if not math.isfinite(x):
            return None
        k = _index_floor(x - self.origin, self.step)
        while self.origin + k * self.step > x:  # the point, not its index, may round past x
            k -= 1
        if self.extent == "right" and k < 0:
            return None
        if self.extent == "left" and k > 0:
            k = 0
        return self.origin + k * self.step

    def nearest_geq(self, x: float) -> Optional[float]:
        if x == -math.inf:
            return self.origin if self.extent == "right" else None
        if not math.isfinite(x):
            return None
        k = _index_ceil(x - self.origin, self.step)
        while self.origin + k * self.step < x:  # the point, not its index, may round past x
            k += 1
        if self.extent == "left" and k > 0:
            return None
        if self.extent == "right" and k < 0:
            k = 0
        return self.origin + k * self.step

    def is_empty(self) -> bool:
        return False


@dataclass(frozen=True)
class GeometricPlusLattice(SetDescription):
    """{-ratio**m : m >= 1} joined with a lattice part.

    The geometric branch marches to -infinity; with ratio 2 and a unit
    right-sided lattice this is the standard mixed-speed catalog set.
    """

    ratio: float
    lattice: Lattice

    def __post_init__(self):
        if not self.ratio > 1:
            raise ValueError("ratio must exceed 1")

    def _geom_in(self, lo: float, hi: float) -> list[float]:
        out = []
        v = self.ratio
        while -v >= lo:
            if -v <= hi:
                out.append(-v)
            v *= self.ratio
        out.reverse()
        return out

    def _geom_leq(self, x: float) -> Optional[float]:
        if x >= -self.ratio:
            return -self.ratio
        if x == -math.inf:
            return None
        v = self.ratio
        while v < -x:
            v *= self.ratio
        return -v

    def _geom_geq(self, x: float) -> Optional[float]:
        if x > -self.ratio:
            return None
        v = self.ratio
        while v * self.ratio <= -x:
            v *= self.ratio
        return -v

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        geom = _compress(self._geom_in(lo, hi))
        latt = self.lattice.runs_in(lo, hi)
        return _merge_run_lists([geom, latt], lo, hi)

    def nearest_leq(self, x: float) -> Optional[float]:
        cands = [p for p in (self._geom_leq(x), self.lattice.nearest_leq(x)) if p is not None]
        return max(cands) if cands else None

    def nearest_geq(self, x: float) -> Optional[float]:
        cands = [p for p in (self._geom_geq(x), self.lattice.nearest_geq(x)) if p is not None]
        return min(cands) if cands else None

    def is_empty(self) -> bool:
        return False


@lru_cache(maxsize=64)
def _cantor_endpoints(lo: float, hi: float, middle: float, depth: int) -> tuple[float, ...]:
    intervals = [(lo, hi)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            keep = (b - a) * (1.0 - middle) / 2.0
            nxt.append((a, a + keep))
            nxt.append((b - keep, b))
        intervals = nxt
    pts: list[float] = []
    for a, b in intervals:
        pts.append(a)
        pts.append(b)
    return tuple(sorted(set(pts)))


@dataclass(frozen=True)
class CantorIterate(SortedPoints):
    """Endpoint set of the n-th step of the middle-fraction removal scheme.

    This is a finite set (the limit set is out of scope); all queries stay exact.
    """

    lo: float
    hi: float
    middle: float
    depth: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if not 0.0 < self.middle < 1.0:
            raise ValueError("middle fraction must be in (0, 1)")
        if not 0 <= self.depth <= MAX_CANTOR_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_CANTOR_DEPTH}]")

    def _pts(self) -> tuple[float, ...]:
        return _cantor_endpoints(self.lo, self.hi, self.middle, self.depth)


@dataclass(frozen=True)
class UnionSet(SetDescription):
    members: tuple[SetDescription, ...]

    def __init__(self, members):
        ms = tuple(members)
        if not ms:
            raise ValueError("union needs at least one member")
        object.__setattr__(self, "members", ms)

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        return _merge_run_lists([m.runs_in(lo, hi) for m in self.members], lo, hi)

    def nearest_leq(self, x: float) -> Optional[float]:
        cands = [p for p in (m.nearest_leq(x) for m in self.members) if p is not None]
        return max(cands) if cands else None

    def nearest_geq(self, x: float) -> Optional[float]:
        cands = [p for p in (m.nearest_geq(x) for m in self.members) if p is not None]
        return min(cands) if cands else None

    def is_empty(self) -> bool:
        return all(m.is_empty() for m in self.members)


@dataclass(frozen=True)
class Translate(SetDescription):
    """Image of the inner set under x -> x + shift, each point rounded to a float.

    Inner queries are padded by a few ulps and their answers filtered, since
    rounding can carry a point across a query's end; points the shift rounds
    onto one float merge into one.
    """

    inner: SetDescription
    shift: float

    def _pad(self, *xs: float) -> float:
        return 4.0 * math.ulp(max(abs(self.shift), *map(abs, xs)))

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        pad = self._pad(lo, hi)
        inner = self.inner.runs_in(lo - self.shift - pad, hi - self.shift + pad)
        runs = [Run(r.start + self.shift, r.step, r.count) for r in inner]
        if not _increasing(runs):
            # shift each point on its own and keep one run per distinct float
            total = sum(r.count for r in inner)
            if total > DEFAULT_POINT_CAP:
                raise PointCapExceeded(total, DEFAULT_POINT_CAP, (lo, hi))
            runs = [Run(p, 0.0, 1) for p in sorted({p + self.shift for r in inner for p in r.points()})]
        return _clip(runs, lo, hi)

    def nearest_leq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_leq(x - self.shift + self._pad(x))
        while p is not None and p + self.shift > x:
            p = self.inner.nearest_leq(math.nextafter(p, -math.inf))
        return None if p is None else p + self.shift

    def nearest_geq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_geq(x - self.shift - self._pad(x))
        while p is not None and p + self.shift < x:
            p = self.inner.nearest_geq(math.nextafter(p, math.inf))
        return None if p is None else p + self.shift

    def is_empty(self) -> bool:
        return self.inner.is_empty()


@dataclass(frozen=True)
class Reflect(SetDescription):
    """Image of the inner set under x -> -x."""

    inner: SetDescription

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        out = []
        for r in reversed(self.inner.runs_in(-hi, -lo)):
            out.append(Run(-r.end, r.step, r.count))
        return out

    def nearest_leq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_geq(-x)
        return None if p is None else -p

    def nearest_geq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_leq(-x)
        return None if p is None else -p

    def is_empty(self) -> bool:
        return self.inner.is_empty()


@dataclass(frozen=True)
class Cutoff(SetDescription):
    """inner n [point, inf) for side 'right', inner n (-inf, point] for side 'left'."""

    inner: SetDescription
    point: float
    side: str

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        if self.side == "right":
            lo = max(lo, self.point)
        else:
            hi = min(hi, self.point)
        if lo > hi:
            return []
        return self.inner.runs_in(lo, hi)

    def nearest_leq(self, x: float) -> Optional[float]:
        if self.side == "left":
            p = self.inner.nearest_leq(min(x, self.point))
            return p
        p = self.inner.nearest_leq(x)
        if p is None or p < self.point:
            return None
        return p

    def nearest_geq(self, x: float) -> Optional[float]:
        if self.side == "right":
            return self.inner.nearest_geq(max(x, self.point))
        p = self.inner.nearest_geq(x)
        if p is None or p > self.point:
            return None
        return p

    def is_empty(self) -> bool:
        if self.side == "right":
            return self.inner.nearest_geq(self.point) is None
        return self.inner.nearest_leq(self.point) is None


def _merge_run_lists(lists: list[list[Run]], lo: float, hi: float) -> list[Run]:
    """Merge per-member run lists; spatially disjoint lists concatenate exactly.

    Interleaved members fall back to a capped point merge.
    """
    runs = [r for lst in lists for r in lst]
    if all(runs[i].end < runs[i + 1].start for i in range(len(runs) - 1)):
        return runs  # already in order: sorting would not move a run
    runs.sort(key=lambda r: (r.start, r.end))
    disjoint = all(runs[i].end < runs[i + 1].start for i in range(len(runs) - 1))
    if disjoint:
        return runs
    total = sum(r.count for r in runs)
    if total > DEFAULT_POINT_CAP:
        raise PointCapExceeded(total, DEFAULT_POINT_CAP, (lo, hi))
    pts = sorted({p for r in runs for p in r.points()})
    return _compress(pts)


# ---------------------------------------------------------------------------
# transform helpers
# ---------------------------------------------------------------------------


def reflect(e: SetDescription) -> SetDescription:
    return e.inner if isinstance(e, Reflect) else Reflect(e)


def translate(e: SetDescription, t: float) -> SetDescription:
    return Translate(e, t)


def cutoff(e: SetDescription, point: float, side: str) -> SetDescription:
    return Cutoff(e, point, side)


# ---------------------------------------------------------------------------
# window queries
# ---------------------------------------------------------------------------


def distance(e: SetDescription, x: float) -> float:
    """Exact distance from x to the set; zero iff x is a set point."""
    leq = e.nearest_leq(x)
    geq = e.nearest_geq(x)
    if leq is None and geq is None:
        raise EmptySetError("distance undefined for an empty set")
    best = math.inf
    if leq is not None:
        best = min(best, x - leq)
    if geq is not None:
        best = min(best, geq - x)
    return best


def set_distance(e: SetDescription, i: Interval) -> float:
    """inf over x in I of d(x, E); zero when the closure of I meets the set."""
    p = e.nearest_geq(i.lo)
    if p is not None and p <= i.hi:
        return 0.0
    best = math.inf
    leq = e.nearest_leq(i.lo)
    if leq is not None:
        best = min(best, i.lo - leq)
    geq = e.nearest_geq(i.hi)
    if geq is not None:
        best = min(best, geq - i.hi)
    if best is math.inf:
        raise EmptySetError("set distance undefined for an empty set")
    return best


def _interior(runs: list[Run], lo: float, hi: float) -> list[Run]:
    """The runs of [lo, hi] trimmed to the points strictly inside (lo, hi)."""
    out = []
    for r in runs:
        start, step, count = r.start, r.step, r.count
        if start == lo:
            start += step
            count -= 1
        if count > 0:
            last = start + (count - 1) * step if count > 1 else start
            if last == hi:
                count -= 1
        if count == r.count:
            out.append(r)
        elif count > 0:
            out.append(Run(start, step, count))
    return out


def _middle(runs: list[Run]) -> Iterator[tuple]:
    """Components of the window between the first and last interior points.

    Items are ``("span", a, b)`` for the component between two runs or
    ``("cells", start, step, m)`` for the m components of length ``step``
    inside an arithmetic run.
    """
    prev = None
    for r in runs:
        if prev is not None and r.start > prev:
            yield ("span", prev, r.start)
        if r.count >= 2:
            yield ("cells", r.start, r.step, r.count - 1)
        prev = r.end


def _span_peak(a: float, b: float) -> float:
    """Max over [a, b] of the distance to {a, b}."""
    m = min(max(0.5 * (a + b), a), b)
    return min(m - a, b - m)


def _msum_add(partials: list[float], x: float) -> None:
    """Add finite x to Shewchuk's non-overlapping partials, in place.

    The exact sum of the partials stays the exact running total, so
    ``fsum(partials + more)`` equals ``fsum(all terms + more)`` bit for bit.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _middle_terms(runs: list[Run]) -> list[tuple[float, float]]:
    """(length, length * multiplicity) per middle item: one per span, one per cell run."""
    return [(item[2] - item[1],) * 2 if item[0] == "span" else (item[2], item[2] * item[3])
            for item in _middle(runs)]


def _pack_groups(items: list[tuple[float, float]]) -> array:
    """Distinct lengths with cumulative exact partials, packed as ``[stride, *neg, *parts]``.

    ``neg`` holds the distinct lengths negated, so it ascends.  Row k of
    ``parts`` (``stride`` floats, zero-padded) holds partials whose exact sum
    is the total of the terms in the k longest groups; row 0 is all zeros.
    """
    items = sorted(items, reverse=True)
    neg: list[float] = []
    rows: list[list[float]] = [[]]
    partials: list[float] = []
    for k, (length, term) in enumerate(items, 1):
        _msum_add(partials, term)
        if k == len(items) or items[k][0] != length:
            neg.append(-length)
            rows.append(partials[:])
    stride = max(map(len, rows)) or 1
    return array("d", [stride, *neg, *(x for r in rows for x in r + [0.0] * (stride - len(r)))])


def _peak(runs: list[Run]) -> float:
    """Largest distance to the set over the middle components (0 if none)."""
    peak = 0.0
    prev = None
    for r in runs:  # the traversal of _middle, inlined: this runs on every lattice query
        start = r.start
        if prev is not None and start > prev:
            p = _span_peak(prev, start)
            if p > peak:
                peak = p
        if r.count >= 2 and 0.5 * r.step > peak:
            peak = 0.5 * r.step
        prev = start if r.count == 1 else start + (r.count - 1) * r.step
    return peak


def _widest(runs: list[Run]) -> Optional[tuple[float, float]]:
    """Leftmost middle component of maximal length, as an (lo, hi) pair."""
    best = None
    for item in _middle(runs):
        a, b = (item[1], item[2]) if item[0] == "span" else (item[1], item[1] + item[2])
        if best is None or b - a > best[1] - best[0]:
            best = (a, b)
    return best


class WindowSummary:
    """The components of I \\ E strictly between the first and last interior points.

    ``first`` is the first interior point (``None`` when no set point lies
    inside the window), ``last`` the computed end of the last interior run,
    and ``longest`` and ``shortest`` the longest and the shortest positive
    middle length (0 and inf if there is none).  A query adds its own edge
    components (lo, first) and (last, hi), or the whole window when
    ``first`` is ``None``.

    Everything else is derived from the interior runs on first use: the
    distance peak (:meth:`peak`), grouped lengths (:meth:`qualifying_lengths`)
    and per-exponent integral terms (:meth:`integral_terms`).  A summary
    built for one query keeps its runs; a memoised one keeps the derived
    values instead, packed in float arrays, and rebuilds the runs from the
    querying window when it needs them.
    """

    __slots__ = ("first", "last", "longest", "shortest", "_source", "_peak", "_groups", "_integrals")

    def __init__(self, first, last, longest, shortest, source):
        self.first: Optional[float] = first
        self.last: Optional[float] = last
        self.longest: float = longest
        self.shortest: float = shortest
        # the interior runs, or for a memoised summary a weak reference to the
        # set they are rebuilt from (a strong one would make the memo a cycle)
        self._source = source
        self._peak: Optional[float] = None
        self._groups: Optional[array] = None
        self._integrals: array | tuple = ()

    @classmethod
    def of(cls, interior: list[Run], source: Optional[weakref.ref] = None) -> "WindowSummary":
        """Summary of the given interior runs; a memoised one rebuilds them from ``source()``."""
        if not interior:
            return EMPTY_SUMMARY
        longest, shortest = 0.0, math.inf
        prev = None
        for r in interior:  # the lengths of _middle, inlined: this runs on every lattice query
            start = r.start
            if prev is not None and start > prev:
                length = start - prev
                if length > longest:
                    longest = length
                if length < shortest:
                    shortest = length
            if r.count >= 2:
                length = r.step
                if length > longest:
                    longest = length
                if 0.0 < length < shortest:
                    shortest = length
            prev = start if r.count == 1 else start + (r.count - 1) * r.step
        return cls(interior[0].start, prev, longest, shortest, interior if source is None else source)

    def max_length(self, lo: float, hi: float) -> float:
        """Length of the longest component of (lo, hi) minus the set."""
        first = self.first
        if first is None:
            return hi - lo
        # the edge lengths folded in unconditionally: one that is no component is
        # not positive, and longest >= 0 outweighs it
        return max(self.longest, first - lo, hi - self.last)

    def peak(self, lo: float, hi: float) -> float:
        """Largest distance to the set over the middle components (0 if none)."""
        if self._peak is None:
            self._peak = _peak(self.interior(lo, hi))
        return self._peak

    def edges(self, lo: float, hi: float) -> list[float]:
        """Lengths of the components of (lo, hi) outside the middle."""
        first = self.first
        if first is None:
            return [hi - lo] if hi > lo else []
        out = []
        if first > lo:
            out.append(first - lo)
        if hi > self.last:
            out.append(hi - self.last)
        return out

    def interior(self, lo: float, hi: float) -> list[Run]:
        """Runs of set points strictly inside (lo, hi), a window this summary describes."""
        src = self._source
        if isinstance(src, list):
            return src
        return _interior(src().runs_in(lo, hi), lo, hi)

    def _kept(self) -> bool:
        return not isinstance(self._source, list)

    def qualifying_lengths(self, lo: float, hi: float, thresholds) -> list[float]:
        """Per threshold t, fsum of length * multiplicity over the components of (lo, hi) at least t long."""
        edges = self.edges(lo, hi)
        groups = self._groups
        if groups is None:
            items = _middle_terms(self.interior(lo, hi))
            if not self._kept():  # one pass per threshold beats packing for a single query
                items += [(x, x) for x in edges]
                return [fsum([x for length, x in items if length >= t]) for t in thresholds]
            groups = self._groups = _pack_groups(items)
        stride = int(groups[0])
        k = (len(groups) - 1 - stride) // (1 + stride)
        out = []
        for t in thresholds:
            row = 1 + k + (bisect_right(groups, -t, 1, 1 + k) - 1) * stride
            out.append(fsum([*groups[row:row + stride], *[x for x in edges if x >= t]]))
        return out

    def integral_terms(self, lo: float, hi: float, alpha: float,
                       build: Callable[[list[Run], float], list[float]]) -> list[float]:
        """``build(self.interior(lo, hi), alpha)``, the terms of the middle components.

        A memoised summary keeps them per exponent as exact partials, packed
        as ``[alpha, n, *partials]``; their fsum with any further terms is
        the fsum of all the terms.
        """
        cache = self._integrals
        k = 0
        while k < len(cache):
            n = int(cache[k + 1])
            if cache[k] == alpha:
                return list(cache[k + 2:k + 2 + n])
            k += 2 + n
        terms = build(self.interior(lo, hi), alpha)
        if self._kept():
            partials: list[float] = []
            if math.inf in terms:
                partials.append(math.inf)
            else:
                for t in terms:
                    _msum_add(partials, t)
            self._integrals = array("d", [*cache, alpha, len(partials), *partials])
        return terms


EMPTY_SUMMARY = WindowSummary(None, None, 0.0, math.inf, [])


def window_summary(e: SetDescription, i: Interval) -> WindowSummary:
    """Summary of the components of I \\ E; memoised for finite point sets."""
    if isinstance(e, SortedPoints):
        return e.summary(i.lo, i.hi)
    return WindowSummary.of(_interior(e.runs_in(i.lo, i.hi), i.lo, i.hi))


def max_component_length(e: SetDescription, i: Interval) -> float:
    return window_summary(e, i).max_length(i.lo, i.hi)


def largest_component(e: SetDescription, i: Interval) -> Optional[Interval]:
    """Leftmost component of I \\ E of maximal length, or None if I is covered."""
    s = window_summary(e, i)
    if s.first is None:
        cands = [(i.lo, i.hi)] if i.hi > i.lo else []
    else:
        cands = [(i.lo, s.first)] if s.first > i.lo else []
        widest = _widest(s.interior(i.lo, i.hi))
        if widest is not None:
            cands.append(widest)
        if i.hi > s.last:
            cands.append((s.last, i.hi))
    best = None
    for a, b in cands:
        if best is None or b - a > best[1] - best[0]:
            best = (a, b)
    return None if best is None else Interval(*best)


def min_component_length(e: SetDescription, i: Interval) -> float:
    s = window_summary(e, i)
    best = min([s.shortest, *(x for x in s.edges(i.lo, i.hi) if x > 0.0)])
    return best if best < math.inf else i.length


def gaps(e: SetDescription, i: Interval, cap: int = DEFAULT_POINT_CAP) -> GapList:
    """Explicit ordered decomposition of I \\ E into open components."""
    if e.is_empty():
        raise EmptySetError("gap decomposition needs a non-empty set")
    pts = [p for p in e.points_in(i.lo, i.hi, cap=cap) if i.lo < p < i.hi]
    bounds = [i.lo] + pts + [i.hi]
    comps = tuple(
        Interval(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    )
    return GapList(interval=i, components=comps, total_length=fsum(c.length for c in comps))


def neighborhood_measure(e: SetDescription, i: Interval, eps: float, cap: int = DEFAULT_POINT_CAP) -> float:
    """Lebesgue measure of {x : d(x, E) < eps} intersected with I, exactly."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    pts = e.points_in(i.lo - eps, i.hi + eps, cap=cap)
    pieces: list[tuple[float, float]] = []
    cur_lo = cur_hi = None
    for p in pts:
        a, b = max(p - eps, i.lo), min(p + eps, i.hi)
        if b <= a:
            continue
        if cur_hi is None:
            cur_lo, cur_hi = a, b
        elif a <= cur_hi:
            cur_hi = max(cur_hi, b)
        else:
            pieces.append((cur_lo, cur_hi))
            cur_lo, cur_hi = a, b
    if cur_hi is not None:
        pieces.append((cur_lo, cur_hi))
    return fsum(b - a for a, b in pieces)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_dict(e: SetDescription) -> dict:
    if isinstance(e, FinitePoints):
        return {"kind": "finite", "points": list(e.points)}
    if isinstance(e, Lattice):
        return {"kind": "lattice", "origin": e.origin, "step": e.step, "extent": e.extent}
    if isinstance(e, GeometricPlusLattice):
        return {"kind": "geometric_lattice", "ratio": e.ratio, "lattice": to_dict(e.lattice)}
    if isinstance(e, CantorIterate):
        return {
            "kind": "cantor",
            "lo": e.lo,
            "hi": e.hi,
            "middle": e.middle,
            "depth": e.depth,
        }
    if isinstance(e, UnionSet):
        return {"kind": "union", "members": [to_dict(m) for m in e.members]}
    if isinstance(e, Translate):
        return {"kind": "translate", "shift": e.shift, "inner": to_dict(e.inner)}
    if isinstance(e, Reflect):
        return {"kind": "reflect", "inner": to_dict(e.inner)}
    if isinstance(e, Cutoff):
        return {"kind": "cutoff", "point": e.point, "side": e.side, "inner": to_dict(e.inner)}
    raise TypeError(f"unknown set variant {type(e).__name__}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise SetFormatError(f"{path}: missing field '{key}'")
    return d[key]


MAX_NESTING = 64  # levels of inner/members/lattice objects in one description


def _finite(v, where: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SetFormatError(f"{where}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SetFormatError(f"{where}: expected a finite number, got {v!r}")
    return x


def _num(d: dict, key: str, path: str) -> float:
    return _finite(_need(d, key, path), f"{path}.{key}")


def _int(d: dict, key: str, path: str) -> int:
    v = _need(d, key, path)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SetFormatError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def from_dict(d: dict, path: str = "$") -> SetDescription:
    return _from_dict(d, path, 0)


def _from_dict(d: dict, path: str, level: int) -> SetDescription:
    if not isinstance(d, dict):
        raise SetFormatError(f"{path}: expected an object, got {type(d).__name__}")
    if level > MAX_NESTING:
        raise SetFormatError(f"{path}: set descriptions nest at most {MAX_NESTING} levels deep")
    kind = _need(d, "kind", path)

    def inner(key: str) -> SetDescription:
        return _from_dict(_need(d, key, path), f"{path}.{key}", level + 1)

    try:
        if kind == "finite":
            pts = _need(d, "points", path)
            if not isinstance(pts, list) or not pts:
                raise SetFormatError(f"{path}.points: expected a non-empty list")
            return FinitePoints([_finite(p, f"{path}.points[{i}]") for i, p in enumerate(pts)])
        if kind == "lattice":
            extent = d.get("extent", "two_sided")
            return Lattice(_num(d, "origin", path), _num(d, "step", path), extent)
        if kind == "geometric_lattice":
            latt = inner("lattice")
            if not isinstance(latt, Lattice):
                raise SetFormatError(f"{path}.lattice: must be a lattice description")
            return GeometricPlusLattice(_num(d, "ratio", path), latt)
        if kind == "cantor":
            return CantorIterate(
                _num(d, "lo", path),
                _num(d, "hi", path),
                _num(d, "middle", path),
                _int(d, "depth", path),
            )
        if kind == "union":
            members = _need(d, "members", path)
            if not isinstance(members, list) or not members:
                raise SetFormatError(f"{path}.members: expected a non-empty list")
            return UnionSet(
                [_from_dict(m, f"{path}.members[{i}]", level + 1) for i, m in enumerate(members)]
            )
        if kind == "translate":
            return Translate(inner("inner"), _num(d, "shift", path))
        if kind == "reflect":
            return Reflect(inner("inner"))
        if kind == "cutoff":
            side = _need(d, "side", path)
            return Cutoff(inner("inner"), _num(d, "point", path), side)
    except SetFormatError:
        raise
    except ValueError as exc:
        raise SetFormatError(f"{path}: {exc}") from exc
    raise SetFormatError(f"{path}.kind: unknown kind {kind!r}")


def to_json(e: SetDescription, indent: int = 2) -> str:
    return json.dumps(to_dict(e), indent=indent)


def _reject_constant(name: str):
    raise SetFormatError(f"invalid JSON: {name} is not a finite number")


def from_json(text: str) -> SetDescription:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except RecursionError as exc:
        raise SetFormatError("invalid JSON: nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise SetFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return from_dict(data)
