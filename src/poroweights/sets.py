"""Symbolic closed null subsets of the real line with exact window queries.

Every supported set variant is locally finite: any bounded window contains
finitely many points.  Queries answer from a run-compressed form (maximal
arithmetic progressions of points), so hole radii and integrals stay cheap
on windows whose raw point count would be enormous.  Materialising points
(``points_in``) is capped at ``DEFAULT_POINT_CAP``.  Only
:class:`Run` spells a point as a float, so every variant lists exactly the
floats its ``nearest_leq`` and ``nearest_geq`` return, and reflection is exact.

Hole radii, porosity fractions, weight integrals and distance peaks all read
one :class:`WindowSummary` per window, from the variant's ``summary(lo, hi)``:
the components of I \\ E strictly between the first and last interior set
points, reduced to O(1) numbers plus grouped lengths.  Queries add the two
edge components of their own interval.  By default a variant builds the
summary from ``runs_in``.  A lattice answers in closed form: two index
searches give its interior points, one run.  A reflection mirrors its inner
set's summary, and a geometric-plus-lattice set hands a window right of its
geometric points to its lattice.  Finite point sets (:class:`SortedPoints`)
keep a run index over their sorted points: the greedy run length from each
start index, found on first use.  A window's runs are a chain through it,
trimmed by index, and the memoised summary of an index window reads its
lengths, peak and integral runs from that chain, so no window re-compresses
its points; the index spells what :class:`Run` would, since a run only holds
points its spelling hits.

All set values are immutable.  The per-instance summary memo and run index
are benign caches: they are left out of equality, hashing, ``repr``,
``to_dict`` and pickling, every entry is a pure function of its key or a
true fact about the points, and a lost race only stores an entry twice, so
concurrent use needs no locking.
"""

from __future__ import annotations

import json
import math
import weakref
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import fsum
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .intervals import Interval

DEFAULT_POINT_CAP = 1_000_000

MAX_CANTOR_DEPTH = 18  # 2^(d+1) endpoints must stay well under the point cap


class EmptySetError(ValueError):
    """Raised when a query needs at least one point and the set has none."""


class PointCapExceeded(RuntimeError):
    """Raised when a window would materialise more points than the cap allows."""

    def __init__(self, count: int, cap: int, window: tuple[float, float]):
        super().__init__(count, cap, window)  # as args, so it unpickles where a worker raised it
        self.count = count
        self.cap = cap
        self.window = window

    def __str__(self) -> str:
        return f"window {self.window} holds {self.count} points, above the cap of {self.cap}"


class SetFormatError(ValueError):
    """Raised by the JSON parser on a malformed set description."""


class Run:
    """Arithmetic progression of points ``base + k*step`` for k in [first, first + count),
    each then moved by the floats of ``shift`` in order: ``((base + k*step) + t1) + t2``.

    The one place that spells a point as a float.  Everything else reads
    ``start``, ``end``, :meth:`at` or :meth:`points` and trims a run by
    index, so a window edge never re-spells the points it keeps.  A
    translate appends its shift, so nested translates keep a run compressed.
    Negating ``base``, the indices and every shift negates every point
    exactly, since rounding is symmetric.
    """

    __slots__ = ("base", "step", "first", "count", "shift", "start", "end")

    def __init__(self, base: float, step: float, first: int, count: int, shift: tuple[float, ...] = ()):
        self.base = base
        self.step = step
        self.first = first
        self.count = count
        self.shift = shift
        self.start = self.at(first)
        self.end = self.start if count == 1 else self.at(first + count - 1)

    def at(self, k: int) -> float:
        """The point of index k."""
        p = self.base + k * self.step
        for t in self.shift:
            p += t
        return p

    def points(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        k = self.first
        if self.shift:
            return [self.at(j) for j in range(k, k + self.count)]
        base, step = self.base, self.step
        return [base + j * step for j in range(k, k + self.count)]

    def __repr__(self) -> str:
        return f"Run({self.base!r}, {self.step!r}, {self.first!r}, {self.count!r}, {self.shift!r})"

    @staticmethod
    def compress(points: Sequence[float]) -> list[Run]:
        """Sorted distinct points as exact runs, greedily (see :func:`_greedy`)."""
        runs: list[Run] = []
        i, n = 0, len(points)
        while i < n:
            k = _greedy(points, i, n)
            start = points[i]
            runs.append(Run(start, points[i + 1] - start, 0, k) if k > 1 else Run(start, 0.0, 0, 1))
            i += k
        return runs

    @staticmethod
    def of(points: Sequence[float], i: int, k: int) -> Run:
        """The run of the k points from ``points[i]``, which :func:`_greedy` found to spell them."""
        start = points[i]
        return Run(start, points[i + 1] - start, 0, k) if k > 1 else Run(start, 0.0, 0, 1)

    # the unbounded progression base + k*step, which is what a lattice is

    @staticmethod
    def spell(base: float, step: float, k: int) -> float:
        return base + k * step

    @staticmethod
    def index_leq(base: float, step: float, x: float) -> int:
        """Largest k whose point ``base + k*step`` is <= x.

        A point near x carries two roundings of at most an ulp of
        ``|x| + |base|``.  Where the step is not above four such ulps the
        points are not distinct and the search would not end, so this raises
        ValueError, as it does for an infinite or NaN x.
        """
        if not step > 4.0 * math.ulp(abs(x) + abs(base)):
            raise ValueError(f"lattice step {step!r} is below the float resolution at |x| = {abs(x)!r}")
        k = math.floor((x - base) / step)
        while base + k * step > x:
            k -= 1
        while base + (k + 1) * step <= x:
            k += 1
        return k

    @staticmethod
    def index_geq(base: float, step: float, x: float) -> int:
        """Smallest k whose point is >= x: the search on the mirror, exact as rounding is symmetric."""
        return -Run.index_leq(-base, step, -x)


def _greedy(points: Sequence[float], i: int, stop: int, k: int = 1) -> int:
    """How many of ``points[i:stop]`` the run from ``points[i]`` takes: the one decomposition rule.

    A run takes the next point only while ``start + k*step`` spells it
    exactly, ``step`` being the first difference.  ``k`` points already
    known to belong to the run are not checked again.
    """
    start = points[i]
    if i + k < stop:
        step = points[i + 1] - start
        while i + k < stop and start + k * step == points[i + k]:
            k += 1
    return k


def _increasing(runs: list[Run]) -> bool:
    """Whether the points the runs spell strictly increase.

    A point of a run with n shifts carries at most n + 2 roundings
    (``k*step``, ``+ base`` and one per shift), each of at most an ulp of
    ``m``, which bounds every magnitude involved.  So a step above
    2 (n + 3) such ulps (the errors of two points, and an ulp to spare on
    each) keeps the points apart.
    """
    prev = -math.inf
    for r in runs:
        if not r.start > prev:
            return False
        prev = r.end
        m = abs(r.base) + sum(map(abs, r.shift)) + max(abs(r.start), abs(prev))
        if r.count >= 2 and not r.step > 2.0 * (len(r.shift) + 3) * math.ulp(m):
            return False
    return True


class SetDescription:
    """Base for all set variants.  Subclasses implement the window primitives.

    ``summary(lo, hi)`` is the primitive every hole, share, integral and
    peak query reads.  The default here builds it from ``runs_in``; a
    variant that knows its interior points more directly overrides it with
    a summary equal to this one: the same ``first``, ``last``, ``longest``,
    ``shortest`` and interior runs, and a ``ValueError`` exactly where
    ``runs_in`` raises one.
    """

    # -- primitives ---------------------------------------------------------

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        """Runs covering exactly the points of the set in the closed [lo, hi]."""
        raise NotImplementedError

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """The :class:`WindowSummary` of the open window (lo, hi)."""
        return WindowSummary.of(_interior(self.runs_in(lo, hi), lo, hi))

    def nearest_leq(self, x: float) -> Optional[float]:
        """Largest point <= x, or None."""
        raise NotImplementedError

    def nearest_geq(self, x: float) -> Optional[float]:
        """Smallest point >= x, or None."""
        raise NotImplementedError

    # -- derived queries ----------------------------------------------------

    def points_in(self, lo: float, hi: float, cap: int = DEFAULT_POINT_CAP) -> list[float]:
        runs = self.runs_in(lo, hi)
        total = sum(r.count for r in runs)
        if total > cap:
            raise PointCapExceeded(total, cap, (lo, hi))
        out: list[float] = []
        for r in runs:
            out.extend(r.points())
        return out

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
        picks.append(run.at(run.first + idx - offset))
        pos += stride
    return picks


# ---------------------------------------------------------------------------
# concrete variants
# ---------------------------------------------------------------------------


class SortedPoints(SetDescription):
    """A finite set held as one sorted tuple of distinct points.

    Runs come from a :class:`_RunIndex` built once per set: the runs of a
    window are a chain of greedy run lengths from its first point, so no
    query re-compresses the points of its window.  Window summaries are
    memoised per index window ``(a, b)`` (the slice of points in the closed
    window) together with the two endpoint comparisons that decide which
    interior points the open window keeps: whether the first point equals
    ``lo`` and whether the last point equals ``hi``.  These fix the interior
    runs, and the memo holds O(1)-size summaries, never points.
    """

    def _pts(self) -> tuple[float, ...]:
        raise NotImplementedError

    def _index(self) -> "_RunIndex":
        index = self.__dict__.get("_runs")
        if index is None:
            index = _RunIndex(self._pts())
            object.__setattr__(self, "_runs", index)
        return index

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        pts = self._pts()
        return self._index().runs(bisect_left(pts, lo), bisect_right(pts, hi))

    def nearest_leq(self, x: float) -> Optional[float]:
        pts = self._pts()
        i = bisect_right(pts, x)
        return pts[i - 1] if i > 0 else None

    def nearest_geq(self, x: float) -> Optional[float]:
        pts = self._pts()
        i = bisect_left(pts, x)
        return pts[i] if i < len(pts) else None

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """Memoised :class:`WindowSummary` of the open window (lo, hi)."""
        pts = self._pts()
        a = bisect_left(pts, lo)
        b = bisect_right(pts, hi)
        if a == b:
            return EMPTY_SUMMARY
        memo = self.__dict__.get("_windows")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_windows", memo)
        first_on_lo, last_on_hi = pts[a] == lo, pts[b - 1] == hi
        key = 4 * (a * (len(pts) + 1) + b) + 2 * first_on_lo + last_on_hi
        s = memo.get(key)
        if s is None:
            s = memo[key] = self._index().summary(a, b, a + first_on_lo, b - last_on_hi, weakref.ref(self))
        return s

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_windows", "_runs")}


class _RunIndex:
    """The greedy runs of a sorted point tuple, by the index they start at.

    The run that starts at ``pts[s]`` takes ``_greedy(pts, s, b)`` of the
    points ``pts[s:b]``, which is what :meth:`Run.compress` of that slice
    puts in its first run.  So the runs of the closed window ``pts[a:b]``
    are the chain a -> a + length(a) -> ... up to b, every run keeping the
    start and step of its first point in the window, and an open window
    trims the chain by index, as :func:`_interior` trims runs.

    A run length is found on first use and kept: exact (positive) where the
    run ended inside the window that asked, at least ``-n`` (stored negated)
    where the window cut it, extended by a later, wider window.  Every entry
    is a fact about the points, so racing threads can only store true ones.
    Building a memoised summary, its peak and its packed groups from
    :meth:`interior` runs, instead of from :meth:`summary`,
    :meth:`middle_terms`, :meth:`peak` and :meth:`trimmed`, saves 41 lines
    but made the ``cantor`` perfbench workload slower (``wall_s`` 1.12-1.21 s
    to 1.58-1.65 s, six alternating pairs, 2 shared vCPUs).
    """

    __slots__ = ("pts", "gaps", "_lengths")

    def __init__(self, pts: tuple[float, ...]):
        self.pts = pts
        self.gaps = [q - p for p, q in zip(pts, pts[1:])]
        self._lengths = [0] * len(pts)

    def chain(self, a: int, b: int) -> list[int]:
        """The indices the runs of ``pts[a:b]`` start at, then b."""
        lengths, pts = self._lengths, self.pts
        out = []
        s = a
        while s < b:
            out.append(s)
            k = lengths[s]
            if k <= 0:
                if s - k < b:  # not known up to b
                    k = _greedy(pts, s, b, max(-k, 1))
                    lengths[s] = k if s + k < b or b == len(pts) else -k
                else:
                    k = -k
            s += k  # past b only where b cuts the run
        out.append(b)
        return out

    def runs(self, a: int, b: int) -> list[Run]:
        """The runs of ``pts[a:b]``, equal to ``Run.compress(pts[a:b])``."""
        starts = self.chain(a, b)
        pts = self.pts
        return [Run.of(pts, s, e - s) for s, e in zip(starts, starts[1:])]

    def trimmed(self, a: int, b: int, i: int, j: int) -> tuple[list[int], list[int], list[int]]:
        """The runs of ``pts[a:b]`` trimmed by index to the interior ``pts[i:j]``
        (i is a or a + 1, j is b or b - 1): per run its start s, from which it
        keeps its step, and the points ``pts[u:v]`` it keeps, as lists s, u, v.
        Only the first and the last run lose a point; either may lose its only one."""
        starts = self.chain(a, b)
        us, vs = starts[:-1], starts[1:]
        us[0], vs[-1] = i, j
        return starts[:-1], us, vs

    # The components between the interior points, as _middle reads them from
    # the interior runs: the cells of each run that keeps two or more points,
    # of its step, and one span before each run start strictly inside (i, j).

    def summary(self, a: int, b: int, i: int, j: int, source: weakref.ref) -> "WindowSummary":
        """The summary of the interior points ``pts[i:j]`` of the closed window ``pts[a:b]``."""
        if i >= j:
            return EMPTY_SUMMARY
        gaps = self.gaps
        ss, us, vs = self.trimmed(a, b, i, j)
        lengths = [gaps[s] for s, u, v in zip(ss, us, vs) if v - u >= 2]
        lengths += [gaps[s - 1] for s in ss[1:] if i < s < j]
        # + 0.0 as a run spells its points: a point -0.0 is spelled 0.0
        return WindowSummary(self.pts[i] + 0.0, self.pts[j - 1] + 0.0, max(lengths, default=0.0),
                             min(lengths, default=math.inf), (source, a, b, i, j))

    def middle_terms(self, a: int, b: int, i: int, j: int) -> list[tuple[float, float]]:
        """:func:`_middle_terms` of the interior runs, in another order."""
        gaps = self.gaps
        ss, us, vs = self.trimmed(a, b, i, j)
        out = [(gaps[s], gaps[s] * (v - u - 1)) for s, u, v in zip(ss, us, vs) if v - u >= 2]
        out += [(gaps[s - 1],) * 2 for s in ss[1:] if i < s < j]
        return out

    def peak(self, a: int, b: int, i: int, j: int) -> float:
        """:func:`_peak` of the interior runs."""
        pts, gaps = self.pts, self.gaps
        ss, us, vs = self.trimmed(a, b, i, j)
        cells = [0.5 * gaps[s] for s, u, v in zip(ss, us, vs) if v - u >= 2]
        spans = [_span_peak(pts[s - 1], pts[s]) for s in ss[1:] if i < s < j]
        return max(cells + spans, default=0.0)

    def interior(self, a: int, b: int, i: int, j: int) -> list[Run]:
        """The runs of ``pts[a:b]`` trimmed by index to ``pts[i:j]``, as :func:`_interior` trims them."""
        pts, gaps = self.pts, self.gaps
        starts = self.chain(a, b)
        out = []
        for s, e in zip(starts, starts[1:]):
            u, v = max(s, i), min(e, j)
            if (u, v) == (s, e):
                out.append(Run.of(pts, s, e - s))
            elif u < v:
                out.append(Run(pts[s], gaps[s], u - s, v - u))
        return out


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
    """origin + k*step for integer k; extent restricts k >= 0 ('right') or k <= 0 ('left').

    Windows and nearest points come from one pair of searches over the
    points as :class:`Run` spells them, which raise ValueError where the
    step is below the float resolution at the query.
    """

    origin: float
    step: float
    extent: str = "two_sided"

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("lattice step must be positive")
        if self.extent not in EXTENTS:
            raise ValueError(f"extent must be one of {EXTENTS}")

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        o, h, extent = self.origin, self.step, self.extent
        if (extent == "right" and hi < o) or (extent == "left" and lo > o):
            return []
        k_lo = 0 if extent == "right" and lo <= o else Run.index_geq(o, h, lo)
        k_hi = 0 if extent == "left" and hi >= o else Run.index_leq(o, h, hi)
        return [Run(o, h, k_lo, k_hi - k_lo + 1)] if k_lo <= k_hi else []

    def nearest_leq(self, x: float) -> Optional[float]:
        o, h = self.origin, self.step
        if self.extent == "left" and x >= o:
            return Run.spell(o, h, 0)
        if not math.isfinite(x) or (self.extent == "right" and x < o):
            return None
        return Run.spell(o, h, Run.index_leq(o, h, x))

    def nearest_geq(self, x: float) -> Optional[float]:
        o, h = self.origin, self.step
        if self.extent == "right" and x <= o:
            return Run.spell(o, h, 0)
        if not math.isfinite(x) or (self.extent == "left" and x > o):
            return None
        return Run.spell(o, h, Run.index_geq(o, h, x))

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """The summary in closed form: the interior points are the indices from
        the first point above lo to the last below hi, one run.

        It searches at the ends ``runs_in`` searches at, and skips the
        searches it skips, so it raises where ``runs_in`` raises.
        """
        o, h, extent = self.origin, self.step, self.extent
        if (extent == "right" and hi < o) or (extent == "left" and lo > o):
            return EMPTY_SUMMARY
        i = int(lo == o) if extent == "right" and lo <= o else Run.index_leq(o, h, lo) + 1
        j = -int(hi == o) if extent == "left" and hi >= o else Run.index_geq(o, h, hi) - 1
        if i > j:
            return EMPTY_SUMMARY
        r = Run(o, h, i, j - i + 1)
        longest, shortest = (h, h) if j > i else (0.0, math.inf)
        return WindowSummary(r.start, r.end, longest, shortest, [r])


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
        geom = Run.compress(self._geom_in(lo, hi))
        latt = self.lattice.runs_in(lo, hi)
        return _merge_run_lists([geom, latt], lo, hi)

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """A window right of every geometric point is its lattice's window."""
        if lo > -self.ratio:
            return self.lattice.summary(lo, hi)
        return super().summary(lo, hi)

    def nearest_leq(self, x: float) -> Optional[float]:
        cands = [p for p in (self._geom_leq(x), self.lattice.nearest_leq(x)) if p is not None]
        return max(cands) if cands else None

    def nearest_geq(self, x: float) -> Optional[float]:
        cands = [p for p in (self._geom_geq(x), self.lattice.nearest_geq(x)) if p is not None]
        return min(cands) if cands else None


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


@dataclass(frozen=True)
class Translate(SetDescription):
    """Image of the inner set under x -> x + shift, each point rounded to a float.

    A point p becomes the float ``p + shift``; points the shift rounds onto
    one float merge into one.  A query maps its ends back to the exact range
    of inner points whose images it keeps (:func:`_preimage`, mirrored for a
    lower end), so nothing is padded or filtered.  An inner run becomes the
    same run with ``shift`` appended to its shifts, which spells exactly
    these images, also under nested translates.  When the images may
    collide, the runs are replaced by their images, compressed.
    """

    inner: SetDescription
    shift: float

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        t = self.shift
        inner = self.inner.runs_in(-_preimage(-lo, -t), _preimage(hi, t))
        runs = [Run(r.base, r.step, r.first, r.count, (*r.shift, t)) for r in inner]
        if not _increasing(runs):
            total = sum(r.count for r in inner)
            if total > DEFAULT_POINT_CAP:
                raise PointCapExceeded(total, DEFAULT_POINT_CAP, (lo, hi))
            runs = Run.compress(sorted({p + t for r in inner for p in r.points()}))
        return runs

    def nearest_leq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_leq(_preimage(x, self.shift))
        return None if p is None else p + self.shift

    def nearest_geq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_geq(-_preimage(-x, -self.shift))
        return None if p is None else p + self.shift


def _preimage(x: float, t: float) -> float:
    """The largest float y with ``y + t <= x``, the sum rounded as a translated point is.

    ``y + t`` rounds past x once y passes the midpoint between x and the
    next float, less t.  That bound is computed in rationals, so only a
    float or two next to it are tried, however far apart the magnitudes of
    x, t and y are.
    """
    if not math.isfinite(x):
        return x - t
    y = float((Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2 - Fraction(t))
    while y + t > x:
        y = math.nextafter(y, -math.inf)
    while math.nextafter(y, math.inf) + t <= x:
        y = math.nextafter(y, math.inf)
    return y


@dataclass(frozen=True)
class Reflect(SetDescription):
    """Image of the inner set under x -> -x, exact on floats."""

    inner: SetDescription

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        return [_mirrored(r) for r in reversed(self.inner.runs_in(-hi, -lo))]

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """The inner set's summary of (-hi, -lo), mirrored.

        Its middle lengths are the inner ones.  Its ends are read from the
        mirrored runs, which spell a point 0.0 where ``-last`` would give -0.0.
        """
        s = self.inner.summary(-hi, -lo)
        if s.first is None:
            return EMPTY_SUMMARY
        runs = [_mirrored(r) for r in reversed(s.interior(-hi, -lo))]
        return WindowSummary(runs[0].start, runs[-1].end, s.longest, s.shortest, runs)

    def nearest_leq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_geq(-x)
        return None if p is None else -p

    def nearest_geq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_leq(-x)
        return None if p is None else -p


def _mirrored(r: Run) -> Run:
    """The run of the negated points, which it spells exactly."""
    return Run(-r.base, r.step, -(r.first + r.count - 1), r.count, tuple(-t for t in r.shift))


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
    return Run.compress(pts)


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
    """The runs of [lo, hi] trimmed by index to the points strictly inside (lo, hi)."""
    out = []
    for r in runs:
        first, count = (r.first + 1, r.count - 1) if r.start == lo else (r.first, r.count)
        if count > 0 and r.end == hi:
            count -= 1
        if count == r.count:
            out.append(r)
        elif count > 0:
            out.append(Run(r.base, r.step, first, count, r.shift))
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


def _exact_sum(terms: Iterable[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of the finite ``terms``.

    fsum rounds correctly, so each pass takes the float nearest to what is
    left and appends its negation.  What is left is a multiple of the least
    subnormal and shrinks to at most half an ulp of itself, so it reaches
    zero, and only then does fsum return 0.0.  ``fsum(partials + more)``
    therefore equals ``fsum(terms + more)`` bit for bit.
    """
    terms = list(terms)
    partials = []
    h = fsum(terms)
    while h:
        partials.append(h)
        terms.append(-h)
        h = fsum(terms)
    return partials


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
    neg: list[float] = []
    rows: list[list[float]] = [[]]
    for length, group in groupby(sorted(items, reverse=True), key=itemgetter(0)):
        neg.append(-length)
        rows.append(_exact_sum([*rows[-1], *(term for _, term in group)]))
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
        prev = r.end
    return peak


def _widest(runs: list[Run]) -> Optional[tuple[float, float]]:
    """Leftmost middle component of maximal length, as an (lo, hi) pair."""
    best = None
    for item in _middle(runs):
        a, b = (item[1], item[2]) if item[0] == "span" else (item[1], item[1] + item[2])
        if best is None or b - a > best[1] - best[0]:
            best = (a, b)
    return best


class LengthProfile:
    """The components of one window, longest first, and the share of the window each prefix covers.

    ``neg`` holds the component lengths negated, so it ascends: one entry
    per edge component and per middle item, or for a memoised summary per
    group of equal middle lengths (see :class:`WindowSummary`).  ``row(c)``
    gives floats whose exact sum is the total length * multiplicity of the
    first c entries.  The components at least t long are those of the first
    c = ``bisect_right(neg, -t)`` entries, so the share of the window they
    cover is ``fsum(row(c)) / length``: fsum is correctly rounded in any
    order, so the share of c is the same whichever t picked it.  It is
    summed once, on first use, and the empty prefix is 0.0 without a sum.
    """

    __slots__ = ("_neg", "_row", "_length", "_shares")

    def __init__(self, neg: Sequence[float], row: Callable[[int], list[float]], length: float):
        self._neg = neg
        self._row = row
        self._length = length
        self._shares: list[Optional[float]] = [None] * (len(neg) + 1)
        self._shares[0] = 0.0

    def _sum(self, c: int) -> float:
        share = self._shares[c] = fsum(self._row(c)) / self._length
        return share

    def share(self, t: float) -> float:
        """Share of the window covered by its components at least t long."""
        c = bisect_right(self._neg, -t)
        share = self._shares[c]
        return self._sum(c) if share is None else share

    def lower_along(self, worst: list[float], doubled: Sequence[float], rho_ref: float) -> None:
        """worst[k] = min(worst[k], share at threshold doubled[k] * rho_ref), for every k."""
        neg, shares = self._neg, self._shares
        for k, d in enumerate(doubled):
            c = bisect_right(neg, -(d * rho_ref))
            share = shares[c]
            if share is None:
                share = self._sum(c)
            if share < worst[k]:
                worst[k] = share


class WindowSummary:
    """The components of I \\ E strictly between the first and last interior points.

    ``first`` is the first interior point (``None`` when no set point lies
    inside the window), ``last`` the last interior point, and ``longest``
    and ``shortest`` the longest and the shortest positive middle length (0
    and inf if there is none).  A query adds its own edge components
    (lo, first) and (last, hi), or the whole window when ``first`` is
    ``None``.

    Everything else is derived from the interior runs on first use: the
    distance peak (:meth:`peak`), the middle lengths grouped longest first
    (read by :meth:`profile`, which adds the edges and answers any
    threshold) and per-exponent integral terms
    (:meth:`integral_terms`).  A summary built for one query keeps its runs
    and sorts its lengths per profile.  A memoised one keeps the derived
    values instead, packed in float arrays, and reads the runs from its
    set's :class:`_RunIndex` by index window when it needs them.  Sorting
    every profile per call instead of packing the memoised groups saves 17
    lines but made the ``cantor`` perfbench workload slower (``wall_s``
    1.12-1.21 s to 1.30-1.42 s, six alternating pairs, 2 shared vCPUs).
    """

    __slots__ = ("first", "last", "longest", "shortest", "_source", "_peak", "_groups", "_integrals")

    def __init__(self, first, last, longest, shortest, source):
        self.first: Optional[float] = first
        self.last: Optional[float] = last
        self.longest: float = longest
        self.shortest: float = shortest
        # the interior runs, or for a memoised summary (a weak reference to the
        # set, a, b, i, j): the index window pts[a:b] and its interior pts[i:j]
        # (a strong reference would make the memo a cycle)
        self._source = source
        self._peak: Optional[float] = None
        self._groups: Optional[array] = None
        self._integrals: array | tuple = ()

    @classmethod
    def of(cls, interior: list[Run]) -> "WindowSummary":
        """Summary of the given interior runs, kept for its derived values."""
        if not interior:
            return EMPTY_SUMMARY
        longest, shortest = 0.0, math.inf
        prev = None
        # the lengths of _middle, inlined: this runs on every summary built from
        # runs (a geometric-plus-lattice window that reaches the geometric
        # points, a translate, a cutoff, a union)
        for r in interior:
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
            prev = r.end
        return cls(interior[0].start, prev, longest, shortest, interior)

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
            self._peak = self._indexed(_RunIndex.peak) if self._kept() else _peak(self._source)
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
        return self._indexed(_RunIndex.interior) if self._kept() else self._source

    def _kept(self) -> bool:
        return isinstance(self._source, tuple)

    def _indexed(self, method: Callable):
        """``method`` of the set's :class:`_RunIndex`, on this memoised summary's index window."""
        ref, *window = self._source
        return method(ref()._index(), *window)

    def profile(self, lo: float, hi: float) -> LengthProfile:
        """The :class:`LengthProfile` of (lo, hi), a window this summary describes."""
        edges = self.edges(lo, hi)
        if not self._kept():
            items = _middle_terms(self.interior(lo, hi)) + [(x, x) for x in edges]
            items.sort(reverse=True)
            terms = [x for _, x in items]
            return LengthProfile([-length for length, _ in items], lambda c: terms[:c], hi - lo)
        groups = self._groups
        if groups is None:
            groups = self._groups = _pack_groups(self._indexed(_RunIndex.middle_terms))
        # see _pack_groups: the stride, then the negated lengths, then the rows
        stride = int(groups[0])
        start = (len(groups) - 1 - stride) // (1 + stride) + 1
        neg = groups[1:start].tolist()
        for x in edges:
            insort(neg, -x)

        def row(c: int) -> list[float]:
            # the middle groups and the edges at least -neg[c - 1] long
            neg_t = neg[c - 1]
            k = start + (bisect_right(groups, neg_t, 1, start) - 1) * stride
            return [*groups[k:k + stride], *(x for x in edges if -x <= neg_t)]

        return LengthProfile(neg, row, hi - lo)

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
            partials = [math.inf] if math.inf in terms else _exact_sum(terms)
            self._integrals = array("d", [*cache, alpha, len(partials), *partials])
        return terms


EMPTY_SUMMARY = WindowSummary(None, None, 0.0, math.inf, [])


def window_summary(e: SetDescription, i: Interval) -> WindowSummary:
    """Summary of the components of I \\ E: the set's own ``summary`` of (i.lo, i.hi)."""
    return e.summary(i.lo, i.hi)


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
