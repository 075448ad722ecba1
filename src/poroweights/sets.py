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
set's summary.

A sorted point tuple is answered by one engine, a :class:`_RunIndex` over
it: the greedy run length from each start index, found on first use.  It
owns the bisections of windows and nearest points, and
:meth:`_RunIndex.window` looks up a window's summary in a memo its set
keeps, by index window and two edge bits.  A window's runs are a chain
through it, trimmed by index.  Finite point sets (:class:`SortedPoints`)
memoise summaries that hold their index and read their lengths, peak and
integral terms from that chain and from two tables over the gaps, so no
window re-compresses its points or builds a run; the index spells what
:class:`Run` would, since a run only holds points its spelling hits.  A
geometric-plus-lattice set hands a window right of its geometric points to
its lattice; where its lattice lies right of them, it stitches the memoised
summary of the window's geometric points, built from the runs of the index
over one cached tuple of them, to its lattice's summary, so only an
interleaved lattice takes the default path.

All set values are immutable.  The per-instance summary memo, run index and
cached geometric points are benign caches: they are left out of equality,
hashing, ``repr``, ``to_dict`` and pickling, every entry is a pure function
of its key or a true fact about the points, and a lost race only stores an
entry twice, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .intervals import Interval

DEFAULT_POINT_CAP = 1_000_000

MAX_CANTOR_DEPTH = 18  # 2^(d+1) endpoints must stay well under the point cap


class EmptySetError(ValueError):
    """Raised when a query needs at least one point and the set has none."""


class PointCapExceeded(RuntimeError):
    """Raised when a window would materialise more points than the cap allows."""

    def __init__(self, count: int, cap: int, window: tuple[float, float]):
        super().__init__(count, cap, window)  # as args: pickle and copy rebuild an exception as cls(*args)
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
            runs.append(Run.of(points, i, k))
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

    Every query reads the :class:`_RunIndex` built once per set over the
    points, read once: runs, nearest points, and window summaries memoised
    by :meth:`_RunIndex.window` in the set's own dict.  A memoised summary
    holds O(1) numbers and its index, never points.
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
        return self._index().runs_in(lo, hi)

    def nearest_leq(self, x: float) -> Optional[float]:
        return self._index().nearest_leq(x)

    def nearest_geq(self, x: float) -> Optional[float]:
        return self._index().nearest_geq(x)

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """Memoised :class:`WindowSummary` of the open window (lo, hi), read by index."""
        return self._index().window(lo, hi, self.__dict__.setdefault("_windows", {}), _RunIndex.summary)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_windows", "_runs")}


class _RunIndex:
    """The greedy runs of a sorted point tuple, by the index they start at:
    the one window engine of the point tuples of :class:`SortedPoints` and
    :class:`GeometricPlusLattice`.  It owns their bisections, nearest points
    and summary memo lookup (:meth:`window`).  Each set keeps the memo in
    its own dict, so a memoised summary may hold its index: set -> memo ->
    summary -> index is no cycle, and a summary outlives its set.

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

    Gap tables, each an ``array('d')`` of one float per gap (n - 1 for n
    points), hold the span terms, which every window whose chain starts a
    run at s + 1 reads for the gap (pts[s], pts[s + 1]), and the cell terms,
    which every window reads for the step of a run that starts at s:

    - ``_peaks``, the distance peak of each gap, lives as long as the index;
    - ``_integrals`` pairs an exponent with two tables at it, the integral
      over each gap as a span and over one cell of each gap's length, and
      lives until a call asks for another exponent, which gets new tables
      (so a scan or a bisection step, which asks for one exponent at a
      time, fills one pair).

    Entries are filled on first read, 0.0 marking an unknown one, so a
    query pays for the gaps of its own window only.
    Building a memoised summary, its peak and its packed groups from
    :meth:`interior` runs, instead of from :meth:`summary`,
    :meth:`middle_terms`, :meth:`peak` and :meth:`trimmed`, saves 41 lines
    but made the ``cantor`` perfbench workload slower (``wall_s`` 1.12-1.21 s
    to 1.58-1.65 s, six alternating pairs, 2 shared vCPUs).
    """

    __slots__ = ("pts", "gaps", "_lengths", "_peaks", "_integrals")

    def __init__(self, pts: tuple[float, ...]):
        self.pts = pts
        self.gaps = [q - p for p, q in zip(pts, pts[1:])]
        self._lengths = [0] * len(pts)
        self._peaks = array("d", [0.0]) * len(self.gaps)
        self._integrals: tuple[Optional[float], Optional[array], Optional[array]] = (None, None, None)

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        pts = self.pts
        a, b = bisect_left(pts, lo), bisect_right(pts, hi)
        return self.interior(a, b, a, b)

    def nearest_leq(self, x: float) -> Optional[float]:
        i = bisect_right(self.pts, x)
        return self.pts[i - 1] if i else None

    def nearest_geq(self, x: float) -> Optional[float]:
        i = bisect_left(self.pts, x)
        return self.pts[i] if i < len(self.pts) else None

    def window(self, lo: float, hi: float, memo: dict, build: Callable) -> "WindowSummary":
        """The summary of the open window (lo, hi): ``build(self, a, b, i, j)``
        for the closed window ``pts[a:b]`` and its interior ``pts[i:j]``,
        memoised in ``memo``.

        The key is the index window and the two edge bits, whether the first
        point equals lo and whether the last equals hi, which fix the
        interior.  Its indices count from the end of the points: the
        geometric points grow at the front, so the key names the same points
        before and after a growth.  It is a tuple: an int packed with the
        count n as multiplier would move with a growth, and one packed with
        2 ** 63 hashes onto few values, as int hashes are taken mod 2 ** 61 - 1.
        """
        pts = self.pts
        a, b = bisect_left(pts, lo), bisect_right(pts, hi)
        if a == b:
            return EMPTY_SUMMARY
        n = len(pts)
        first_on_lo, last_on_hi = pts[a] == lo, pts[b - 1] == hi
        key = (n - a, n - b, first_on_lo, last_on_hi)
        s = memo.get(key)
        if s is None:
            s = memo[key] = build(self, a, b, a + first_on_lo, b - last_on_hi)
        return s

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

    def summary(self, a: int, b: int, i: int, j: int) -> "WindowSummary":
        """The summary of the interior points ``pts[i:j]`` of the closed window
        ``pts[a:b]``, which reads its derived values from this index."""
        if i >= j:
            return EMPTY_SUMMARY
        gaps = self.gaps
        ss, us, vs = self.trimmed(a, b, i, j)
        lengths = [gaps[s] for s, u, v in zip(ss, us, vs) if v - u >= 2]
        lengths += [gaps[s - 1] for s in ss[1:] if i < s < j]
        # + 0.0 as a run spells its points: a point -0.0 is spelled 0.0
        return WindowSummary(self.pts[i] + 0.0, self.pts[j - 1] + 0.0, max(lengths, default=0.0),
                             min(lengths, default=math.inf), (self, a, b, i, j))

    def built(self, a: int, b: int, i: int, j: int) -> "WindowSummary":
        """The summary of the same window built from its :meth:`interior` runs."""
        return WindowSummary.of(self.interior(a, b, i, j))

    def middle_terms(self, a: int, b: int, i: int, j: int) -> list[tuple[float, float]]:
        """:func:`_middle_terms` of the interior runs, in another order."""
        gaps = self.gaps
        ss, us, vs = self.trimmed(a, b, i, j)
        out = [(gaps[s], gaps[s] * (v - u - 1)) for s, u, v in zip(ss, us, vs) if v - u >= 2]
        out += [(gaps[s - 1],) * 2 for s in ss[1:] if i < s < j]
        return out

    def peak(self, a: int, b: int, i: int, j: int) -> float:
        """:func:`_peak` of the interior runs."""
        gaps = self.gaps
        ss, us, vs = self.trimmed(a, b, i, j)
        cells = [0.5 * gaps[s] for s, u, v in zip(ss, us, vs) if v - u >= 2]
        return max(cells + self._spans(ss, i, j, self._peaks, _span_peak), default=0.0)

    def integral_terms(self, a: int, b: int, i: int, j: int, alpha: float) -> list[float]:
        """:func:`_middle_integrals` of the interior runs, in another order:
        ``(v - u - 1) * _cell_integral(step, alpha)`` per run that keeps two or
        more points, ``_span_integral(p, q, alpha)`` per span between points
        p < q, each read from its gap table at alpha."""
        gaps = self.gaps
        known, spans, cells = self._integrals  # one read: a racing alpha swaps the triple, never a part
        if known != alpha:
            spans, cells = array("d", [0.0]) * len(gaps), array("d", [0.0]) * len(gaps)
            self._integrals = (alpha, spans, cells)
        ss, us, vs = self.trimmed(a, b, i, j)
        terms = []
        for s, u, v in zip(ss, us, vs):
            if v - u >= 2:
                x = cells[s]
                if not x:  # 0.0 is unknown, as in _spans
                    x = cells[s] = _cell_integral(gaps[s], alpha)
                terms.append((v - u - 1) * x)
        return terms + self._spans(ss, i, j, spans, _span_integral, alpha)

    def _spans(self, ss: list[int], i: int, j: int, table: array, expr: Callable, *args) -> list[float]:
        """``expr(p, q, *args)`` per span (p, q) before a run start s with
        i < s < j, spelled as a run spells its points, from ``table[s - 1]``;
        0.0 there is unknown, so an entry found 0.0 is computed again."""
        pts = self.pts
        out = []
        for s in ss[1:]:
            if i < s < j:
                x = table[s - 1]
                if not x:
                    x = table[s - 1] = expr(pts[s - 1] + 0.0, pts[s] + 0.0, *args)
                out.append(x)
        return out

    def interior(self, a: int, b: int, i: int, j: int) -> list[Run]:
        """The runs of ``pts[a:b]`` trimmed by index to ``pts[i:j]``, as :func:`_interior` trims them.

        With (i, j) = (a, b) every run keeps all its points: these are the
        runs of the closed window, equal to ``Run.compress(pts[a:b])``.
        """
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
    right-sided lattice this is the standard mixed-speed catalog set.  Its
    points are spelled once, into one cached ascending tuple with a
    :class:`_RunIndex` over it (see :meth:`_geometric`), which answers the
    geometric part of every query: its runs, equal to ``Run.compress`` of
    the window's points, its nearest points and its memoised summaries.
    """

    ratio: float
    lattice: Lattice

    def __post_init__(self):
        if not self.ratio > 1:
            raise ValueError("ratio must exceed 1")

    def _chain(self, pts: tuple[float, ...], x: float) -> tuple[tuple[float, ...], bool]:
        """``pts``, the first geometric points ascending, extended down to a point <= x
        and to at least twice their count, or to ``DEFAULT_POINT_CAP`` points or
        overflow if sooner; and whether the chain overflowed.

        The one spelling of the geometric points: ``v = ratio; v *= ratio``,
        each negated (the first point, ``-ratio``, is where the chain starts).
        """
        new = []
        v = -pts[0]
        more = len(pts)
        while len(pts) + len(new) < DEFAULT_POINT_CAP:
            v *= self.ratio
            if v == math.inf:
                break
            new.append(-v)
            if -v <= x and len(new) >= more:
                break
        new.reverse()
        return (*new, *pts), v == math.inf

    def _geometric(self, x: float) -> "_RunIndex":
        """The cached run index over the geometric points ascending, holding every
        one >= x and the first one <= x (if any).

        The cached points grow on demand, to reach x and to at least twice
        their count, and stop at overflow or at ``DEFAULT_POINT_CAP`` points.
        A query that needs points past the cap raises ``PointCapExceeded``.
        """
        state = self.__dict__.get("_geom")
        if state is None:
            state = (_RunIndex((-self.ratio,)), -self.ratio)
            object.__setattr__(self, "_geom", state)
        index, reach = state
        if x < reach and len(index.pts) < DEFAULT_POINT_CAP:
            pts, done = self._chain(index.pts, x)
            index, reach = _RunIndex(pts), -math.inf if done else pts[0]
            object.__setattr__(self, "_geom", (index, reach))
        if x < reach:
            # the points from -ratio down to the first <= x, about log(-x) / log(ratio)
            # of them, and more than the cap: x lies below the last cached point
            octaves = math.log2(-x) if x > -math.inf else 1024.0  # the float range ends at 2 ** 1024
            count = math.floor(octaves / math.log2(self.ratio)) + 1
            raise PointCapExceeded(max(count, DEFAULT_POINT_CAP + 1), DEFAULT_POINT_CAP, (x, -self.ratio))
        return index

    def runs_in(self, lo: float, hi: float) -> list[Run]:
        return _merge_run_lists([self._geometric(lo).runs_in(lo, hi), self.lattice.runs_in(lo, hi)], lo, hi)

    def summary(self, lo: float, hi: float) -> "WindowSummary":
        """A window right of every geometric point is its lattice's window.

        Where the lattice lies right of every geometric point, the summary
        of the window's geometric points, built from runs and memoised by
        :meth:`_RunIndex.window`, is stitched to the lattice's summary: the
        one span between the two parts joins the middle lengths.  An
        interleaved lattice takes the default path.
        """
        latt = self.lattice
        if lo > -self.ratio:
            return latt.summary(lo, hi)
        if latt.extent != "right" or latt.origin <= -self.ratio:
            return super().summary(lo, hi)
        geom = self._geometric(lo).window(lo, hi, self.__dict__.setdefault("_windows", {}), _RunIndex.built)
        right = latt.summary(lo, hi)
        if geom.first is None:
            return right
        if right.first is None:
            return geom
        span = right.first - geom.last
        return WindowSummary(geom.first, right.last, max(geom.longest, right.longest, span),
                             min(geom.shortest, right.shortest, span),
                             geom.interior() + right.interior())

    def nearest_leq(self, x: float) -> Optional[float]:
        cands = [p for p in (self._geometric(x).nearest_leq(x), self.lattice.nearest_leq(x)) if p is not None]
        return max(cands) if cands else None

    def nearest_geq(self, x: float) -> Optional[float]:
        cands = [p for p in (self._geometric(x).nearest_geq(x), self.lattice.nearest_geq(x)) if p is not None]
        return min(cands) if cands else None

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_windows", "_geom")}


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
        runs = [_mirrored(r) for r in reversed(s.interior())]
        return WindowSummary(runs[0].start, runs[-1].end, s.longest, s.shortest, runs)

    def nearest_leq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_geq(-x)
        return None if p is None else -p

    def nearest_geq(self, x: float) -> Optional[float]:
        p = self.inner.nearest_leq(-x)
        return None if p is None else -p


def _mirrored(r: Run) -> Run:
    """The run of the negated points, which it spells exactly."""
    return Run(-r.base, r.step, -(r.first + r.count - 1), r.count, tuple(-t for t in r.shift) if r.shift else ())


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
    therefore equals ``fsum(terms + more)`` bit for bit.  A sum beyond the
    float range raises ``OverflowError`` whatever the order of the terms.
    """
    terms = list(terms)
    partials = []
    h = fsum(terms)
    while h:
        if not math.isfinite(h):
            raise OverflowError("the exact sum leaves the float range")
        partials.append(h)
        terms.append(-h)
        h = fsum(terms)
    return partials


def _middle_terms(runs: list[Run]) -> list[tuple[float, float]]:
    """(length, length * multiplicity) per middle item: one per span, one per cell run."""
    out = []
    prev = None
    for r in runs:  # the traversal of _middle, inlined: this runs on every shares call of a summary built from runs
        if prev is not None and r.start > prev:
            out.append((r.start - prev,) * 2)
        if r.count >= 2:
            out.append((r.step, r.step * (r.count - 1)))
        prev = r.end
    return out


def _pack_groups(items: list[tuple[float, float]]) -> array:
    """Distinct lengths with cumulative exact partials, packed as ``[stride, *neg, *parts]``.

    ``neg`` holds the distinct lengths negated, so it ascends.  Row k of
    ``parts`` (``stride`` floats, zero-padded) holds partials whose exact sum
    is the total of the terms in the k longest groups; row 0 is all zeros.
    The items are grouped by length in one pass and only the distinct lengths
    sorted: :func:`_exact_sum` depends only on the multiset of its terms.
    """
    groups: dict[float, list[float]] = {}
    for length, term in items:
        groups.setdefault(length, []).append(term)
    neg: list[float] = []
    rows: list[list[float]] = [[]]
    for length in sorted(groups, reverse=True):
        neg.append(-length)
        rows.append(_exact_sum([*rows[-1], *groups[length]]))
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


def _span_integral(p: float, q: float, alpha: float) -> float:
    """Integral over the component (p, q) between two consecutive set points."""
    return _segment_integral(p, q, p, q, alpha)


def _cell_integral(step: float, alpha: float) -> float:
    """Integral over one cell of an arithmetic run of the given step."""
    return 2.0 * _power_piece(0.0, 0.5 * step, alpha)


def _middle_integrals(runs: list[Run], alpha: float) -> list[float]:
    """Integral terms of the middle components, one per span and one per cell run."""
    terms = []
    prev = None
    for r in runs:  # the traversal of _middle, inlined: this runs on every lattice query
        start = r.start
        if prev is not None and start > prev:
            terms.append(_span_integral(prev, start, alpha))
        if r.count >= 2:
            terms.append((r.count - 1) * _cell_integral(r.step, alpha))
        prev = r.end
    return terms


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
    inside the window), ``last`` the last interior point, and ``longest``
    and ``shortest`` the longest and the shortest positive middle length (0
    and inf if there is none).  A query adds its own edge components
    (lo, first) and (last, hi), or the whole window when ``first`` is
    ``None``.

    Everything else is derived from the interior runs on first use: the
    distance peak (:meth:`peak`), the shares of the window that its
    components at least t long cover (read by :meth:`lower`, which lowers a
    sweep's sigma* column, and by :meth:`shares` through it) and
    per-exponent integral terms (:meth:`integral_terms`).  A summary built
    for one query keeps its runs and reads its middle items per call.  A
    memoised one keeps the derived values instead, packed in float arrays,
    and reads them from its set's :class:`_RunIndex` by index window; only
    :meth:`interior` builds runs.

    A share is read on one of three paths: a memoised summary bisects its
    middle lengths, grouped longest first and packed on its first read; a
    summary of at most one run (every lattice window) sums its at most three
    terms in closed form; any other summary built from runs sorts its items
    once per call.  Sorting the lengths per call instead of packing the
    memoised groups saves 17 lines but made the ``cantor`` perfbench
    workload slower (``wall_s`` 1.12-1.21 s to 1.30-1.42 s, six alternating
    pairs, 2 shared vCPUs).
    """

    __slots__ = ("first", "last", "longest", "shortest", "_source", "_peak", "_groups", "_integrals")

    def __init__(self, first, last, longest, shortest, source):
        self.first: Optional[float] = first
        self.last: Optional[float] = last
        self.longest: float = longest
        self.shortest: float = shortest
        # the interior runs, or for a memoised summary (index, a, b, i, j): its
        # _RunIndex, the index window pts[a:b] and its interior pts[i:j]; the
        # set holds the memo, so set -> memo -> summary -> index makes no cycle
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
        # runs (a translate, a cutoff, a union, a geometric-plus-lattice set
        # whose lattice interleaves its geometric points, and once per
        # geometric index window of the others)
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

    def peak(self) -> float:
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

    def interior(self) -> list[Run]:
        """Runs of the set points strictly inside the window this summary describes."""
        return self._indexed(_RunIndex.interior) if self._kept() else self._source

    def _kept(self) -> bool:
        return isinstance(self._source, tuple)

    def _indexed(self, method: Callable, *args):
        """``method`` of this memoised summary's :class:`_RunIndex`, on its index window."""
        return method(*self._source, *args)

    def shares(self, lo: float, hi: float, thresholds: Sequence[float]) -> list[float]:
        """Per threshold t, the share of (lo, hi), a window this summary
        describes, covered by its components at least t long: :meth:`lower`
        on an empty grid, which the probe passes call with theirs."""
        return self.lower(lo, hi, [], 0, (), 0.0, thresholds)

    def lower(self, lo: float, hi: float, low: list[float], top: int, doubled: Sequence[float],
              rho_ref: float, first: Sequence[float] = ()) -> list[float]:
        """The shares of (lo, hi) at ``first``; then lower ``low`` (sigma* along
        the ascending grid ``doubled[k] * rho_ref``) down the grid from
        k = ``top - 1``: a share v lowers ``low[k]`` to v and skips every
        k' < k with ``low[k'] <= v``, whose share is at least v.

        A share is the fsum of the terms of the components at least t long
        over |R|, on the path of the class note; fsum rounds correctly in any
        order, so the paths agree, and a memo keyed by the kept items sums
        each set of them once per call.

        A memoised summary of n interior points first bounds its share: the
        at most n + 1 components shorter than t cover less than (n + 1) t,
        so the share is at least 1 - (n + 1) (t + 16 ulp(M)) / |R| - 2^-48,
        M the larger of |lo| and |hi|.  The ulps pay for each computed length
        (a cell term carries the spelling of its run's end points and a
        product, under 8 ulps of M), 2^-48 for the roundings of |R|, the sum,
        the division and the bound.  Where the bound is not below ``low[k]``
        it skips as a share would, and nothing is packed or summed for it.
        """
        length = hi - lo
        source = self._source
        kept = isinstance(source, tuple)
        one = not kept and len(source) <= 1
        first_point = self.first
        if first_point is None:
            e1, e2 = (length if hi > lo else -math.inf), -math.inf
        else:
            e1 = first_point - lo if first_point > lo else -math.inf
            e2 = hi - self.last if hi > self.last else -math.inf
        step, cells = -math.inf, 0.0  # the one run's cell length and term
        if one and source and source[0].count >= 2:
            step = source[0].step
            cells = step * (source[0].count - 1)
        lift, scale, pad = -math.inf, 1.0, 0.0  # no bound: -inf at every threshold, inf included
        if kept and 0.0 < length < math.inf:
            _, _, _, i, j = source  # the interior points pts[i:j]
            lift, scale, pad = 1.0 - 2.0 ** -48, (j - i + 1) / length, 16.0 * math.ulp(max(-lo, hi))
        groups = neg = None
        done = {0: 0.0}
        out: list[float] = []
        n_first = len(first)
        f = 0
        k = top - 1
        while True:
            if f < n_first:  # each threshold at first is read
                t = first[f]
                v = -math.inf
            elif k >= 0:  # a grid threshold is read where the bound v is below low[k]
                t = doubled[k] * rho_ref
                v = lift - scale * (t + pad)
            else:
                return out
            if f < n_first or not v >= low[k]:
                if one:
                    c = (e1 >= t) + 2 * (e2 >= t) + 4 * (step >= t)  # which of the three are kept
                    v = done.get(c)
                    if v is None:
                        v = done[c] = fsum((e1 if e1 >= t else 0.0, e2 if e2 >= t else 0.0,
                                            cells if step >= t else 0.0)) / length
                elif kept:
                    if groups is None:
                        groups = self._groups
                        if groups is None:
                            groups = self._groups = _pack_groups(self._indexed(_RunIndex.middle_terms))
                        # see _pack_groups: the stride, then the negated lengths, then the rows
                        stride = int(groups[0])
                        start = (len(groups) - 1 - stride) // (1 + stride) + 1
                    g = bisect_right(groups, -t, 1, start) - 1
                    c = g + (e1 >= t) + (e2 >= t)
                    v = done.get(c)
                    if v is None:
                        r = start + g * stride
                        v = done[c] = fsum((*groups[r:r + stride], e1 if e1 >= t else 0.0,
                                            e2 if e2 >= t else 0.0)) / length
                else:
                    if neg is None:
                        items = _middle_terms(source)
                        items += [(x, x) for x in (e1, e2) if x > -math.inf]
                        items.sort(reverse=True)
                        neg = [-size for size, _ in items]
                        terms = [x for _, x in items]
                    c = bisect_right(neg, -t)
                    v = done.get(c)
                    if v is None:
                        v = done[c] = fsum(terms[:c]) / length
                if f < n_first:
                    out.append(v)
                    f += 1
                    continue
                if v < low[k]:
                    low[k] = v
            k -= 1
            while k >= 0 and low[k] <= v:
                k -= 1

    def integral_terms(self, alpha: float) -> list[float]:
        """The terms at alpha of the middle components: :func:`_middle_integrals`
        of the interior runs of a summary built from runs.

        A memoised summary builds no run: it reads the same terms by index
        (:meth:`_RunIndex.integral_terms`, with the same cell and span
        expressions), its spans from the set's per-exponent
        gap table, n - 1 floats for n points, kept until another exponent is
        asked.  It keeps its own terms per exponent, for its lifetime, as exact
        partials, packed as ``[alpha, n, *partials]``; their fsum with any
        further terms is the fsum of all the terms.
        """
        if not self._kept():
            return _middle_integrals(self._source, alpha)
        cache = self._integrals
        k = 0
        while k < len(cache):
            n = int(cache[k + 1])
            if cache[k] == alpha:
                return list(cache[k + 2:k + 2 + n])
            k += 2 + n
        terms = self._indexed(_RunIndex.integral_terms, alpha)
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
        widest = _widest(s.interior())
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
    """The set a JSON object describes (the ``--set-file`` schema); :func:`to_dict` inverts it.

    Every object has a ``kind``, one of eight, and that kind's fields.
    Numbers must be finite; ``path`` names the object in error messages.

    - ``finite``: ``points``, a non-empty list of numbers.
    - ``lattice``: the points origin + k*step for integers k: ``origin``
      and ``step``, numbers, and ``extent``: ``"two_sided"`` (the default),
      ``"right"`` (k >= 0) or ``"left"`` (k <= 0).
    - ``geometric_lattice``: ``ratio`` > 1 and ``lattice``, a lattice
      object; the points -ratio**m for m >= 1, joined with the lattice.
    - ``cantor``: ``lo`` < ``hi``, ``middle`` in (0, 1) and ``depth``, an
      integer in [0, ``MAX_CANTOR_DEPTH``]: the endpoints of that step of
      the middle-fraction construction.
    - ``union``: ``members``, a non-empty list of set objects.
    - ``translate``: ``inner``, a set object, and ``shift``, a number.
    - ``reflect``: ``inner``, a set object, mirrored through 0.
    - ``cutoff``: ``inner``, a set object, ``point``, a number, and
      ``side``: ``"right"`` keeps inner n [point, inf), ``"left"`` inner n
      (-inf, point].

    ``inner``, ``members`` and ``lattice`` objects nest at most
    ``MAX_NESTING`` levels deep.  A malformed object raises
    :class:`SetFormatError`.  Example: ``{"kind": "reflect", "inner":
    {"kind": "lattice", "origin": 0, "step": 1, "extent": "right"}}``.
    """
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
