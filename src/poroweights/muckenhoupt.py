"""Lower bounds and divergence hunting for one-sided A1 constants.

The backward-average condition is probed through its triple form: for
a < b < c the ratio

    (1/(c-a)) * integral of w over (a, b)   /   ess inf of w over (b, c)

is a lower bound for the A1 constant of the '+' side; the '-' side mirrors
the roles of the outer intervals.  Sampling triples across anchors and a
dyadic scale ladder yields either stabilising maxima (boundedness evidence)
or a monotone-growing witness chain (divergence evidence).  No upper bound
on the true constant is ever claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .intervals import Interval
from .porosity import ProbeFamily, SweepResult, anchor_candidates, sweep_sides
from .scaling import LadderReport, octave_of, rising_prefix_maxima
from .sets import SetDescription, min_component_length
from .weights import IntegralWindow, WeightSpec, distance_power

SIDES = ("plus", "minus", "two_sided")
# the porosity sweeps an exponent search presupposes, the side's own last:
# A1 lies in A1+ and A1-, so two-sided needs right and left porosity too
POROSITY_SIDES = {"plus": ("right",), "minus": ("left",), "two_sided": ("right", "left", "two_sided")}

TRIPLE_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_TRIPLE_OCTAVES = 24
TRIPLE_ANCHOR_CAP = 32
# Lowest ladder octave.  A peak window is s long.  On a set whose gaps sit
# at the float floor, a ladder down to subnormal s gave subnormal peaks,
# and d^-alpha of them overflowed for alpha near 1; from s = 2^-1021 such
# peaks stay normal, and d^-alpha stays finite for alpha <= 1.
MIN_OCTAVE = -1021
# Highest ladder octave: a triple reaches s * max(TRIPLE_RATIOS) from its
# anchor, which must stay below 2^1024, where the float range ends.
MAX_OCTAVE = 1021


def _triple_windows(a: float, b: float, c: float, side: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """(averaged, peak) bounds of a triple: the side averages over one outer interval, takes the ess-inf over the other."""
    if not a < b < c:
        raise ValueError("need a < b < c")
    if side == "plus":
        return (a, b), (b, c)
    if side == "minus":
        return (b, c), (a, b)
    raise ValueError("side must be 'plus' or 'minus'")


def _ratio(num: float, width: float, power: float) -> float:
    """The triple value from the averaged integral, c - a and the peak's distance power."""
    if num == math.inf:
        return math.inf
    return num / width / power


def triple_value(w: WeightSpec, a: float, b: float, c: float, side: str = "plus") -> float:
    """Exact triple ratio; infinite when the averaged window is non-integrable.

    Exact means closed form, not quadrature: the value is correct up to
    floating-point rounding.
    """
    averaged, peak = (IntegralWindow.of(w.e, Interval(*j)) for j in _triple_windows(a, b, c, side))
    return _ratio(averaged.integral(w.alpha), c - a, distance_power(peak.peak(), w.alpha))


@dataclass(frozen=True)
class TripleSample:
    a: float
    b: float
    c: float
    value: float
    scale: float


@dataclass(frozen=True)
class TripleFamily:
    """Triples (anchor - s*u, anchor, anchor + s) on a dyadic scale ladder.

    The '-' side mirrors to (anchor - s, anchor, anchor + s*u).  Extremal
    configurations place the middle point near the set and the comparison
    interval inside a large hole, which this layout covers as u varies.

    The windows recur: with dyadic ratios, (anchor - 2^j, anchor) is the
    averaged window of every '+' triple with s*u = 2^j and the ess-inf
    window of the '-' triple with s = 2^j.  A :class:`TripleTable` summarises
    each distinct window once and shares it across ratios, octaves, sides
    and exponents.
    """

    anchors: tuple[float, ...]
    octaves: tuple[int, ...]
    ratios: tuple[float, ...] = TRIPLE_RATIOS

    @classmethod
    def default(
        cls,
        e: SetDescription,
        window: Interval,
        octaves: int = DEFAULT_TRIPLE_OCTAVES,
        anchor_cap: int = TRIPLE_ANCHOR_CAP,
    ) -> "TripleFamily":
        """The ladder starts 4 octaves below the finest gap, but no lower than
        the anchors resolve (s * min(ratios) is at least the largest anchor
        ulp, so every triple has a < b < c) and no lower than ``MIN_OCTAVE``.
        A ladder whose top octave passes ``MAX_OCTAVE`` raises ``ValueError``."""
        if octaves < 1:
            raise ValueError(f"octaves must be at least 1, got {octaves}")
        anchors = tuple(anchor_candidates(e, window, anchor_cap))
        finest = min_component_length(e, window)
        resolved = max(map(math.ulp, anchors)) / min(TRIPLE_RATIOS)
        k_lo = max(math.floor(math.log2(finest)) - 4, math.ceil(math.log2(resolved)), MIN_OCTAVE)
        if k_lo + octaves - 1 > MAX_OCTAVE:
            raise ValueError(f"octaves must keep the triple ladder at or below octave {MAX_OCTAVE}, "
                             f"got {octaves} from octave {k_lo}")
        return cls(anchors=anchors, octaves=tuple(range(k_lo, k_lo + octaves)))

    def triples(self, side: str) -> list[tuple[float, float, float, float]]:
        """(a, b, c, scale) tuples for the requested side."""
        out = []
        for m in self.anchors:
            for k in self.octaves:
                s = 2.0 ** k
                for u in self.ratios:
                    if side == "plus":
                        out.append((m - s * u, m, m + s, s))
                    else:
                        out.append((m - s, m, m + s * u, s))
        return out

    def reflected(self) -> "TripleFamily":
        return TripleFamily(
            anchors=tuple(sorted(-a for a in self.anchors)),
            octaves=self.octaves,
            ratios=self.ratios,
        )


@dataclass(frozen=True)
class A1Report:
    """Sampled evidence about one one-sided constant of a fixed weight.

    The per-triple values are not kept here: the :class:`TripleTable` that
    was scanned keeps the values of each side at the last alpha asked of it,
    and :meth:`TripleTable.samples` at this report's alpha yields those.
    """

    side: str
    alpha: float
    triple_count: int
    constant_lower_bound: float
    best: Optional[TripleSample]
    divergence_flag: bool
    ladder: tuple[tuple[int, float], ...]
    growth_per_octave: float
    witnesses: tuple[TripleSample, ...]
    nonintegrable_count: int

    @property
    def bounded_evidence(self) -> bool:
        return not self.divergence_flag and self.nonintegrable_count == 0


class _SideRows(NamedTuple):
    """The rows of one side: per triple (a, b, c, scale), c - a and the octave of the scale, and where its two windows sit.

    ``averaged`` holds the distinct windows the side integrates, ``peaks``
    the distance peaks of the distinct windows it takes the ess-inf over,
    and ``cells`` per triple the index of each.
    """

    triples: list[tuple[float, float, float, float]]
    widths: list[float]
    octaves: list[int]
    averaged: list[IntegralWindow]
    peaks: list[float]
    cells: list[tuple[int, int]]


class TripleTable:
    """The alpha-free part of a :class:`TripleFamily` on one set.

    Every distinct window (m - s*u, m) or (m, m + s) of the family is
    summarised once, as an :class:`IntegralWindow`, however many ratios,
    octaves and sides ask for it: the side that averages over a window
    integrates it, the side that takes the ess-inf over it reads its
    distance peak.  The rows of a side are built on first use and point into
    that shared set.  :meth:`values` integrates each distinct averaged window
    once and raises each distinct peak to -alpha once.  The table keeps the
    last alpha asked of each side and the values there, so that a report's
    :meth:`samples` at the exponent just scanned reads them again instead of
    integrating again; at any other alpha the values are computed afresh and
    replace the kept ones.
    """

    def __init__(self, e: SetDescription, family: TripleFamily):
        self.e = e
        self.family = family
        self._windows: dict[tuple[float, float], IntegralWindow] = {}
        self._sides: dict[str, _SideRows] = {}
        self._values: dict[str, tuple[float, list[float]]] = {}  # per side, the last (alpha, values)

    def _window(self, bounds: tuple[float, float]) -> IntegralWindow:
        w = self._windows.get(bounds)
        if w is None:
            w = self._windows[bounds] = IntegralWindow.of(self.e, Interval(*bounds))
        return w

    def rows(self, side: str) -> _SideRows:
        """The rows of a one-sided side, built on first use.

        The triples come in runs of one anchor and octave, one per ratio,
        which share their peak window, (m, m + s) on the '+' side and
        (m - s, m) on the '-' side, and their octave: each run looks these up
        once, and each triple only its averaged window.  A degenerate triple
        has a window with lo >= hi, which the window's :class:`Interval` refuses.
        """
        rows = self._sides.get(side)
        if rows is None:
            if side not in ("plus", "minus"):
                raise ValueError("side must be 'plus' or 'minus'")
            plus = side == "plus"
            triples = self.family.triples(side)
            ratios = len(self.family.ratios) or 1
            averaged: dict[tuple[float, float], int] = {}
            peaks: dict[tuple[float, float], int] = {}
            cells, widths, octaves = [], [], []
            for n in range(0, len(triples), ratios):
                run = triples[n:n + ratios]
                a, b, c, s = run[0]
                k = peaks.setdefault((b, c) if plus else (a, b), len(peaks))
                for a, b, c, _ in run:
                    cells.append((averaged.setdefault((a, b) if plus else (b, c), len(averaged)), k))
                    widths.append(c - a)
                octaves += [octave_of(s)] * len(run)
            rows = self._sides[side] = _SideRows(
                triples=triples,
                widths=widths,
                octaves=octaves,
                averaged=[self._window(j) for j in averaged],
                peaks=[self._window(j).peak() for j in peaks],
                cells=cells,
            )
        return rows

    def values(self, side: str, alpha: float) -> list[float]:
        """The triple values of a one-sided side at alpha, in :meth:`TripleFamily.triples` order.

        The list is the one the table keeps for a later call at the same
        alpha: read it, do not change it.
        """
        if side in self._values:
            if self._values[side][0] == alpha:
                return self._values[side][1]
            del self._values[side]  # the old values go before the new ones are built
        rows = self.rows(side)
        nums = [w.integral(alpha) for w in rows.averaged]
        powers = [distance_power(p, alpha) for p in rows.peaks]
        values = [_ratio(nums[i], width, powers[k]) for (i, k), width in zip(rows.cells, rows.widths)]
        self._values[side] = (alpha, values)
        return values

    def samples(self, side: str, alpha: float) -> Iterator[tuple[float, float, float, float, float]]:
        """(a, b, c, value, scale) per triple at alpha, in :meth:`TripleFamily.triples` order,
        plus before minus when two-sided."""
        for one in ("plus", "minus") if side == "two_sided" else (side,):
            for (a, b, c, scale), value in zip(self.rows(one).triples, self.values(one, alpha)):
                yield a, b, c, value, scale


def _scan_side(alpha: float, side: str, table: TripleTable) -> A1Report:
    """One pass over the values finds the first maximum, the non-integrable
    count and the finite per-octave maxima.  A :class:`TripleSample` is
    built for the best triple and for the witnesses only."""
    rows = table.rows(side)
    values = table.values(side, alpha)
    isfinite = math.isfinite
    nonint = 0
    best = -1
    best_value = 0.0
    top: dict[int, float] = {}
    for n, (k, v) in enumerate(zip(rows.octaves, values)):
        if v == math.inf:
            nonint += 1
            continue
        if best < 0 or v > best_value:
            best, best_value = n, v
        if isfinite(v):
            t = top.get(k)
            if t is None or v > t:
                top[k] = v
    triples = rows.triples

    def sample(n: int) -> TripleSample:
        a, b, c, s = triples[n]
        return TripleSample(a, b, c, values[n], s)

    ladder = LadderReport.from_maxima(top)
    witnesses: tuple[TripleSample, ...] = ()
    if ladder.divergent:
        order = sorted((n for n, v in enumerate(values) if isfinite(v)), key=lambda n: (triples[n][3], values[n]))
        rising = rising_prefix_maxima([(n, values[n]) for n in order])
        witnesses = tuple(sample(n) for n, _ in rising[-16:])
    return A1Report(
        side=side,
        alpha=alpha,
        triple_count=len(values),
        constant_lower_bound=best_value,
        best=sample(best) if best >= 0 else None,
        divergence_flag=ladder.divergent,
        ladder=ladder.ladder,
        growth_per_octave=ladder.growth_per_octave,
        witnesses=witnesses,
        nonintegrable_count=nonint,
    )


def _a1_report(alpha: float, side: str, table: TripleTable) -> A1Report:
    """The report of a side at alpha; the two-sided one merges the scans of both one-sided sides."""
    if side in ("plus", "minus"):
        return _scan_side(alpha, side, table)
    plus = _scan_side(alpha, "plus", table)
    minus = _scan_side(alpha, "minus", table)
    dominant = plus if plus.constant_lower_bound >= minus.constant_lower_bound else minus
    merged_ladder = LadderReport.from_samples(list(plus.ladder) + list(minus.ladder))
    return A1Report(
        side="two_sided",
        alpha=alpha,
        triple_count=plus.triple_count + minus.triple_count,
        constant_lower_bound=dominant.constant_lower_bound,
        best=dominant.best,
        divergence_flag=plus.divergence_flag or minus.divergence_flag,
        ladder=merged_ladder.ladder,
        growth_per_octave=max(plus.growth_per_octave, minus.growth_per_octave),
        witnesses=plus.witnesses + minus.witnesses,
        nonintegrable_count=plus.nonintegrable_count + minus.nonintegrable_count,
    )


def _table(e: SetDescription, triples: TripleFamily | TripleTable) -> TripleTable:
    """A family's table on ``e``, or a table of ``e`` built earlier."""
    table = TripleTable(e, triples) if isinstance(triples, TripleFamily) else triples
    if table.e is not e:
        raise ValueError("the triple table was built on another set")
    return table


def a1_constant(w: WeightSpec, side: str, probes: TripleFamily | TripleTable) -> A1Report:
    """Sampled lower bound (and divergence verdict) for the requested side.

    The two-sided constant is the max of the two one-sided scans, mirroring
    the split of the two-sided class into its one-sided halves.  ``probes``
    is a family, or a :class:`TripleTable` of it on ``w.e`` built earlier:
    calls that pass the same table (other exponents, the other side) share
    its window summaries, and each distinct window is summarised once.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    return _a1_report(w.alpha, side, _table(w.e, probes))


# ---------------------------------------------------------------------------
# critical exponent search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalAlphaResult:
    """The bisection's verdict.  ``evidence`` is the scan at the reported
    alpha (at 1/2 when porosity is refuted, None when no step was bounded)."""

    alpha: Optional[float]
    grid: tuple[tuple[float, bool], ...]  # (alpha, bounded evidence)
    monotone: bool
    porosity: SweepResult
    evidence: Optional[A1Report]
    note: str


def critical_alpha(
    e: SetDescription,
    side: str,
    probes: ProbeFamily,
    triples: TripleFamily | TripleTable,
    tol: float = 2.0 ** -8,
) -> CriticalAlphaResult:
    """Largest exponent (within tol) whose scan shows no divergence.

    The caller sizes both families: the search sweeps the porosity probes
    and scans the triples it is given, as :func:`a1_constant` takes them.
    The matching porosity certificates are a precondition: the side's own,
    and for the two-sided side the right and the left one too, all from one
    sweep (:data:`POROSITY_SIDES`).  When a sweep refutes porosity, no
    exponent can work and the search reports 'no alpha found up to the grid
    floor' together with divergence evidence at alpha = 1/2; ``porosity``
    is then the first refuted sweep, and the two-sided note names its side.
    Monotonicity of boundedness in alpha is assumed by the bisection and
    re-checked on the sampled grid afterwards.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    needed = POROSITY_SIDES[side]
    table = _table(e, triples)  # the alpha-free rows of every triple, shared by all bisection steps
    sweeps = sweep_sides(e, probes, needed)
    refuted = next((s for s in needed if not sweeps[s].certified), None)
    sweep = sweeps[refuted or needed[-1]]
    if refuted is not None:
        evidence = a1_constant(WeightSpec(e, 0.5), side, table)
        named = f"{refuted} " if side == "two_sided" else ""
        return CriticalAlphaResult(
            alpha=None,
            grid=(),
            monotone=True,
            porosity=sweep,
            evidence=evidence,
            note=f"no alpha found up to grid floor: {named}porosity refuted on probes",
        )
    grid: list[tuple[float, bool]] = []
    lo, hi = 0.0, 1.0
    best_report: Optional[A1Report] = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the midpoint rounds onto an end: the grid is as fine as floats allow
        report = _a1_report(mid, side, table)
        ok = report.bounded_evidence
        grid.append((mid, ok))
        if ok:
            lo = mid
            best_report = report
        else:
            hi = mid
    passes = [a for a, ok in grid if ok]
    fails = [a for a, ok in grid if not ok]
    monotone = not passes or not fails or max(passes) < min(fails)
    return CriticalAlphaResult(
        alpha=lo if lo > 0.0 else None,
        grid=tuple(grid),
        monotone=monotone,
        porosity=sweep,
        evidence=best_report,
        note="bisection on (0, 1)" if lo > 0.0 else "no alpha found up to grid floor",
    )
