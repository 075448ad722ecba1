"""Window summaries agree bit for bit with the component walk they replaced.

Every query that reads a summary (hole radius, porosity fraction, sweep
table, shortest component, weight integral, distance peak, widest
component) is compared with ``==`` against the generator walk kept in
``tests/oracles.py``, and everything the run index of a finite point set
answers against the slice compression kept there.  Each window is queried
twice, so the second pass answers from the memo of a finite point set.
Every variant's own ``summary`` is compared with the summary built from
its runs, kept there too.
"""

import bisect
import copy
import gc
import math
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from poroweights import (
    CantorIterate,
    Cutoff,
    FinitePoints,
    GeometricPlusLattice,
    Interval,
    Lattice,
    Reflect,
    Translate,
    UnionSet,
    WeightSpec,
    integrate,
    rho,
    sigma_at,
    sweep_parameters,
    to_dict,
)
from poroweights.porosity import GAMMA_GRID, SIDES
import poroweights.sets as sets_module
from poroweights.sets import (
    EXTENTS,
    EmptySetError,
    PointCapExceeded,
    Run,
    _interior,
    _middle_terms,
    _pack_groups,
    largest_component,
    min_component_length,
    window_summary,
)
from poroweights.weights import IntegralWindow, max_distance_on

from . import oracles
from .test_cli import _within

ALPHAS = (0.1, 0.5, 0.9, 1.0, 1.5)
MIDDLES = (1.0 / 3.0, 0.5, 0.2)
GRID_STEPS = (1.0, 0.25, 0.1, 1.0 / 3.0)
LATTICE_STEPS = (1.0 / 3.0, 0.1, 0.7, 1.0)
LATTICE_THIRD = Lattice(0.25, 1.0 / 3.0, "left")
WINDOWS_PER_SET = 6


@st.composite
def windows(draw, pts):
    """Windows whose endpoints are set points, gap midpoints or random values."""
    mids = [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
    endpoint = st.one_of(
        st.sampled_from(pts),
        st.sampled_from(mids) if mids else st.nothing(),
        st.floats(pts[0] - 1.0, pts[-1] + 1.0),
    )
    out = []
    for _ in range(WINDOWS_PER_SET):
        x, y = sorted((draw(endpoint), draw(endpoint)))
        if not x < y:
            y = x + 0.5
        out.append(Interval(x, y))
    return out


def halvable(i):
    return i.lo < i.center < i.hi


def check_window(e, i):
    assert rho(e, i) == oracles.rho_walk(e, i)
    assert min_component_length(e, i) == oracles.min_component_walk(e, i)
    assert max_distance_on(e, i) == oracles.max_distance_walk(e, i)
    assert largest_component(e, i) == oracles.largest_component_walk(e, i)
    assert (window_summary(e, i).first is None) == (not oracles._interior_runs(e, i))
    for alpha in ALPHAS:
        w = WeightSpec(e, alpha)
        assert integrate(w, i) == oracles.integrate_walk(w, i)
    for side in SIDES:
        for g in GAMMA_GRID:
            if side == "two_sided" or halvable(i):
                assert sigma_at(e, i, g, side) == oracles.sigma_at_walk(e, i, g, side)
            else:  # the one-sided items need both halves
                with pytest.raises(ValueError, match="cannot halve"):
                    sigma_at(e, i, g, side)


def check_set(e, ws):
    for _ in range(2):
        for i in ws:
            check_window(e, i)
        for side in SIDES:
            probes = ws if side == "two_sided" else [i for i in ws if halvable(i)]
            if probes:
                table = sweep_parameters(e, probes, side).table
                assert table == oracles.sweep_table_walk(e, probes, side, GAMMA_GRID)
            if len(probes) < len(ws):
                with pytest.raises(ValueError, match="cannot halve"):
                    sweep_parameters(e, ws, side)


class TestAgainstWalk:
    @settings(max_examples=80, deadline=None)
    @given(raw=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40), data=st.data())
    def test_random_float_points(self, raw, data):
        e = FinitePoints(raw)
        check_set(e, data.draw(windows(list(e.points))))

    @settings(max_examples=60, deadline=None)
    @given(
        ks=st.lists(st.integers(-40, 40), min_size=1, max_size=60),
        h=st.sampled_from(GRID_STEPS),
        data=st.data(),
    )
    def test_integer_grid_points(self, ks, h, data):
        e = FinitePoints([k * h for k in ks])
        check_set(e, data.draw(windows(list(e.points))))

    @settings(max_examples=40, deadline=None)
    @given(
        depth=st.integers(0, 8),
        middle=st.sampled_from(MIDDLES),
        span=st.sampled_from([(0.0, 1.0), (-1.5, 2.0)]),
        data=st.data(),
    )
    def test_cantor_iterates(self, depth, middle, span, data):
        e = CantorIterate(span[0], span[1], middle, depth)
        check_set(e, data.draw(windows(list(e.points_in(span[0], span[1])))))

    @settings(max_examples=30, deadline=None)
    @given(
        raw=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
        wrap=st.sampled_from(["reflect", "translate", "lattice", "geometric"]),
        data=st.data(),
    )
    def test_variants_without_memo(self, raw, wrap, data):
        base = FinitePoints(raw)
        e = {
            "reflect": Reflect(base),
            "translate": Translate(base, 0.375),
            "lattice": Lattice(raw[0], 0.75, "right"),
            "geometric": GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right")),
        }[wrap]
        pts = e.points_in(-25.0, 25.0) or [0.0]
        check_set(e, data.draw(windows(pts)))

    def test_windows_too_short_to_halve(self):
        # the midpoint of (0, 5e-324) rounds onto an endpoint; the one-sided
        # items reject such a window by name, everything else answers it
        e = FinitePoints([0.0, 5e-324, -1.0])
        check_set(e, [Interval(0.0, 5e-324), Interval(-1.0, 5e-324), Interval(-1.0, 0.0)])

    def test_run_end_rounding_onto_the_next_point(self):
        # the first three differences are all 0.1, yet start + 0.1 misses the
        # second point and start + 3 * 0.1 lands on the fifth: the first point
        # is a run of its own, and every window's walk must agree with the memo
        pts = [-0.0426891024500626, 0.0573108975499374, 0.1573108975499374,
               0.2573108975499374, 0.25731089754993747, 0.2573108975499375]
        e = FinitePoints(pts)
        ws = [Interval(-0.1, p) for p in pts[1:]] + [Interval(p, 0.3) for p in pts[:-1]]
        check_set(e, ws + [Interval(pts[0], pts[-2]), Interval(pts[1], pts[-2])])


def spelled(runs):
    return [p for r in runs for p in r.points()]


def progression(s, h, n):
    """An arithmetic progression as rounded floats spell it: s + k * h."""
    return [s + k * h for k in range(n)]


def check_one_spelling(e, i):
    """The runs of [lo, hi] list exactly the points that nearest_leq and nearest_geq return."""
    pts = spelled(e.runs_in(i.lo, i.hi))
    assert all(p < q for p, q in zip(pts, pts[1:]))
    for p in pts:
        assert e.nearest_leq(p) == p == e.nearest_geq(p)
    # nothing is left out: from the window's ends and from each point, the
    # next point the queries find is the next point listed
    ends = [math.nextafter(p, math.inf) for p in pts]
    for x, q in zip([i.lo, *ends], [*pts, None]):
        nxt = e.nearest_geq(x)
        assert nxt == q if q is not None else (nxt is None or nxt > i.hi)
    assert spelled(_interior(e.runs_in(i.lo, i.hi), i.lo, i.hi)) == [p for p in pts if i.lo < p < i.hi]


@st.composite
def spelled_sets(draw):
    """Every set variant, with float origins, steps and shifts that round, and nested translates."""
    floats = st.floats(-3.0, 3.0)
    lattice = st.builds(Lattice, floats, st.sampled_from(LATTICE_STEPS), st.sampled_from(EXTENTS))
    prog = st.builds(progression, st.floats(-20.0, 20.0), st.floats(1e-3, 2.0), st.integers(1, 40)).map(FinitePoints)
    base = draw(st.one_of(lattice, prog, st.just(LATTICE_THIRD)))
    kind = draw(st.sampled_from(["plain", "reflect", "translate", "nested", "union", "cutoff", "geometric"]))
    shifts = st.one_of(floats, st.sampled_from([0.1, -1.9]))
    if kind == "reflect":
        return Reflect(base)
    if kind == "translate":
        return Translate(base, draw(shifts))
    if kind == "nested":
        e = Translate(Translate(base, draw(shifts)), draw(shifts))
        return Reflect(e) if draw(st.booleans()) else e
    if kind == "union":
        return UnionSet([base, draw(st.one_of(lattice, prog))])
    if kind == "cutoff":
        return Cutoff(base, draw(floats), draw(st.sampled_from(["right", "left"])))
    if kind == "geometric":
        return GeometricPlusLattice(draw(st.sampled_from([2.0, 1.5, 3.0])), draw(lattice))
    return base


class TestExactRuns:
    """Every point a run spells is a set point, also after a window edge drops its first point."""

    @settings(max_examples=150, deadline=None)
    @given(e=spelled_sets(), data=st.data())
    def test_every_variant_spells_its_points_one_way(self, e, data):
        pts = e.points_in(-10.0, 10.0) or [0.0]
        for i in data.draw(windows(pts)):
            check_one_spelling(e, i)

    def test_a_lattice_lists_its_second_point(self):
        # 0.25 + 1/3 was no member: (0.25 + 1/3) - 0.25 rounds below 1/3, so
        # the search in index space settled on k = 0
        e = Lattice(0.25, 1.0 / 3.0)
        assert 0.25 + 1.0 / 3.0 in e
        check_one_spelling(e, Interval(0.0, 1.0))

    def test_a_reflected_progression_ends_on_its_point(self):
        # the reflected run was spelled from -end, and its last point came out
        # as -1.3779999999999997 where the set has -1.378
        e = FinitePoints(progression(1.378, 0.76, 8))
        assert Reflect(e).points_in(-10.0, 0.0)[-1] == -1.378
        check_one_spelling(Reflect(e), Interval(-10.0, 0.0))

    def test_a_translated_progression_lists_its_members(self):
        # the translated run was spelled from start + 0.1, and three of the
        # floats it listed were no members
        e = Translate(FinitePoints(progression(1.378, 0.76, 8)), 0.1)
        assert all(p in e for p in e.points_in(-20.0, 20.0))
        check_one_spelling(e, Interval(-20.0, 20.0))

    def test_a_translated_lattice_names_each_point_once(self):
        # points_in listed -1.9833333333333334 and -1.6500000000000001, the
        # nearest-point queries -1.9833333333333332 and -1.65
        e = Translate(LATTICE_THIRD, -1.9)
        pts = e.points_in(-3.0, 0.0)
        assert pts == [(0.25 + k * (1.0 / 3.0)) - 1.9 for k in range(-4, 1)]
        assert e.nearest_leq(-1.983333333333333) == pts[3] == -1.9833333333333332
        check_one_spelling(e, Interval(-3.0, 0.0))

    @settings(max_examples=150, deadline=None)
    @given(
        points=st.one_of(
            st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40),
            st.builds(lambda ks, h: [k * h for k in ks],
                      st.lists(st.integers(-40, 40), min_size=1, max_size=60), st.sampled_from(GRID_STEPS)),
            # arithmetic progressions as rounded floats spell them: start + k * step
            st.builds(progression, st.floats(-20.0, 20.0), st.floats(1e-3, 2.0), st.integers(1, 40)),
        ),
        data=st.data(),
    )
    def test_runs_spell_the_set_points(self, points, data):
        e = FinitePoints(points)
        pts = e.points
        for i in data.draw(windows(list(pts))):
            a, b = bisect.bisect_left(pts, i.lo), bisect.bisect_right(pts, i.hi)
            runs = e.runs_in(i.lo, i.hi)
            assert spelled(runs) == list(pts[a:b])
            inside = [p for p in pts if i.lo < p < i.hi]
            assert spelled(_interior(runs, i.lo, i.hi)) == inside

    def test_a_rounded_step_invents_no_point(self):
        e = FinitePoints([5.231952716165237e-185, -1.0])
        assert e.points_in(-60, 60) == [-1.0, 5.231952716165237e-185]

    def test_the_shifted_spelling_is_exact_too(self):
        # start + k * step spells all eight points, but (start + step) + (k-1) * step,
        # what a window edge that dropped the first point and re-spelled the
        # run from its second would leave, misses the 4th and the 7th; runs
        # are trimmed by index, so the interior of (pts[0], pts[7]) keeps k = 1..6
        pts = [-1.048 + k * 0.549 for k in range(8)]
        start, step = pts[0], pts[1] - pts[0]
        assert [start + k * step for k in range(8)] == pts
        assert [k for k in range(1, 8) if (start + step) + (k - 1) * step != pts[k]] == [3, 6]
        e = FinitePoints(pts)
        runs = e.runs_in(pts[0], pts[7])
        assert spelled(runs) == pts
        assert spelled(_interior(runs, pts[0], pts[7])) == pts[1:7]
        assert window_summary(e, Interval(pts[0], pts[7])).last == pts[6]
        check_set(e, [Interval(pts[0], pts[7]), Interval(pts[0], pts[4]), Interval(pts[0], 3.0)])


def check_shares(s, lo, hi, *others):
    """The shares of the summary s of (lo, hi) against :class:`oracles.LengthProfile`, bit for bit,
    one threshold at a time and all at once, against those of the other
    summaries of the window, and :func:`check_lower` on the same thresholds.

    The thresholds are 0, every component length, the floats either side
    of each, the longest length doubled and inf, in a shuffled order.
    """
    profile = oracles.LengthProfile.of(s, lo, hi)
    lengths = profile.lengths
    ts = [0.0, math.inf, 2.0 * max(lengths, default=1.0), *lengths,
          *(math.nextafter(t, math.inf) for t in lengths), *(math.nextafter(t, 0.0) for t in lengths)]
    ts = ts[1::2] + ts[::-2]
    want = [repr(profile.share(t)) for t in ts]
    assert [repr(x) for x in s.shares(lo, hi, ts)] == want
    assert [repr(s.shares(lo, hi, (t,))[0]) for t in ts] == want
    check_lower(s, lo, hi, profile.share, sorted(ts), ts)
    for other in others:
        assert [repr(x) for x in other.shares(lo, hi, ts)] == want


def check_lower(s, lo, hi, share, grid, first=()):
    """``s.lower`` on the ascending thresholds ``grid`` (``rho_ref`` 1.0) against
    ``share``, the plain read of one threshold: it returns the shares at
    ``first`` and leaves each entry below ``top`` at the least of its value
    and its share, and the entries from ``top`` on as they were.

    The columns are the shares themselves (nothing lowers), the float just
    above each share (every entry lowers: a share bound on the wrong side of
    a share, by even one rounding, would skip one) and a mix of those, the
    float below each share and inf, on the whole grid and on its lower half.
    """
    shares = [share(t) for t in grid]
    up = [math.nextafter(v, math.inf) for v in shares]
    down = [math.nextafter(v, -math.inf) for v in shares]
    mixed = [(v, u, d, math.inf)[k % 4] for k, (v, u, d) in enumerate(zip(shares, up, down))]
    for column in (shares, up, mixed):
        for top in (len(grid), len(grid) // 2):
            low = list(column)
            got = s.lower(lo, hi, low, top, grid, 1.0, first)
            assert [repr(x) for x in got] == [repr(share(t)) for t in first]
            want = [min(x, v) for x, v in zip(column[:top], shares)] + column[top:]
            assert [repr(x) for x in low] == [repr(x) for x in want]


def run_fields(runs):
    """The fields of each run, as a string: repr tells -0.0 from 0.0."""
    return repr([(r.base, r.step, r.first, r.count, r.shift) for r in runs])


def check_indexed(e, i):
    """Runs, summary, interior runs, peak, profile and integrals against the slice compression."""
    lo, hi = i.lo, i.hi
    assert run_fields(e.runs_in(lo, hi)) == run_fields(oracles.compressed_runs(e, lo, hi))
    got, want = window_summary(e, i), oracles.compressed_summary(e, i)
    assert repr((got.first, got.last, got.longest, got.shortest)) == \
        repr((want.first, want.last, want.longest, want.shortest))
    assert run_fields(got.interior()) == run_fields(want.interior())
    assert got.peak() == want.peak()
    check_shares(got, lo, hi, want)
    window = IntegralWindow.of(e, i)
    fresh = window._replace(summary=want)
    assert window.peak() == fresh.peak()
    for alpha in ALPHAS:
        for _ in range(2):  # the second reads the memoised partials
            assert window.integral(alpha) == fresh.integral(alpha)


@st.composite
def indexed_sets(draw):
    """Finite point sets whose runs are long, rounded, dyadic or short."""
    kind = draw(st.sampled_from(["near", "dyadic", "cantor", "random"]))
    if kind == "cantor":
        span = draw(st.sampled_from([(0.0, 1.0), (-1.5, 2.0)]))
        return CantorIterate(*span, draw(st.sampled_from([1.0 / 3.0, 0.5])), draw(st.integers(0, 10)))
    extra = draw(st.lists(st.floats(-30.0, 30.0), max_size=6))
    if kind == "near":
        # start + k * step spells these, but not (start + step) + (k - 1) * step
        n = draw(st.integers(3, 60))
        pts = draw(st.one_of(
            st.just(progression(-1.048, 0.549, n)),
            st.builds(progression, st.floats(-20.0, 20.0), st.floats(1e-3, 2.0), st.just(n)),
            st.just([-1.0, -0.0, 1.0, 2.0, 3.0]),
        ))
    elif kind == "dyadic":
        runs = st.tuples(st.integers(-64, 64), st.integers(0, 6), st.integers(3, 12))
        pts = [c / 8.0 + k * 2.0 ** -e for c, e, n in draw(st.lists(runs, min_size=1, max_size=4))
               for k in range(n)]
    else:
        pts = []
    return FinitePoints(pts + extra) if pts or extra else FinitePoints([0.0])


@st.composite
def point_windows(draw, pts):
    """The windows of :func:`windows`, and windows whose two ends are set points."""
    out = draw(windows(pts))
    for _ in range(3):
        a, b = sorted(draw(st.integers(0, len(pts) - 1)) for _ in range(2))
        out.append(Interval(pts[a], pts[b]) if a < b else Interval(pts[a], pts[a] + 0.5))
    return out


class TestRunIndex:
    """The run index of a finite point set agrees bit for bit with compressing each window's slice."""

    @settings(max_examples=120, deadline=None)
    @given(e=indexed_sets(), data=st.data())
    def test_indexed_windows_match_the_slice_compression(self, e, data):
        ws = data.draw(point_windows(list(e._pts())))
        for _ in range(2):
            for i in ws:
                check_indexed(e, i)

    def test_a_wider_window_extends_a_run_a_narrower_one_cut(self):
        # the first window cuts the 40-point run after 5 points; the second
        # must go on from there, not stop where the first window did
        pts = progression(-1.048, 0.549, 40)
        e = FinitePoints(pts)
        for hi in (pts[4], pts[20], pts[39], pts[9]):
            check_indexed(e, Interval(pts[0], hi))
            check_indexed(e, Interval(-2.0, hi))
        assert [r.count for r in e.runs_in(-2.0, 30.0)] == [40]


TABLE_ALPHAS = (0.1, 0.5, 0.95, 1.0, 1.5)


def trimmed_windows(pts, rng, count=12):
    """Windows with each end on a set point or off the set, in all four
    combinations, plus random windows and one inside a gap."""
    def off(k):  # a value strictly between pts[k - 1] and pts[k], or beyond an end
        if k == 0:
            return pts[0] - 0.25
        if k == len(pts):
            return pts[-1] + 0.25
        return pts[k - 1] + 0.5 * (pts[k] - pts[k - 1])

    out = []
    n = len(pts)
    for _ in range(count):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        out += [Interval(pts[a], pts[b]) if a < b else Interval(pts[a], pts[a] + 0.5),
                Interval(pts[a], off(b + 1)), Interval(off(a), pts[b]) if a < b else Interval(off(a), pts[a]),
                Interval(off(a), off(b + 1))]
        lo, hi = sorted(rng.uniform(pts[0] - 1.0, pts[-1] + 1.0) for _ in range(2))
        if lo < hi:
            out.append(Interval(lo, hi))
    if n > 1:
        out.append(Interval(off(1), pts[0] + 0.75 * (pts[1] - pts[0])))
    return out


def table_sets():
    """Cantor iterates of depths 3-8 at three middle fractions, and random finite sets with a point at -0.0."""
    for m in MIDDLES:
        for depth in range(3, 9):
            yield f"cantor-{m:.3f}-{depth}", CantorIterate(0.0, 1.0, m, depth)
    yield "cantor-shifted", CantorIterate(-1.5, 2.0, 1.0 / 3.0, 5)
    for seed in range(4):
        rng = random.Random(seed)
        pts = [rng.uniform(-4.0, 4.0) for _ in range(24)]
        # -0.0 inside a run (-0.5 + 2 * 0.25 spells it 0.0) or starting one after a span
        pts += [-0.5, -0.25, -0.0, 0.25, 0.5] if seed % 2 else [-3.0, -0.0, 0.5, 1.0]
        yield f"random-{seed}", FinitePoints([-0.0, *pts])


class TestGapTables:
    """A memoised window of a finite set integrates and peaks from its run
    index's gap tables; the run walk of its interior runs must agree bit for
    bit, at every exponent, and with the exponent changing between calls."""

    @pytest.mark.parametrize("name", [name for name, _ in table_sets()])
    def test_integral_and_peak_match_the_run_walk(self, name):
        e = dict(table_sets())[name]
        pts = list(e._pts())
        assert isinstance(window_summary(e, Interval(pts[0] - 1.0, pts[-1] + 1.0))._source, tuple)
        for i in trimmed_windows(pts, random.Random(name)):
            window = IntegralWindow.of(e, i)
            assert window.peak() == oracles.run_walk_peak(window)
            for _ in range(2):  # every call changes alpha; the second pass reads the memoised partials
                for alpha in TABLE_ALPHAS:
                    assert window.integral(alpha) == oracles.run_walk_integral(window, alpha), (i, alpha)

    def test_infinite_integrals_are_kept(self):
        e = CantorIterate(0.0, 1.0, 1.0 / 3.0, 4)
        window = IntegralWindow.of(e, Interval(0.1, 0.9))
        for alpha in (1.0, 0.5, 1.5, 1.0):
            want = math.inf if alpha >= 1.0 else oracles.run_walk_integral(window, alpha)
            assert window.integral(alpha) == want

    def test_a_zero_entry_is_computed_again(self):
        # 0.0 marks an unknown entry; a term that is truly 0.0 is only recomputed
        e = FinitePoints([0.0, 1.0, 3.0, 4.0, 8.0])
        window = IntegralWindow.of(e, Interval(-1.0, 9.0))
        want = window.integral(0.5)
        index = e._index()
        alpha, spans, cells = index._integrals
        assert alpha == 0.5 and any(spans) and any(cells)
        for table in (spans, cells):
            for k in range(len(table)):
                table[k] = 0.0
        e.__dict__.pop("_windows")  # forget the memoised partials, keep the index
        assert IntegralWindow.of(e, Interval(-1.0, 9.0)).integral(0.5) == want

    def test_a_cell_term_is_computed_once_per_gap_and_exponent(self, monkeypatch):
        # the cell terms of memoised windows come from the index's table at
        # their exponent: windows summarised afresh at the same exponent
        # compute none again, and one per gap at most on a new exponent
        from poroweights.muckenhoupt import TripleFamily, TripleTable, a1_constant

        e = CantorIterate(0.0, 1.0, 1.0 / 3.0, 8)
        family = TripleFamily.default(e, Interval(-2.0, 2.0), octaves=8, anchor_cap=16)
        calls = []
        cell_integral = sets_module._cell_integral

        def counted(step, alpha):
            calls.append(alpha)
            return cell_integral(step, alpha)

        monkeypatch.setattr(sets_module, "_cell_integral", counted)
        for alpha in (0.5, 0.9):
            a1_constant(WeightSpec(e, alpha), "two_sided", TripleTable(e, family))
            computed = calls.count(alpha)
            assert 0 < computed <= len(e._index().gaps)
            e.__dict__.pop("_windows")  # forget the memoised windows and their partials, keep the index
            a1_constant(WeightSpec(e, alpha), "two_sided", TripleTable(e, family))
            assert calls.count(alpha) == computed

    def test_a1_builds_no_run_and_one_table_per_alpha(self, monkeypatch):
        from poroweights.muckenhoupt import TripleFamily, TripleTable, a1_constant

        e = CantorIterate(0.0, 1.0, 1.0 / 3.0, 8)
        table = TripleTable(e, TripleFamily.default(e, Interval(-2.0, 2.0), octaves=8, anchor_cap=16))

        def no_runs(*args):
            raise AssertionError("a memoised window built its interior runs")

        seen = []
        integral_terms = sets_module._RunIndex.integral_terms

        def counted(index, *args):
            out = integral_terms(index, *args)
            seen.append(index._integrals)  # keeps every table alive, so ids stay distinct
            return out

        monkeypatch.setattr(sets_module._RunIndex, "interior", no_runs)
        monkeypatch.setattr(sets_module._RunIndex, "integral_terms", counted)
        calls = []
        for alpha in (0.5, 0.5, 0.9, 0.25, 0.9):
            a1_constant(WeightSpec(e, alpha), "two_sided", table)
            calls.append(len(seen))
        built = {id(t): a for a, t, _ in seen}
        assert list(built.values()) == [0.5, 0.9, 0.25]
        # a repeated alpha reads every window's memoised partials and touches no table
        assert calls[1] == calls[0] > 100 and calls[4] == calls[3]


class TestMemoHygiene:
    def _queried(self, e):
        for i in (Interval(0.0, 1.0), Interval(0.25, 0.75), Interval(-1.0, 1.0 / 3.0)):
            rho(e, i)
            sigma_at(e, i, 0.25, "right")
            integrate(WeightSpec(e, 0.5), i)
        assert e.__dict__.get("_windows") and e.__dict__.get("_runs"), "queries should have filled the memo"
        return e

    def test_cantor_pickles_like_a_fresh_instance(self):
        fresh = CantorIterate(0.0, 1.0, 1.0 / 3.0, 6)
        used = self._queried(CantorIterate(0.0, 1.0, 1.0 / 3.0, 6))
        assert pickle.dumps(used) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(used))
        assert clone == used and not {"_windows", "_runs"} & clone.__dict__.keys()
        assert rho(clone, Interval(0.0, 1.0)) == rho(fresh, Interval(0.0, 1.0))

    def test_value_semantics_ignore_the_memo(self):
        for make in (lambda: CantorIterate(0.0, 1.0, 0.5, 4), lambda: FinitePoints([0.0, 0.5, 2.0])):
            fresh, used = make(), self._queried(make())
            assert used == fresh
            assert hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)
            assert to_dict(used) == to_dict(fresh)
            assert pickle.dumps(used) == pickle.dumps(fresh)
            assert not {"_windows", "_runs"} & copy.deepcopy(used).__dict__.keys()

    def test_geometric_caches_stay_out_of_its_value(self):
        def make():
            return GeometricPlusLattice(3.0, Lattice(0.0, 1.0, "right"))

        fresh, used = make(), make()
        for i in (Interval(-100.0, 2.5), Interval(-1e6, -5.0)):
            rho(used, i)
            integrate(WeightSpec(used, 0.5), i)
        assert used.__dict__.get("_windows") and used.__dict__.get("_geom"), "queries should have filled the caches"
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert not {"_windows", "_geom"} & copy.deepcopy(used).__dict__.keys()
        ref = weakref.ref(used)
        del used
        assert ref() is None

    def test_memo_is_freed_with_its_set(self):
        e = self._queried(CantorIterate(0.0, 1.0, 1.0 / 3.0, 6))
        held = window_summary(e, Interval(0.25, 0.75))  # holds the set's run index, not the set
        assert isinstance(held._source, tuple)
        # the run index takes no weak reference; its peak table, an array, does
        ref, table = weakref.ref(e), weakref.ref(e._index()._peaks)
        gc.disable()
        try:
            del e  # no reference cycle: freed without waiting for the cyclic collector
            assert ref() is None
            assert held.peak() > 0.0
            del held  # nor does a memo on the index keep it in a cycle with its summaries
            assert table() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("make", [lambda: CantorIterate(0.0, 1.0, 1.0 / 3.0, 4),
                                      lambda: FinitePoints([0.0, 0.2, 0.3, 0.4, 0.5, 0.8, 1.0])],
                             ids=["cantor", "finite"])
    def test_a_summary_outlives_its_set(self, make):
        # a memoised summary of a temporary set reads its derived values from
        # the run index it holds, as the same window of a live, equal set does
        window = Interval(0.1, 0.9)
        orphan, live = window_summary(make(), window), window_summary(make(), window)
        assert isinstance(orphan._source, tuple) and orphan is not live
        assert orphan.peak() == live.peak()
        thresholds = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5]
        assert orphan.shares(window.lo, window.hi, thresholds) == live.shares(window.lo, window.hi, thresholds)
        assert list(map(repr, orphan.interior())) == list(map(repr, live.interior()))
        assert orphan.integral_terms(0.5) == live.integral_terms(0.5)

    def test_concurrent_queries_agree(self):
        """The memo takes no lock: racing threads may build an entry twice, never a wrong one."""
        ws = [Interval(0.05 * k, 0.05 * k + 0.3 + 0.01 * k) for k in range(14)]

        def answers(e):
            return [(rho(e, i), sigma_at(e, i, 0.125, "right"), integrate(WeightSpec(e, 0.5), i),
                     max_distance_on(e, i)) for i in ws]

        expected = answers(CantorIterate(0.0, 1.0, 1.0 / 3.0, 7))
        shared = CantorIterate(0.0, 1.0, 1.0 / 3.0, 7)
        results: list = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(answers(shared))) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(threads)

    def test_memo_key_is_the_index_window_and_two_edge_bits(self):
        e = FinitePoints([0.0, 1.0, 2.0, 3.0, 5.0])
        base = window_summary(e, Interval(-0.5, 5.5))
        # same points (0..5), neither edge on a point: one entry
        assert window_summary(e, Interval(-0.25, 5.25)) is base
        # one part of the key differs: first point on lo, last point on hi, the index window
        for i in (Interval(0.0, 5.5), Interval(-0.5, 5.0), Interval(0.5, 5.5)):
            assert window_summary(e, i) is not base
        both = window_summary(e, Interval(0.0, 5.0))
        assert window_summary(e, Interval(0.0, 5.0)) is both and both is not base
        assert (both.first, both.last) == (1.0, 3.0) and (base.first, base.last) == (0.0, 5.0)

    def test_empty_windows_share_no_state(self):
        e = FinitePoints([0.0])
        s = window_summary(e, Interval(1.0, 2.0))
        assert s.first is None and s.longest == 0.0 and s.shortest == math.inf and s.peak() == 0.0
        for alpha in ALPHAS:
            integrate(WeightSpec(e, alpha), Interval(1.0, 2.0))
        assert s._groups is None and not s._integrals


# ---------------------------------------------------------------------------
# each variant's summary against the summary built from its runs
# ---------------------------------------------------------------------------

# middle lengths that repeat, that are subnormal, and that are huge (a few
# terms of the largest overflow fsum, or sum to inf)
ITEM_LENGTHS = (1.0, 0.5, 1.0 / 3.0, 0.1, 0.1 + 0.2, 5e-324, 1e-310, 2.0 ** -1022, 1e300, 2.0 ** 1000,
                1.7976931348623157e308)


def packed(items):
    """The bytes of ``_pack_groups(items)`` and of the sorted grouping, or the type of the error each raises."""
    def run(pack):
        try:
            return pack(items).tobytes()
        except (OverflowError, ValueError) as exc:
            return type(exc)
    return run(_pack_groups), run(oracles.pack_groups_sorted)


item_lists = st.lists(
    st.tuples(st.one_of(st.sampled_from(ITEM_LENGTHS), st.floats(5e-324, 1e300)), st.integers(1, 4)),
    max_size=40,
).map(lambda raw: [(length, length * m) for length, m in raw])

run_lists = st.lists(st.builds(
    Run,
    st.one_of(st.sampled_from((0.0, -0.0, 0.3, -1e300, 1e300)), st.floats(-1e6, 1e6)),
    st.one_of(st.sampled_from(ITEM_LENGTHS), st.floats(0.0, 10.0)),
    st.integers(-3, 3),
    st.integers(1, 5),
    st.sampled_from(((), (0.375,), (-0.0, 1e-310))),
), max_size=8)


class TestGroupedTerms:
    """A summary's middle terms, listed in one traversal and grouped in one dict
    pass, equal the item traversal and the sorted grouping they replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(items=item_lists)
    # terms past the float range, in an order where fsum returns inf rather than overflow
    @example(items=[(1.7976931348623157e308, 1.7976931348623157e308), (1.7976931348623157e308, math.inf),
                    (1.7976931348623157e308, 1.7976931348623157e308)])
    def test_the_one_pass_grouping_matches_the_sorted_one(self, items):
        got, want = packed(items)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(runs=run_lists)
    def test_the_inlined_traversal_matches_the_items(self, runs):
        assert repr(_middle_terms(runs)) == repr(oracles.middle_terms_walk(runs))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_the_runs_of_every_variant(self, data):
        e, marks = data.draw(summary_variants())
        for lo, hi in data.draw(summary_windows(e, marks)):
            s = outcome(lambda: e.summary(lo, hi))
            if isinstance(s, type):
                continue
            terms = _middle_terms(s.interior())
            assert repr(terms) == repr(oracles.middle_terms_walk(s.interior()))
            got, want = packed(terms)
            assert got == want

    @pytest.mark.parametrize("name", [name for name, _ in table_sets()])
    def test_memoised_windows_of_cantor_iterates_and_random_sets(self, name):
        e = dict(table_sets())[name]
        pts = list(e._pts())
        kept = 0
        for i in trimmed_windows(pts, random.Random(name)):
            s = window_summary(e, i)
            if not s._kept():  # no interior point: the empty summary
                continue
            kept += 1
            items = s._indexed(sets_module._RunIndex.middle_terms)
            runs = s.interior()
            assert repr(_middle_terms(runs)) == repr(oracles.middle_terms_walk(runs))
            # the index lists the same items in another order
            assert repr(sorted(items)) == repr(sorted(_middle_terms(runs)))
            got, want = packed(items)
            assert got == want and isinstance(got, bytes)
            assert got == _pack_groups(_middle_terms(runs)).tobytes()
        assert kept > 30


SUMMARY_ORIGINS = (0.0, 0.3, -1.7, 1.0 / 3.0, 0.25)
SUMMARY_STEPS = (1.0, 0.1, 1.0 / 3.0, 0.7)
# magnitudes where a unit or decimal step is below the float resolution
HUGE = (2.0 ** 53, 1e17, 2.0 ** 60, 1e300)
SUMMARY_ALPHAS = (0.25, 0.5, 0.9)


def outcome(query):
    """What a summary query returns, or the type of the error it raises."""
    try:
        return query()
    except (ValueError, PointCapExceeded) as exc:
        return type(exc)


def check_variant_summary(e, lo, hi):
    """``e.summary`` against ``oracles.summary_from_runs``: the same error, or
    the same ends, lengths, interior runs, peak, shares and integrals."""
    want = outcome(lambda: oracles.summary_from_runs(e, lo, hi))
    got = outcome(lambda: e.summary(lo, hi))
    if isinstance(want, type):
        assert got is want
        return
    assert repr((got.first, got.last, got.longest, got.shortest)) == \
        repr((want.first, want.last, want.longest, want.shortest))
    assert run_fields(got.interior()) == run_fields(want.interior())
    assert repr(got.peak()) == repr(want.peak())
    check_shares(got, lo, hi, want)
    window = outcome(lambda: IntegralWindow.of(e, Interval(lo, hi)))
    if isinstance(window, type):  # a nearest-point search out of resolution
        return
    fresh = window._replace(summary=want)
    # an empty set raises the same error on both sides
    assert repr(outcome(window.peak)) == repr(outcome(fresh.peak))
    for alpha in SUMMARY_ALPHAS:
        assert repr(outcome(lambda: window.integral(alpha))) == repr(outcome(lambda: fresh.integral(alpha)))


@st.composite
def summary_windows(draw, e, marks):
    """Windows whose ends are set points, the given marks, floats or huge magnitudes."""
    pts = e.points_in(-40.0, 40.0) or [0.0]
    end = st.one_of(
        st.sampled_from(pts),
        st.sampled_from(marks),
        st.floats(-45.0, 45.0),
        st.builds(lambda x, sign: sign * x, st.sampled_from(HUGE), st.sampled_from((-1.0, 1.0))),
    )
    out = []
    for _ in range(WINDOWS_PER_SET):
        x, y = sorted((draw(end), draw(end)))
        if not x < y:
            y = math.nextafter(x, math.inf)
        out.append((x, y))
    return out


lattices = st.builds(Lattice, st.sampled_from(SUMMARY_ORIGINS), st.sampled_from(SUMMARY_STEPS),
                     st.sampled_from(EXTENTS))


def geometric_chain(ratio):
    """The geometric points -ratio**m, nearest first, as the chain ``v = ratio; v *= ratio``
    spells them, up to the last finite one (for ratios 1.5 and 3 the powers round)."""
    out = []
    v = ratio
    while v < math.inf:
        out.append(-v)
        v *= ratio
    return out


@st.composite
def summary_variants(draw):
    """A set with a summary of its own, and the marks its windows should end on."""
    kind = draw(st.sampled_from(["lattice", "reflect-lattice", "reflect-finite", "reflect-cantor",
                                 "geometric", "translate", "cutoff", "union"]))
    if kind in ("lattice", "reflect-lattice"):
        latt = draw(lattices)
        if kind == "lattice":
            return latt, [latt.origin, *(Run.spell(latt.origin, latt.step, k) for k in (-2, -1, 1, 2))]
        return Reflect(latt), [-latt.origin, -Run.spell(latt.origin, latt.step, 1)]
    if kind == "reflect-finite":
        raw = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
        return Reflect(FinitePoints(raw)), [-x for x in raw]
    if kind == "reflect-cantor":
        # both iterates hold 0.0; mirrored, it is the first or the last interior point
        span = draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.0)]))
        return Reflect(CantorIterate(*span, 1.0 / 3.0, draw(st.integers(0, 4)))), [0.0, -0.0]
    if kind == "geometric":
        ratio = draw(st.sampled_from([2.0, 3.0, 1.5]))
        latt = draw(st.one_of(
            # right of the geometric points, or interleaving them
            st.builds(Lattice, st.sampled_from(SUMMARY_ORIGINS), st.sampled_from(SUMMARY_STEPS),
                      st.sampled_from(["right", "two_sided"])),
            # touching: starting on the geometric point -ratio
            st.builds(Lattice, st.just(-ratio), st.sampled_from(SUMMARY_STEPS), st.just("right")),
            # points that coincide with the geometric points -2, -4, -8, ...
            st.just(Lattice(0.0, 2.0, "two_sided")),
            st.just(Lattice(-8.0, 2.0, "right")),
        ))
        # windows ending on geometric points, near -ratio and out to the last finite one
        chain = geometric_chain(ratio)
        far = draw(st.lists(st.sampled_from(chain), min_size=2, max_size=4))
        return GeometricPlusLattice(ratio, latt), [*chain[:4], *far, chain[-1], latt.origin]
    latt = draw(lattices)
    if kind == "translate":
        return Translate(latt, draw(st.sampled_from([0.375, -1.9, 0.1]))), [latt.origin]
    if kind == "cutoff":
        point = draw(st.sampled_from([0.0, 0.3, -2.5]))
        return Cutoff(latt, point, draw(st.sampled_from(["right", "left"]))), [point]
    return UnionSet([latt, FinitePoints([-5.5, 0.05, 7.25])]), [-5.5, 0.05, 7.25]


class TestVariantSummaries:
    """Each variant's ``summary`` equals the summary of its trimmed runs, and raises where it raises."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_variant_matches_its_runs(self, data):
        e, marks = data.draw(summary_variants())
        for lo, hi in data.draw(summary_windows(e, marks)):
            check_variant_summary(e, lo, hi)

    @pytest.mark.parametrize("extent", EXTENTS)
    @pytest.mark.parametrize("step", SUMMARY_STEPS)
    def test_lattice_windows_on_points_and_the_origin(self, extent, step):
        e = Lattice(0.3, step, extent)
        marks = [0.3, *(Run.spell(0.3, step, k) for k in (-3, -1, 1, 3)), -0.5, 2.0, 1e17, -1e17]
        for lo in marks:
            for hi in marks:
                if lo < hi:
                    check_variant_summary(e, lo, hi)
                    check_variant_summary(Reflect(e), -hi, -lo)

    def test_a_mirrored_zero_is_spelled_as_the_runs_spell_it(self):
        e = Reflect(CantorIterate(0.0, 1.0, 1.0 / 3.0, 2))
        got = e.summary(-2.0, 0.5)
        assert repr(got.last) == "0.0" == repr(oracles.summary_from_runs(e, -2.0, 0.5).last)
        check_variant_summary(e, -2.0, 0.5)

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("origin, step", [(0.0, 1.0), (0.3, 0.7), (-1.7, 1.0 / 3.0), ("touching", 0.1),
                                              (-8.0, 2.0)])
    def test_geometric_windows_on_the_chain_and_the_lattice(self, ratio, origin, step):
        # right of the geometric points, touching them at -ratio, or (-8 always,
        # -1.7 for ratio 1.5) interleaving them; a window may hold one
        # geometric point, so the span to the lattice is its longest component
        e = GeometricPlusLattice(ratio, Lattice(-ratio if origin == "touching" else origin, step, "right"))
        chain = geometric_chain(ratio)
        latt = e.lattice
        marks = [*chain[:4], chain[12], 0.5 * (chain[0] + chain[1]),
                 *(Run.spell(latt.origin, step, k) for k in (0, 1)), 2.5]
        for lo in marks:
            for hi in marks:
                if lo < hi:
                    check_variant_summary(e, lo, hi)
                    check_variant_summary(Reflect(e), -hi, -lo)

    def test_an_empty_cutoff_raises_where_its_runs_do(self):
        # a right lattice from 0.3 cut to (-inf, 0] keeps no point: peaks and
        # integrals raise, on the program's window and on the oracle's
        e = Cutoff(Lattice(0.3, 1.0, "right"), 0.0, "left")
        for lo, hi in ((-2.0, -1.0), (-1.0, 5.0), (0.0, 0.3), (-1e17, -1.0)):
            check_variant_summary(e, lo, hi)
            assert outcome(IntegralWindow.of(e, Interval(lo, hi)).peak) is EmptySetError

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
    def test_a_regrowth_keeps_every_window_exact(self, ratio):
        # the cached geometric points grow at the front, so the index of every
        # point shifts: a memo keyed by those indices would hand a window of the
        # grown points the summary of another window.  So would a key that packs
        # indices counted from the end with a multiplier of the point count, as
        # the count changes: every window between two marks not left of chain[7]
        # is read while the points grow to 8, and again after
        e = GeometricPlusLattice(ratio, Lattice(0.0, 1.0, "right"))
        chain = geometric_chain(ratio)[:24]
        mids = [0.5 * (p + q) for p, q in zip(chain, chain[1:])]
        spans = [(mids[k + 2], mids[k]) for k in range(len(mids) - 2)]
        spans += [(chain[k + 3], chain[k]) for k in range(len(chain) - 3)]
        marks = sorted(p for p in chain + mids if p >= chain[7])
        near = [(lo, hi) for lo in reversed(marks) for hi in marks if lo < hi]
        for lo, hi in near:
            check_variant_summary(e, lo, hi)
        held = len(e.__dict__["_geom"][0].pts)
        check_variant_summary(e, chain[-1], 2.5)
        assert len(e.__dict__["_geom"][0].pts) > held
        for lo, hi in spans + near:
            check_variant_summary(e, lo, hi)
            check_variant_summary(e, lo, 2.5)

    def test_the_chain_ends_at_its_last_finite_point(self):
        # no point lies below it, and a search from -inf ends there
        e = GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right"))
        chain = geometric_chain(2.0)
        assert chain[-1] == -2.0 ** 1023
        assert e.nearest_leq(-1.7e308) is None and e.nearest_geq(-math.inf) == chain[-1]
        assert e.points_in(-math.inf, -1.0) == chain[::-1]
        check_variant_summary(e, -math.inf, 2.5)

    def test_past_the_cap_a_query_raises(self, monkeypatch):
        # the cached points stop at the cap: a query that needs more raises,
        # where it walked the chain on from the cache's end for every query
        monkeypatch.setattr(sets_module, "DEFAULT_POINT_CAP", 8)
        e = GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right"))
        chain = geometric_chain(2.0)
        assert chain[7] == -256.0
        for lo, hi in ((-100.0, 3.5), (chain[7], chain[2]), (-5.0, 3.5)):
            check_variant_summary(e, lo, hi)
        past = (lambda: e.summary(-1e6, 3.5), lambda: e.summary(chain[30], chain[2]),
                lambda: e.runs_in(-1e6, -1000.0), lambda: e.points_in(-1e6, -1.0),
                lambda: e.nearest_leq(-257.0), lambda: e.nearest_geq(-1e6))
        for query in past:
            with pytest.raises(PointCapExceeded, match=r"above the cap of 8$"):
                query()
        assert len(e.__dict__["_geom"][0].pts) == 8

    def test_a_window_far_past_the_cap_raises_at_once(self):
        # ratio 1.0001: the million cached points end near -2.7e43, and a
        # window reaching -1e300 needs about 6.9 million; walking them for
        # each query ran for minutes
        e = GeometricPlusLattice(1.0001, Lattice(0.0, 1.0, "right"))
        with _within(10):
            for query in (lambda: e.summary(-1e300, 0.0), lambda: e.runs_in(-1e300, -1.0),
                          lambda: e.nearest_geq(-math.inf)):
                with pytest.raises(PointCapExceeded) as raised:
                    query()
                assert raised.value.count > sets_module.DEFAULT_POINT_CAP
        assert len(e.__dict__["_geom"][0].pts) == sets_module.DEFAULT_POINT_CAP

    def test_a_resolution_error_where_the_runs_raise_it(self):
        for e in (Lattice(0.0, 1.0, "two_sided"), Reflect(Lattice(0.0, 0.1, "left")),
                  GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right"))):
            with pytest.raises(ValueError):
                oracles.summary_from_runs(e, 0.0, 1e17)
            with pytest.raises(ValueError):
                e.summary(0.0, 1e17)
        # a right lattice searches no lower end left of its origin, so it answers
        check_variant_summary(Lattice(0.0, 1.0, "right"), -1e300, 5.5)


@st.composite
def share_sets(draw):
    """A set of any variant, and the marks its windows should end on."""
    kind = draw(st.sampled_from(["lattice", "cantor", "finite", "variant"]))
    if kind == "lattice":
        e = Lattice(draw(st.sampled_from(SUMMARY_ORIGINS)), draw(st.sampled_from((1.0, 0.1, 1.0 / 3.0))),
                    draw(st.sampled_from(EXTENTS)))
        return e, [e.origin, *(Run.spell(e.origin, e.step, k) for k in (-1, 1))]
    if kind == "cantor":
        span = draw(st.sampled_from([(0.0, 1.0), (-1.5, 2.0)]))
        return CantorIterate(*span, draw(st.sampled_from(MIDDLES)), draw(st.integers(0, 6))), list(span)
    if kind == "finite":
        raw = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
        return FinitePoints(raw), raw
    return draw(summary_variants())


@st.composite
def share_windows(draw, e, marks):
    """The windows of :func:`summary_windows`, and two between neighbouring points, which hold none."""
    out = draw(summary_windows(e, marks))
    pts = e.points_in(-40.0, 40.0)
    if len(pts) >= 2:
        k = draw(st.integers(0, len(pts) - 2))
        p, q = pts[k], pts[k + 1]
        out += [(p, q), (p, 0.5 * (p + q))]
    return out


class TestShares:
    """``WindowSummary.shares`` equals the length profile it replaced, bit for bit, on every variant."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_variant_matches_the_length_profile(self, data):
        e, marks = data.draw(share_sets())
        for lo, hi in data.draw(share_windows(e, marks)):
            s = outcome(lambda: e.summary(lo, hi))
            if not isinstance(s, type):  # where the runs raise, TestVariantSummaries checks the error
                check_shares(s, lo, hi)

    def test_thresholds_at_zero_at_a_length_and_above_the_longest(self):
        # components 1, 2, 1, 1, 2, 0.5 and 0.5 long in a window 8 long: the
        # finite set's summary is memoised, the translate's built from runs
        points = [-2.0, 0.0, 1.0, 2.0, 4.0, 4.5]
        e = FinitePoints(points)  # its memoised summaries read the points through a weak reference
        memoised = e.summary(-3.0, 5.0)
        built = Translate(FinitePoints([p - 0.25 for p in points]), 0.25).summary(-3.0, 5.0)
        assert memoised._kept() and not built._kept()
        above = math.nextafter(2.0, math.inf)
        want = [1.0, 7.0 / 8.0, 0.5, 0.0, 0.0, 1.0]
        for s in (memoised, built):
            assert s.shares(-3.0, 5.0, [0.0, 1.0, 2.0, above, math.inf, 0.5]) == want
            assert [s.shares(-3.0, 5.0, (t,))[0] for t in (0.0, 1.0, 2.0, above)] == want[:4]
            check_shares(s, -3.0, 5.0)

    @pytest.mark.parametrize("e", [FinitePoints([0.0, 1.0]), Lattice(0.0, 1.0 / 3.0, "two_sided")],
                             ids=["memoised", "lattice"])
    def test_a_window_without_interior_points(self, e):
        s = e.summary(0.0, 0.25)
        assert s.first is None
        assert s.shares(0.0, 0.25, [0.0, 0.25, math.nextafter(0.25, 1.0)]) == [1.0, 1.0, 0.0]
        check_shares(s, 0.0, 0.25)
