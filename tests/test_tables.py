"""Probe and triple tables agree bit for bit with the loops they replaced.

Every report is compared with ``==`` against the per-function loops kept in
``tests/oracles.py``, which re-derive each window through the component walk
and recompute each triple at every exponent.  A second group counts window
summaries, so the work the tables save cannot quietly come back: each
distinct probe window is summarised once per sweep while the sweep's recent
windows fit its window store, and each distinct triple window once per
table, whatever ratios, octaves, sides and exponents read it.  A third group
shrinks the store until it evicts, and bounds what a pass holds.  A fourth
compares the one-pass A1 scan and sided-transport's Phi with the
per-sample reductions they replaced.  A fifth runs the passes on families
that repeat probes: each distinct probe is evaluated once, and every
occurrence is reported in family order.  A sixth checks the sweep's scan
down the sorted gamma grid, which skips the thresholds that cannot lower
sigma*: on every subset of sides and on plateaus of sigma*; the work counts
bound the thresholds each kernel call considers, the shares it reads and
the windows a refuted sweep summarises before it stops.  A seventh checks
the kernel, ``WindowSummary.lower``, against plain share reads and the
walks on hostile windows, and pins the slack of its share bound.
"""

import dataclasses
import itertools
import math
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import poroweights.muckenhoupt as muckenhoupt_module
import poroweights.porosity as porosity_module
import poroweights.sets as sets_module
import poroweights.suites as suites_module
from poroweights import (
    CantorIterate,
    FinitePoints,
    GeometricPlusLattice,
    Interval,
    Lattice,
    PorosityParams,
    ProbeFamily,
    Reflect,
    Translate,
    TripleFamily,
    TripleTable,
    WeightSpec,
    a1_constant,
    catalog,
    certification_probes,
    certify,
    critical_alpha,
    sigma_at,
    sweep_parameters,
    sweep_sides,
)
from poroweights.muckenhoupt import SIDES as A1_SIDES, _scan_side
from poroweights.porosity import (
    GAMMA_GRID,
    MAX_WITNESSES,
    SIDES,
    admissible_alpha,
    distinct_probes,
)
from poroweights.sets import EMPTY_SUMMARY, window_summary
from poroweights.suites import (
    suite_equivalence_matrix,
    suite_left_propagation,
    suite_pore_transport,
    suite_sided_transport,
)
from poroweights.weights import IntegralWindow

from . import oracles
from .test_summaries import check_lower

WINDOW = Interval(-4.0, 4.0)
NATURALS = Lattice(0.0, 1.0, "right")

BASES = {
    "integers": Lattice(0.0, 1.0, "two_sided"),
    "naturals": NATURALS,
    "lattice-third": Lattice(0.25, 1.0 / 3.0, "left"),
    "geometric_naturals": GeometricPlusLattice(2.0, NATURALS),
    "cantor": CantorIterate(-1.0, 2.0, 1.0 / 3.0, 5),
}


@st.composite
def point_sets(draw):
    """Catalog-like sets, random finite sets, and reflects and translates of either."""
    e = draw(st.one_of(
        st.sampled_from(sorted(BASES)).map(BASES.__getitem__),
        st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12).map(FinitePoints),
    ))
    wrap = draw(st.sampled_from(["none", "reflect", "translate"]))
    if wrap == "reflect":
        e = Reflect(e)
    elif wrap == "translate":
        e = Translate(e, draw(st.floats(-2.0, 2.0)))
    return e


def small_family(e, seed):
    """Four anchors, the four longest default scales and eight random probes."""
    fam = ProbeFamily.default(e, WINDOW, anchor_cap=4, random_count=8, seed=seed)
    return dataclasses.replace(fam, scales=fam.scales[:4])


def check_certify(e, params, intervals):
    """certify against the per-probe walk, the report and its rows; the report."""
    report = certify(e, params, intervals)
    want, rows = oracles.certify_walk(e, params, intervals)
    assert report == want
    assert list(report.rows()) == rows
    return report


class TestProbeTable:
    @settings(max_examples=40, deadline=None)
    @given(e=point_sets(), side=st.sampled_from(SIDES), gamma=st.sampled_from([0.5, 0.125, 2.0 ** -9]),
           seed=st.integers(0, 3))
    def test_certify_matches_the_loop(self, e, side, gamma, seed):
        intervals = small_family(e, seed).intervals()
        params = PorosityParams(0.25, gamma, side)
        check_certify(e, params, intervals)

    @settings(max_examples=40, deadline=None)
    @given(e=point_sets(), seed=st.integers(0, 3))
    def test_sweeps_match_the_loop_on_every_side(self, e, seed):
        intervals = small_family(e, seed).intervals()
        together = sweep_sides(e, intervals, SIDES)
        pair = sweep_sides(e, intervals, ("right", "left"))
        for side in SIDES:
            expected = oracles.sweep_walk(e, intervals, side)
            assert together[side] == expected
            assert sweep_parameters(e, intervals, side) == expected
            if side != "two_sided":
                assert pair[side] == expected

    @settings(max_examples=25, deadline=None)
    @given(e=point_sets(), seed=st.integers(0, 3), gamma=st.sampled_from([0.5, 0.25]))
    def test_sided_transport_matches_the_loop(self, e, seed, gamma):
        fam = small_family(e, seed)
        got = suite_sided_transport(e, fam, gamma=gamma)
        assert got == oracles.sided_transport_walk(e, fam, gamma=gamma)


# A finite set whose components are 1 and 2 long, and the same points as a
# mirrored reflect, whose windows are summarised afresh on every query
TIE_POINTS = (-2.0, 0.0, 1.0, 2.0, 4.0)
TIE_SETS = [FinitePoints(TIE_POINTS), Reflect(FinitePoints([-p for p in TIE_POINTS]))]
# points 1e-310 apart: 2 gamma rho(reference) is subnormal and rounds
SUBNORMAL_POINTS = (0.0, 1e-310, 3e-310, 7e-310, 1.0)
SUBNORMAL_SETS = [FinitePoints(SUBNORMAL_POINTS), Reflect(FinitePoints([-p for p in SUBNORMAL_POINTS]))]
# no probe window of EMPTY_FAMILY holds a point of these sets
EMPTY_SETS = [FinitePoints([0.0]), NATURALS]
EMPTY_FAMILY = ProbeFamily(anchors=(-20.0, -12.0), scales=(8.0, 4.0, 1.0, 0.125))


# every nonempty subset of SIDES
SIDE_SETS = [sides for n in range(1, len(SIDES) + 1) for sides in itertools.combinations(SIDES, n)]


class TestLengthProfile:
    """One kernel call per region window answers any grid, bit for bit with the per-threshold loop."""

    @settings(max_examples=30, deadline=None)
    @given(
        e=point_sets(),
        seed=st.integers(0, 3),
        gammas=st.lists(st.sampled_from([*GAMMA_GRID, 0.375, 1.0 / 3.0, 0.75]), min_size=1, max_size=14),
        sides=st.sampled_from(SIDE_SETS),
    )
    def test_any_grid_matches_the_loop(self, e, seed, gammas, sides):
        intervals = small_family(e, seed).intervals()
        got = sweep_sides(e, intervals, sides, gammas)
        for side in sides:
            assert got[side] == oracles.sweep_walk(e, intervals, side, gammas)

    @pytest.mark.parametrize("grid", ["ascending", "shuffled", "duplicated", "one"])
    @pytest.mark.parametrize("e", [BASES["integers"], BASES["cantor"], *TIE_SETS], ids=["integers", "cantor", "ties", "ties-reflected"])
    def test_grids_in_any_order(self, e, grid):
        gammas = {
            "ascending": GAMMA_GRID[::-1],
            "shuffled": tuple(sorted(GAMMA_GRID, key=lambda g: (g * 2.0 ** 20) % 7)),
            "duplicated": (0.25, 0.5, 0.25, 2.0 ** -9, 0.5, 0.5),
            "one": (2.0 ** -5,),
        }[grid]
        intervals = small_family(e, 2).intervals()
        got = sweep_sides(e, intervals, SIDES, gammas)
        for side in SIDES:
            assert got[side] == oracles.sweep_walk(e, intervals, side, gammas)

    @pytest.mark.parametrize("e", TIE_SETS, ids=["memoised", "reflected"])
    def test_thresholds_equal_to_a_component_length(self, e):
        # on (-4, 12) the right side counts the holes of (-4, 4), 2 and 1
        # long, against rho(4, 12) = 4: gamma 1/4 and 1/8 land on them
        intervals = [Interval(-4.0, 12.0), Interval(-6.0, 10.0), Interval(-2.0, 6.0), Interval(0.0, 4.0)]
        gammas = (0.5, 0.25, 0.125, 2.0 ** -4)
        i = intervals[0]
        lengths = {length for length, _ in oracles.component_lengths(e, i.left_half)}
        thresholds = {2.0 * g * oracles.rho_walk(e, i.right_half) for g in gammas}
        assert {1.0, 2.0} <= lengths & thresholds
        got = sweep_sides(e, intervals, SIDES, gammas)
        for side in SIDES:
            assert got[side] == oracles.sweep_walk(e, intervals, side, gammas)
        fam = ProbeFamily(anchors=(0.0, 2.0, 4.0), scales=(16.0, 8.0, 4.0, 2.0))
        for gamma in (0.5, 0.25):
            assert suite_sided_transport(e, fam, gamma=gamma) == oracles.sided_transport_walk(e, fam, gamma=gamma)

    @pytest.mark.parametrize("e", TIE_SETS, ids=["memoised", "reflected"])
    def test_single_thresholds_equal_to_a_component_length(self, e):
        # sigma_at and certify read one threshold from the same summary
        intervals = [Interval(-4.0, 12.0), Interval(-6.0, 10.0), Interval(-2.0, 6.0), Interval(0.0, 4.0)]
        for gamma in (0.5, 0.25, 0.125, 2.0 ** -4):
            for side in SIDES:
                for i in intervals:
                    assert sigma_at(e, i, gamma, side) == oracles.sigma_at_walk(e, i, gamma, side)
                params = PorosityParams(0.5, gamma, side)
                check_certify(e, params, intervals)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"gamma": math.nan}, "gamma"), ({"gamma": 1.0}, "gamma"),
         ({"gamma0": math.nan}, "gamma0"), ({"gamma0": 0.0}, "gamma0")],
        ids=["gamma-nan", "gamma-one", "gamma0-nan", "gamma0-zero"],
    )
    def test_sided_transport_rejects_a_gamma_outside_the_unit_interval(self, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\)"):
            suite_sided_transport(TIE_SETS[0], EMPTY_FAMILY, **kwargs)

    @pytest.mark.parametrize("e", EMPTY_SETS, ids=["memoised", "naturals"])
    def test_windows_without_set_points(self, e):
        intervals = EMPTY_FAMILY.intervals()
        if isinstance(e, FinitePoints):
            assert all(window_summary(e, j) is EMPTY_SUMMARY
                       for i in intervals for j in (i, i.left_half, i.right_half))
        got = sweep_sides(e, intervals, SIDES)
        for side in SIDES:
            assert got[side] == oracles.sweep_walk(e, intervals, side)
        assert suite_sided_transport(e, EMPTY_FAMILY) == oracles.sided_transport_walk(e, EMPTY_FAMILY)

    @pytest.mark.parametrize("e", SUBNORMAL_SETS, ids=["memoised", "reflected"])
    def test_subnormal_gaps(self, e):
        fam = ProbeFamily(anchors=(0.0, 1e-310, 3e-310, 7e-310), scales=tuple(2.0 ** -k for k in range(1024, 1034)))
        intervals = fam.intervals()
        gammas = (*GAMMA_GRID, 1.0 / 3.0, 0.375)
        got = sweep_sides(e, intervals, SIDES, gammas)
        for side in SIDES:
            assert got[side] == oracles.sweep_walk(e, intervals, side, gammas)
        assert suite_sided_transport(e, fam) == oracles.sided_transport_walk(e, fam)


# one subnormal unit u apart on (0, 4u), two on (4u, 8u): the probe (0, 8u)
# counts holes u long on its left half, where rho = u / 2 rounds to 0.0,
# against rho = u of its right half
TINY = 5e-324
UNIT_GAPS = FinitePoints([k * TINY for k in (0, 1, 2, 3, 4, 6, 8)])


class TestBoundedSweep:
    """A sweep computes shares only where some gamma could still lower sigma*, bit for bit with the walk."""

    @pytest.mark.parametrize("name, e", catalog(cantor_depth=5), ids=[name for name, _ in catalog()])
    def test_the_catalog_matches_the_walk(self, name, e):
        intervals = certification_probes(e, WINDOW, anchor_cap=8, random_count=20).intervals()
        got = sweep_sides(e, intervals, SIDES)
        for side in SIDES:
            assert got[side] == oracles.sweep_walk(e, intervals, side)

    @pytest.mark.parametrize("e", [UNIT_GAPS, Reflect(Reflect(UNIT_GAPS))], ids=["memoised", "reflected-twice"])
    def test_the_longest_component_is_read_not_doubled_from_rho(self, e):
        i = Interval(0.0, 8 * TINY)
        assert oracles.max_component_walk(e, i.left_half) == TINY and oracles.rho_walk(e, i.left_half) == 0.0
        assert oracles.rho_walk(e, i.right_half) == TINY
        # at gamma 1/2 the threshold TINY keeps every hole of the left half;
        # 2 * rho of that half would put it above them all and report 0.0
        assert sigma_at(e, i, 0.5, "right") == 1.0
        intervals = [i, Interval(0.0, 4 * TINY), Interval(2 * TINY, 8 * TINY)]
        got = sweep_sides(e, intervals, SIDES)
        for side in SIDES:
            assert got[side] == oracles.sweep_walk(e, intervals, side)
        assert got["right"].table[0] == (0.5, 1.0)

    def test_a_cantor_sweep_computes_few_shares_and_compresses_nothing(self, kernel_reads, monkeypatch):
        # the depth-8 catalog iterate at the default window: a kernel call per
        # probe and side would be 27,280; most cannot lower any entry.  Of the
        # grid thresholds the calls consider, the share bound answers enough
        # that fewer shares are read than the 21,970 a read per threshold took
        e = dict(catalog(seed=101, cantor_depth=8))["cantor"]
        intervals = certification_probes(e, Interval(-64.0, 64.0), seed=101).intervals()
        assert 2 * len(intervals) == 27_280
        compress = [0]
        original = sets_module.Run.compress

        def counted(*args):
            compress[0] += 1
            return original(*args)

        monkeypatch.setattr(sets_module.Run, "compress", staticmethod(counted))
        sweeps = sweep_sides(e, intervals, ("right", "left"))
        assert all(sweep.certified for sweep in sweeps.values())
        assert 0 < kernel_reads["reads"] <= 8_000
        assert 0 < kernel_reads["bisections"] <= 16_000 < kernel_reads["thresholds"]
        assert compress[0] == 0


# points base + k * step at base 0.3 or 2^36, for a step of 0.1, 1/3 or
# 0.01 less the rounding of base + step, so that one exact run spells them:
# the sum of a run's computed cells then falls short of the span of its
# points, and the share bound's slack is what keeps it sound
FAR = 2.0 ** 36


@st.composite
def kernel_sets(draw):
    """A set, the region its windows are drawn from and a probe family there:
    the catalog, random finite sets, points and lattices at 2^36 with a step
    of 0.1 or 1/3, and points a few subnormals apart; any of them reflected."""
    kind = draw(st.sampled_from(["catalog", "finite", "far", "far-lattice", "subnormal"]))
    step = draw(st.sampled_from((0.1, 1.0 / 3.0, 0.01)))
    lo, hi, scales = -6.0, 6.0, (8.0, 2.0, 0.5, 0.125)
    if kind == "catalog":
        e = draw(st.sampled_from([e for _, e in catalog(cantor_depth=5)]))
    elif kind == "finite":
        e = FinitePoints(draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=16)))
    elif kind == "far":
        base = draw(st.sampled_from((0.3, FAR)))
        spelled = (base + step) - base
        first = draw(st.integers(0, 20))
        ks = draw(st.one_of(st.lists(st.integers(0, 40), min_size=1, max_size=30),
                            st.builds(range, st.just(first), st.integers(first + 1, 41))))
        e = FinitePoints([base + k * spelled for k in ks])
        lo, hi, scales = base - 1.0, base + 15.0, (8.0, 2.0, 0.5, 3.0 * step)
    elif kind == "far-lattice":
        e = Lattice(FAR, step, draw(st.sampled_from(("two_sided", "right", "left"))))
        lo, hi, scales = FAR - 4.0, FAR + 4.0, (4.0, 1.0, 0.5, 3.0 * step)
    else:
        e = FinitePoints([k * TINY for k in draw(st.lists(st.integers(0, 64), min_size=1, max_size=16))])
        lo, hi, scales = -4 * TINY, 70 * TINY, tuple(k * TINY for k in (64, 16, 8, 4))
    if draw(st.booleans()):
        e, lo, hi = Reflect(e), -hi, -lo
    marks = e.points_in(lo, hi) or [0.5 * (lo + hi)]
    anchors = tuple(sorted(set(draw(st.lists(st.sampled_from(marks), min_size=1, max_size=4)))))
    return e, (lo, hi), ProbeFamily(anchors=anchors, scales=scales)


@st.composite
def kernel_windows(draw, e, region):
    """Windows whose ends are set points, the floats next to them, or anywhere in the region."""
    lo, hi = region
    pts = e.points_in(lo, hi) or [0.5 * (lo + hi)]
    end = st.one_of(
        st.sampled_from(pts),
        st.builds(math.nextafter, st.sampled_from(pts), st.sampled_from((-math.inf, math.inf))),
        st.floats(lo, hi),
    )
    out = []
    for _ in range(4):
        x, y = sorted((draw(end), draw(end)))
        out.append((x, y if x < y else math.nextafter(x, math.inf)))
    return out


class TestLowerKernel:
    """``WindowSummary.lower`` gives what plain ``shares`` reads give, and the
    sweeps and sided-transport built on it give what the walks give, on the
    catalog, random finite sets, reflections and hostile windows: non-dyadic
    steps at 2^36 and widths of a few subnormals.  Its columns include the
    float just above each share, so a share bound that claimed more than
    the share by a single rounding would skip a read that lowers, and fail."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lower_matches_plain_shares(self, data):
        e, region, _ = data.draw(kernel_sets())
        for lo, hi in data.draw(kernel_windows(e, region)):
            s = e.summary(lo, hi)
            lengths = oracles.LengthProfile.of(s, lo, hi).lengths
            grid = sorted({0.0, math.inf, *lengths, *(math.nextafter(t, math.inf) for t in lengths),
                           *(math.nextafter(t, 0.0) for t in lengths)})
            check_lower(s, lo, hi, lambda t: s.shares(lo, hi, (t,))[0], grid, grid[::3])

    def test_a_run_longer_than_its_cells(self):
        # 24 points that one exact run spells: the window from the first to the
        # last is longer than its 23 computed cells, so just above the cell
        # length the share is 0.0 while 1 - 23 t / |R| is 1.1e-16; without its
        # slack the bound would skip the read that lowers 5e-324 to 0.0
        step = (0.3 + 0.01) - 0.3
        e = FinitePoints([0.3 + k * step for k in range(24)])
        lo, hi = e.points[0], e.points[-1]
        s = e.summary(lo, hi)
        t = math.nextafter(step, math.inf)
        assert s._kept() and len(s.interior()) == 1
        assert s.shares(lo, hi, (t,)) == [0.0] and 1.0 - 23 * t / (hi - lo) > 0.0
        check_lower(s, lo, hi, lambda t: s.shares(lo, hi, (t,))[0], [0.0, step, t, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), sides=st.sampled_from(SIDE_SETS))
    def test_sweeps_and_transport_match_the_walks(self, data, sides):
        e, _, fam = data.draw(kernel_sets())
        intervals = fam.intervals()
        if not intervals:
            return
        got = sweep_sides(e, intervals, sides)
        for side in sides:
            assert got[side] == oracles.sweep_walk(e, intervals, side)
        assert suite_sided_transport(e, fam) == oracles.sided_transport_walk(e, fam)


class TestLoweringScan:
    """A sweep reads shares down the sorted grid and skips every threshold that
    cannot lower sigma*; its tables match the walk bit for bit."""

    @pytest.mark.parametrize("sides", SIDE_SETS, ids="+".join)
    @pytest.mark.parametrize("e", [BASES["integers"], BASES["cantor"], *TIE_SETS],
                             ids=["integers", "cantor", "ties", "ties-reflected"])
    def test_every_subset_of_sides(self, e, sides):
        intervals = small_family(e, 2).intervals()
        got = sweep_sides(e, intervals, sides)
        assert sorted(got) == sorted(sides)
        for side in sides:
            assert got[side] == oracles.sweep_walk(e, intervals, side)

    @pytest.mark.parametrize(
        "e, side, plateau",
        [*((BASES["integers"], side, 1.0) for side in SIDES), (CantorIterate(0.0, 1.0, 1.0 / 3.0, 8), "right", 0.9122)],
        ids=[*(f"integers-{side}" for side in SIDES), "cantor8-right"],
    )
    def test_plateaus_in_sigma_star(self, e, side, plateau):
        # sigma* equal at neighbouring gammas: a share that only ties an
        # entry skips it and every lower gamma that it ties
        intervals = certification_probes(e, WINDOW, anchor_cap=8, random_count=20).intervals()
        got = sweep_sides(e, intervals, SIDES)
        sigmas = [sigma for _, sigma in got[side].table]
        assert any(a == b and round(a, 4) == plateau for a, b in zip(sigmas, sigmas[1:]))
        for each in SIDES:
            assert got[each] == oracles.sweep_walk(e, intervals, each)


class TestTripleTable:
    @settings(max_examples=30, deadline=None)
    @given(e=point_sets(), side=st.sampled_from(A1_SIDES), alpha=st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.5]))
    def test_a1_samples_match_the_scan(self, e, side, alpha):
        fam = TripleFamily.default(e, WINDOW, octaves=6, anchor_cap=4)
        w = WeightSpec(e, alpha)
        assert list(TripleTable(e, fam).samples(side, alpha)) == oracles.a1_samples_walk(w, side, fam)

    @settings(max_examples=25, deadline=None)
    @given(
        e=point_sets(),
        alphas=st.lists(st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.5]), min_size=2, max_size=2, unique=True),
    )
    def test_a_table_rescanned_matches_fresh_scans(self, e, alphas):
        # alpha1, alpha2, then alpha1 again, on every side: nothing one scan
        # leaves behind may change what a later one reads
        fam = TripleFamily.default(e, WINDOW, octaves=6, anchor_cap=4)
        table = TripleTable(e, fam)
        for alpha in (*alphas, alphas[0]):
            w = WeightSpec(e, alpha)
            for side in A1_SIDES:
                got = a1_constant(w, side, table)
                assert got == a1_constant(w, side, fam)
                assert list(table.samples(side, alpha)) == oracles.a1_samples_walk(w, side, fam)

    def test_default_ladder_stops_where_the_anchors_resolve(self):
        # a gap far below the anchors' ulp: a ladder 4 octaves below it would
        # give anchor - s*u == anchor
        e = FinitePoints([0.0, 5.585252151639012e-55])
        fam = TripleFamily.default(e, Interval(-4.0, 4.0), octaves=6, anchor_cap=4)
        assert all(a < b < c for side in ("plus", "minus") for a, b, c, _ in fam.triples(side))
        w = WeightSpec(e, 0.5)
        assert list(TripleTable(e, fam).samples("two_sided", 0.5)) == oracles.a1_samples_walk(w, "two_sided", fam)

    def test_a_table_answers_only_for_its_own_set(self):
        table = TripleTable(NATURALS, TripleFamily.default(NATURALS, WINDOW, octaves=6, anchor_cap=4))
        with pytest.raises(ValueError, match="another set"):
            a1_constant(WeightSpec(BASES["integers"], 0.5), "plus", table)

    @settings(max_examples=12, deadline=None)
    @given(
        e=st.one_of(
            st.sampled_from(["integers", "naturals", "geometric_naturals"]).map(BASES.__getitem__),
            st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6).map(FinitePoints),
        ),
        reflect=st.booleans(),
        side=st.sampled_from(A1_SIDES),
    )
    def test_critical_alpha_grid_matches_the_bisection(self, e, reflect, side):
        e = Reflect(e) if reflect else e
        window = Interval(-2.0, 2.0)
        got = critical_alpha(e, side, certification_probes(e, window), TripleFamily.default(e, window, octaves=8),
                             tol=0.125)
        assert got.grid == oracles.critical_alpha_grid_walk(e, side, window, tol=0.125, octaves=8)


# (set, sides, alpha, octaves): the plus side of reflected naturals and the
# minus side of naturals and its ladder diverge with 16 witnesses at 24
# octaves; integers tie their values across anchors, and at alpha >= 1 every
# triple whose averaged window meets the set is not integrable
REDUCTION_CASES = {
    "reflected_naturals": (Reflect(NATURALS), ("plus", "minus"), 0.5, 24),
    "naturals": (NATURALS, ("plus", "minus"), 0.5, 24),
    "reflected_geometric_naturals": (Reflect(BASES["geometric_naturals"]), ("plus", "minus"), 0.5, 24),
    "integers-ties": (BASES["integers"], ("plus", "minus"), 0.5, 8),
    "integers-alpha-1": (BASES["integers"], ("plus", "minus"), 1.0, 8),
    "integers-alpha-1.25": (BASES["integers"], ("plus",), 1.25, 8),
    "cantor-alpha-1.5": (BASES["cantor"], ("minus",), 1.5, 8),
}


def check_scan(table, side, alpha):
    """Both ways of the one-pass scan against the per-sample oracle; the oracle's report."""
    want = oracles.scan_side_walk(alpha, side, table)
    assert _scan_side(alpha, side, table) == want
    return want


class TestReductions:
    """The one-pass reductions equal the per-sample ones, field for field."""

    @pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
    def test_the_scan_matches_the_per_sample_scan(self, case):
        e, sides, alpha, octaves = REDUCTION_CASES[case]
        table = TripleTable(e, TripleFamily.default(e, WINDOW, octaves=octaves, anchor_cap=8))
        reports = [check_scan(table, side, alpha) for side in sides]
        if case in ("reflected_naturals", "naturals", "reflected_geometric_naturals"):
            assert any(len(r.witnesses) == 16 for r in reports)
        if case.startswith("integers-ties"):
            best = reports[0].best.value
            assert table.values(sides[0], alpha).count(best) > 1  # the first maximum is kept
        if "alpha" in case:
            assert all(r.nonintegrable_count > 0 for r in reports)

    @settings(max_examples=30, deadline=None)
    @given(e=point_sets(), side=st.sampled_from(["plus", "minus"]), alpha=st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.5]))
    def test_scans_of_any_set(self, e, side, alpha):
        check_scan(TripleTable(e, TripleFamily.default(e, WINDOW, octaves=6, anchor_cap=4)), side, alpha)

    @pytest.mark.parametrize("e, diverges", [
        (NATURALS, True), (Reflect(NATURALS), True), (Translate(NATURALS, 0.375), True),
        (BASES["integers"], False), (BASES["cantor"], False),
    ], ids=["naturals", "reflected_naturals", "translated_naturals", "integers", "cantor"])
    def test_the_doubling_report_matches_the_per_pair_report(self, e, diverges):
        # sided-transport's Phi is the one-pass maximum of the per-pair ratios;
        # nested probes around a lattice end diverge, integer probes tie
        nested = ProbeFamily(anchors=(0.125,), scales=tuple(2.0 ** (n + 1) for n in range(1, 20)), alignments=("center",))
        for fam in (nested, small_family(e, 1)):
            phi = suite_sided_transport(e, fam).constants["phi"]
            assert phi == oracles.phi_walk(e, fam.intervals())
            if fam is nested:
                assert (phi >= 2.0 ** 18) == diverges
                assert diverges or phi <= 3.0


DUALITY_SETS = [
    *catalog(seed=3, cantor_depth=6),
    ("lattice-third", BASES["lattice-third"]),
    ("progression", FinitePoints([1.378 + k * 0.76 for k in range(8)])),
]


@pytest.mark.parametrize("e", [e for _, e in DUALITY_SETS], ids=[name for name, _ in DUALITY_SETS])
class TestReflectionDuality:
    """Negation is exact on floats: the mirror's right side is the set's left side, bit for bit."""

    def test_the_right_sweep_of_the_mirror_is_the_left_sweep(self, e):
        probes = certification_probes(e, WINDOW, anchor_cap=8, random_count=20, seed=3).intervals()
        mirrored = sweep_sides(Reflect(e), [i.reflected() for i in probes], ("right",))
        assert mirrored["right"].table == sweep_sides(e, probes, ("left",))["left"].table

    def test_the_plus_triples_of_the_mirror_are_the_minus_triples(self, e):
        # the 24 octaves of the CLI's ladder: at 6, Cantor depth 6 agreed even
        # while reflected runs were spelled from their other end
        fam = TripleFamily.default(e, WINDOW, octaves=24, anchor_cap=8)
        mirrored, table = TripleTable(Reflect(e), fam.reflected()), TripleTable(e, fam)
        for alpha in (0.5, 0.9):
            assert sorted(mirrored.values("plus", alpha)) == sorted(table.values("minus", alpha))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12), seed=st.integers(0, 3))
def test_reflection_duality_over_random_finite_sets(points, seed):
    # the mirror as a reflect, summarised afresh, and as a finite set, memoised
    e = FinitePoints(points)
    probes = small_family(e, seed).intervals()
    mirrored = [i.reflected() for i in probes]
    left = sweep_sides(e, probes, ("left",))["left"].table
    for mirror in (Reflect(e), FinitePoints([-p for p in e.points])):
        assert sweep_sides(mirror, mirrored, ("right",))["right"].table == left


def triple_windows(family, side):
    """The distinct (lo, hi) windows the triples of a side read: (a, b) and (b, c) of each."""
    sides = ("plus", "minus") if side == "two_sided" else (side,)
    return {w for s in sides for a, b, c, _ in family.triples(s) for w in ((a, b), (b, c))}


@pytest.fixture
def summaries(monkeypatch):
    """Counter of the window summaries asked of a set: its ``summary`` calls, less
    those one variant's summary makes of another (a reflection of its inner set's)."""
    count = [0]
    depth = [0]

    def counted(original):
        def summary(self, lo, hi):
            count[0] += depth[0] == 0
            depth[0] += 1
            try:
                return original(self, lo, hi)
            finally:
                depth[0] -= 1
        return summary

    for cls in vars(sets_module).values():
        if isinstance(cls, type) and issubclass(cls, sets_module.SetDescription) and "summary" in vars(cls):
            monkeypatch.setattr(cls, "summary", counted(vars(cls)["summary"]))
    return count


@pytest.fixture
def fsums(monkeypatch):
    """Counter of ``fsum`` calls from every module that sums lengths."""
    count = [0]
    original = math.fsum

    def counted(terms):
        count[0] += 1
        return original(terms)

    for name, module in list(sys.modules.items()):
        if name.startswith("poroweights") and getattr(module, "fsum", None) is original:
            monkeypatch.setattr(module, "fsum", counted)
    return count


@pytest.fixture
def kernel_reads(monkeypatch):
    """Counters of ``WindowSummary.lower`` (which ``shares`` calls too): its
    calls as ``reads``, the ``first`` thresholds they read, the grid
    thresholds they consider and the shares they read by bisection.

    The kernel reads ``doubled[k]`` once per grid threshold it considers,
    for a share or for a memoised summary's share bound.  A memoised summary
    and one sorted from runs bisect once per share they read; a summary of
    at most one run reads every threshold it considers, without bisecting.
    """
    counts = {"reads": 0, "first": 0, "thresholds": 0, "bisections": 0}
    original = sets_module.WindowSummary.lower
    bisect = sets_module.bisect_right
    inside = [False]

    class Grid(list):
        def __getitem__(self, k):
            counts["thresholds"] += 1
            return list.__getitem__(self, k)

    def bisected(*args):
        counts["bisections"] += inside[0]
        return bisect(*args)

    def counted(self, lo, hi, low, top, doubled, rho_ref, first=()):
        counts["reads"] += 1
        counts["first"] += len(first)
        inside[0] = True
        try:
            return original(self, lo, hi, low, top, Grid(doubled), rho_ref, first)
        finally:
            inside[0] = False

    monkeypatch.setattr(sets_module.WindowSummary, "lower", counted)
    monkeypatch.setattr(sets_module, "bisect_right", bisected)
    return counts


@pytest.fixture
def lattice_runs(monkeypatch):
    """Counter of ``Lattice.runs_in`` calls."""
    count = [0]
    original = Lattice.runs_in

    def counted(self, lo, hi):
        count[0] += 1
        return original(self, lo, hi)

    monkeypatch.setattr(Lattice, "runs_in", counted)
    return count


@pytest.fixture
def triple_samples(monkeypatch):
    """Counter of the ``TripleSample`` objects the A1 scan builds."""
    count = [0]
    original = muckenhoupt_module.TripleSample

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(muckenhoupt_module, "TripleSample", counted)
    return count


def test_the_matrix_probes_a_certified_set_at_its_admissible_alpha():
    # verify runs the porosity lemmas at the admissible pair, and the matrix
    # derives its alpha from the same pair; a refuted set is probed at 1/2
    named = [(name, e) for name, e in catalog() if name in ("integers", "reflected_naturals", "cantor")]
    result = suite_equivalence_matrix(named, Interval(-2.0, 2.0), octaves=8)
    assert [r.right_certified for r in result.rows] == [True, False, True]
    for row in result.rows:
        sweep = result.reports[row.name]["sweep_right"]
        if row.right_certified:
            pair = sweep.admissible_params()
            assert row.alpha == admissible_alpha(pair.sigma, pair.gamma), row.name
            assert (row.best_gamma, row.best_sigma) == (sweep.best_gamma, sweep.best_sigma)
        else:
            assert row.alpha == 0.5, row.name


class TestWorkCounts:
    SETS = [BASES["integers"], BASES["geometric_naturals"], CantorIterate(0.0, 1.0, 1.0 / 3.0, 6),
            Reflect(BASES["geometric_naturals"])]
    IDS = ["integers", "geometric_naturals", "cantor6", "reflected_geometric_naturals"]

    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_certify_reads_the_halves_and_the_doubling_pass_four_windows(self, e, summaries):
        # certify reads I- and I+, and I on the two-sided side only;
        # sided-transport reads I, I-, I+ and the centred half for Phi, and
        # its checks read I, I- and I+ again from the same store
        fam = small_family(e, 1)
        intervals = fam.intervals()
        for side in SIDES:
            summaries[0] = 0
            certify(e, PorosityParams(0.25, 0.25, side), intervals)
            assert 0 < summaries[0] <= (3 if side == "two_sided" else 2) * len(intervals)
        summaries[0] = 0
        got = suite_sided_transport(e, fam)
        assert 0 < summaries[0] <= 4 * len(intervals)
        assert got == oracles.sided_transport_walk(e, fam)

    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_right_and_left_sweeps_share_the_halves(self, e, summaries):
        intervals = small_family(e, 1).intervals()
        sweep_sides(e, intervals, ("right", "left"))
        assert 0 < summaries[0] <= 2 * len(intervals)

    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_sweeps_summarise_each_distinct_window_once(self, e, summaries):
        intervals = certification_probes(e, WINDOW, anchor_cap=8, random_count=20).intervals()
        distinct = {w for i in intervals for w in ((i.lo, i.hi), (i.lo, i.center), (i.center, i.hi))}
        summaries[0] = 0
        sweep_sides(e, intervals, SIDES)
        assert 0 < summaries[0] <= len(distinct)

    def test_a_sweep_sums_each_prefix_once_per_region_window(self, fsums):
        # a per-threshold sum would take 12 per probe side; the profile takes at
        # most one per distinct component length of the region window, and an
        # integer window has at most three: the unit cells and its two edges
        e = BASES["integers"]
        intervals = certification_probes(e, WINDOW, anchor_cap=8, random_count=20).intervals()
        distinct = [len({length for length, _ in oracles.component_lengths(e, region)})
                    for i in intervals for region in (i.left_half, i.right_half)]
        assert max(distinct) <= 3
        fsums[0] = 0
        sweep_sides(e, intervals, ("right", "left"))
        assert 0 < fsums[0] <= sum(distinct)

    @pytest.mark.parametrize("e", [BASES["integers"], BASES["cantor"]], ids=["run-built", "memoised"])
    def test_a_shares_call_sums_each_prefix_once(self, e, fsums):
        # thresholds at each distinct component length, thrice over, at 0
        # (the prefix of the shortest length) and at inf (the empty prefix)
        i = Interval(-1.5, 2.25)
        s = window_summary(e, i)
        s.shares(i.lo, i.hi, (0.0,))  # a memoised summary packs its groups on its first read
        lengths = sorted({length for length, _ in oracles.component_lengths(e, i)})
        assert len(lengths) >= 3
        fsums[0] = 0
        s.shares(i.lo, i.hi, [0.0, math.inf, *lengths] * 3)
        assert fsums[0] == len(lengths)

    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_certify_and_sweeps_build_no_interval_per_window(self, e, monkeypatch):
        # a pass names its windows by their bounds: given intervals, none builds one
        count = [0]
        original = Interval.__post_init__

        def counted(self):
            count[0] += 1
            original(self)

        intervals = small_family(e, 1).intervals()
        monkeypatch.setattr(Interval, "__post_init__", counted)
        sweep_sides(e, intervals, SIDES)
        assert count[0] == 0
        for side in SIDES:
            certify(e, PorosityParams(0.25, 0.25, side), intervals)
        assert count[0] == 0

    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_passes_given_the_family_build_an_interval_per_named_probe_only(self, e, monkeypatch):
        # as the CLI passes it: the pass reads the family's bounds, and builds
        # the worst probe and each witness only, and sided-transport none; the
        # report is the one of the family's intervals
        count = [0]
        original = Interval.__post_init__

        def counted(self):
            count[0] += 1
            original(self)

        fam = small_family(e, 1)
        intervals = fam.intervals()
        monkeypatch.setattr(Interval, "__post_init__", counted)
        sweep_sides(e, fam, SIDES)
        assert count[0] == 0
        for side in SIDES:
            params = PorosityParams(0.25, 0.25, side)
            count[0] = 0
            report = certify(e, params, fam)
            assert count[0] == (report.worst_interval is not None) + len(report.witnesses)
            assert report == certify(e, params, intervals)
            assert list(report.rows()) == list(certify(e, params, intervals).rows())
        count[0] = 0
        got = suite_sided_transport(e, fam)
        assert count[0] == 0
        assert got == oracles.sided_transport_walk(e, fam)

    @pytest.mark.parametrize("side", A1_SIDES)
    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_a1_summarises_each_triple_window_once(self, e, side, summaries):
        fam = TripleFamily.default(e, WINDOW, octaves=8, anchor_cap=8)
        summaries[0] = 0
        a1_constant(WeightSpec(e, 0.5), side, fam)
        assert 0 < summaries[0] <= len(triple_windows(fam, side))

    @pytest.mark.parametrize("side", A1_SIDES)
    def test_samples_at_the_scanned_alpha_integrate_nothing(self, side, monkeypatch):
        # the table keeps each side's values at the last alpha scanned, which
        # the report's CSV rows read again; another alpha integrates afresh
        e = BASES["cantor"]
        fam = TripleFamily.default(e, WINDOW, octaves=8, anchor_cap=8)
        table = TripleTable(e, fam)
        report = a1_constant(WeightSpec(e, 0.5), side, table)
        calls = [0]
        integral = IntegralWindow.integral

        def counted(self, alpha):
            calls[0] += 1
            return integral(self, alpha)

        monkeypatch.setattr(IntegralWindow, "integral", counted)
        rows = list(table.samples(side, 0.5))
        assert calls[0] == 0
        assert len(rows) == report.triple_count
        fresh = list(table.samples(side, 0.25))
        one_sided = ("plus", "minus") if side == "two_sided" else (side,)
        assert calls[0] == sum(len(table.rows(s).averaged) for s in one_sided) > 0
        assert list(table.samples(side, 0.25)) == fresh
        assert calls[0] == sum(len(table.rows(s).averaged) for s in one_sided)
        monkeypatch.undo()
        assert rows == oracles.a1_samples_walk(WeightSpec(e, 0.5), side, fam)
        assert fresh == oracles.a1_samples_walk(WeightSpec(e, 0.25), side, fam)

    def test_equivalence_summarises_each_triple_window_once_across_both_sides(self, summaries):
        named = [(name, e) for name, e in catalog() if name in ("integers", "reflected_geometric_naturals")]
        window = Interval(-2.0, 2.0)
        # per set: the sweep's distinct probe halves, the table's distinct
        # triple windows, and one call each for the two default ladders
        budget = 0
        for _, e in named:
            probes = certification_probes(e, window).intervals()
            budget += len({w for i in probes for w in ((i.lo, i.center), (i.center, i.hi))})
            budget += len(triple_windows(TripleFamily.default(e, window, octaves=8), "two_sided")) + 2
        summaries[0] = 0
        suite_equivalence_matrix(named, window, octaves=8)
        assert 0 < summaries[0] <= budget

    def test_equivalence_frees_each_triple_table_before_the_next_set(self, monkeypatch):
        # a table holds every triple window of its set: the next set's sweep
        # and table must not run beside it
        tables, alive = [], []

        class Tracked(TripleTable):
            def __init__(self, *args):
                alive.append(sum(ref() is not None for ref in tables))
                super().__init__(*args)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(suites_module, "TripleTable", Tracked)
        named = [(name, e) for name, e in catalog() if name in ("integers", "naturals", "cantor")]
        suite_equivalence_matrix(named, Interval(-2.0, 2.0), octaves=8)
        assert alive == [0, 0, 0]

    @pytest.mark.parametrize("e", [BASES["integers"], NATURALS, Reflect(NATURALS)],
                             ids=["integers", "naturals", "reflected_naturals"])
    def test_lattice_sweeps_build_no_runs(self, e, lattice_runs):
        intervals = certification_probes(e, WINDOW, anchor_cap=8, random_count=20).intervals()
        lattice_runs[0] = 0
        sweep_sides(e, intervals, SIDES)
        assert lattice_runs[0] == 0

    @pytest.mark.parametrize("e", [BASES["geometric_naturals"], Reflect(BASES["geometric_naturals"])],
                             ids=["geometric_naturals", "reflected_geometric_naturals"])
    def test_geometric_sweeps_and_transport_take_no_default_path(self, e, monkeypatch):
        # windows that reach the geometric points read the cached points and the
        # lattice's summary: nothing compressed, no summary built from runs but
        # the geometric memo's, which the run index builds on a miss
        counts = {"compress": 0, "default": 0, "geometric": 0}

        def counted(name, original):
            def call(*args):
                counts[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(sets_module.Run, "compress", staticmethod(counted("compress", sets_module.Run.compress)))
        monkeypatch.setattr(sets_module.SetDescription, "summary",
                            counted("default", sets_module.SetDescription.summary))
        monkeypatch.setattr(sets_module._RunIndex, "built", counted("geometric", sets_module._RunIndex.built))
        window = Interval(-64.0, 64.0)
        intervals = certification_probes(e, window, anchor_cap=16, random_count=50).intervals()
        sweep_sides(e, intervals, SIDES)
        suite_sided_transport(e, certification_probes(e, window, anchor_cap=16, random_count=50))
        assert counts["compress"] == counts["default"] == 0
        assert counts["geometric"] > 0

    @pytest.mark.parametrize(
        "e, w",
        [(CantorIterate(0.0, 1.0, 1.0 / 3.0, 6), 8.0), (BASES["integers"], 8.0), (dict(catalog())["random_finite"], 64.0)],
        ids=["cantor6", "integers", "random_finite"],
    )
    def test_a_sweep_evaluates_few_thresholds_per_share_read(self, e, w, kernel_reads):
        # reading every unzeroed threshold takes about 11 of the 12 per read;
        # the scan down the grid skips those that cannot lower sigma*
        sweep_sides(e, certification_probes(e, Interval(-w, w)).intervals(), SIDES)
        assert kernel_reads["first"] == 0
        assert 0 < kernel_reads["thresholds"] <= 12 * kernel_reads["reads"] / 3

    @pytest.mark.parametrize("name", ["integers", "geometric_naturals"])
    def test_sided_transport_draws_few_grid_thresholds_per_read(self, name, kernel_reads):
        # per distinct probe 7 check thresholds over I-, I+ and I, then the
        # grid thresholds that can lower its sweeps: all 12 would be 14.33 per read
        e, window = dict(catalog())[name], Interval(-64.0, 64.0)
        fam = certification_probes(e, window)
        suite_sided_transport(e, fam)
        reads = kernel_reads["reads"]
        assert reads == 3 * len(distinct_probes(fam.intervals())[0])
        assert kernel_reads["first"] == 7 * reads / 3
        assert 0 < kernel_reads["thresholds"] <= 12 * reads / 3

    @pytest.mark.parametrize("name, side", [("naturals", "left"), ("reflected_naturals", "right"),
                                            ("reflected_geometric_naturals", "right")])
    def test_a_refuted_sweep_stops_early(self, name, side, summaries):
        # once the side is 0.0 at every gamma no later probe can change the
        # table (geometric_naturals left takes 68 of 7,098 probes, about 1.5%)
        e = dict(catalog())[name]
        intervals = certification_probes(e, Interval(-64.0, 64.0)).intervals()
        halves = {w for i in intervals for w in ((i.lo, i.center), (i.center, i.hi))}
        summaries[0] = 0
        sweep = sweep_sides(e, intervals, (side,))[side]
        assert [sigma for _, sigma in sweep.table] == [0.0] * len(GAMMA_GRID)
        assert 0 < summaries[0] < len(halves) / 100
        assert sweep == oracles.sweep_walk(e, intervals, side)

    @pytest.mark.parametrize("e", SETS, ids=IDS)
    def test_each_distinct_probe_reads_its_shares_once(self, e, kernel_reads):
        # a pass reads the shares of each region window of a distinct probe
        # in one kernel call (certify through shares); a repeat makes none
        intervals = ProbeFamily.default(e, REPEAT_WINDOW, anchor_cap=32, random_count=100).intervals()
        distinct = len(distinct_probes(intervals)[0])
        assert distinct < len(intervals)
        for side in SIDES:
            kernel_reads["reads"] = 0
            certify(e, PorosityParams(0.25, 0.25, side), intervals)
            assert kernel_reads["reads"] == distinct
            kernel_reads["reads"] = 0
            sweep_sides(e, intervals, (side,))
            assert 0 < kernel_reads["reads"] <= distinct
        fam = certification_probes(e, REPEAT_WINDOW, anchor_cap=32, random_count=100)
        kernel_reads["reads"] = 0
        suite_sided_transport(e, fam)
        assert kernel_reads["reads"] == 3 * len(distinct_probes(fam.intervals())[0])  # I-, I+ and I

    @pytest.mark.parametrize("e, side", [(NATURALS, "minus"), (Reflect(NATURALS), "plus"), (BASES["integers"], "plus")],
                             ids=["naturals-minus", "reflected_naturals-plus", "integers-plus"])
    def test_a_scan_builds_the_best_and_the_witnesses_only(self, e, side, triple_samples):
        fam = TripleFamily.default(e, WINDOW, octaves=24, anchor_cap=8)
        table = TripleTable(e, fam)
        triple_samples[0] = 0
        report = a1_constant(WeightSpec(e, 0.5), side, table)
        assert triple_samples[0] == 1 + len(report.witnesses) <= 17

    @pytest.mark.parametrize(
        "side, e",
        [("plus", NATURALS), ("minus", Reflect(NATURALS)), ("two_sided", BASES["integers"])],
        ids=A1_SIDES,
    )
    def test_critical_alpha_work_does_not_grow_with_the_steps(self, side, e, summaries):
        counts = []
        for tol in (2.0 ** -3, 2.0 ** -6):
            summaries[0] = 0
            window = Interval(-8.0, 8.0)
            result = critical_alpha(e, side, certification_probes(e, window), TripleFamily.default(e, window), tol=tol)
            assert len(result.grid) == -math.log2(tol)  # every step ran
            counts.append(summaries[0])
        assert counts[0] == counts[1] > 0


# window (-8, 8) at the default caps: anchors half a unit apart make the
# probe left-aligned at a, centred at a + s/2 and right-aligned at a + s
# one interval
REPEAT_WINDOW = Interval(-8.0, 8.0)


class TestDistinctProbes:
    """Passes over families that repeat probes, bit for bit with the walks, which evaluate every probe."""

    @pytest.mark.parametrize("name", ["integers", "geometric_naturals"])
    def test_duplicate_heavy_families_match_the_walks(self, name):
        e = BASES[name]
        repeating = ProbeFamily.default(e, REPEAT_WINDOW)
        intervals = repeating.intervals()
        distinct, order = distinct_probes(intervals)
        assert len(distinct) <= 0.91 * len(intervals)  # 1,888 of 2,188 and 1,654 of 1,828
        assert len(set(distinct)) == len(distinct) and [distinct[n] for n in order] == intervals
        for side in SIDES:
            params = PorosityParams(0.5, 0.5, side)
            check_certify(e, params, intervals)
        phi = suite_sided_transport(e, repeating).constants["phi"]
        assert phi == oracles.phi_walk(e, intervals)
        together = sweep_sides(e, intervals, SIDES)
        for side in SIDES:
            assert together[side] == oracles.sweep_walk(e, intervals, side)
            assert sweep_parameters(e, intervals, side) == together[side]
        fam = certification_probes(e, REPEAT_WINDOW)
        assert suite_sided_transport(e, fam) == oracles.sided_transport_walk(e, fam)

    @pytest.mark.parametrize("e", [NATURALS, Reflect(NATURALS)], ids=["naturals", "reflected_naturals"])
    def test_a_divergent_family_repeated(self, e):
        # Phi over nested probes centred at 1/8, each repeated, grows with the
        # top scale: rho(I) / rho(the half holding the lattice) doubles with
        # every octave, and a repeat changes no figure
        scales = [2.0 ** (n + 1) for n in range(1, 20)]
        for repeated in ([*scales, *scales], [*scales, *scales[::-1]], [s for s in scales for _ in range(3)]):
            fam = ProbeFamily(anchors=(0.125,), scales=tuple(repeated), alignments=("center",))
            got = suite_sided_transport(e, fam)
            assert got == oracles.sided_transport_walk(e, fam)
            assert got.constants["phi"] > 2.0 ** 18

    def test_repeated_probes_among_the_witnesses(self):
        # at sigma near 1 most probes of this small family are witnesses: the
        # first MAX_WITNESSES of them hold repeats
        e = BASES["lattice-third"]
        intervals = small_family(e, 0).intervals()
        params = PorosityParams(1.0 - 2.0 ** -40, 0.5, "two_sided")
        report = check_certify(e, params, intervals)
        witnesses = [i for i, _ in report.witnesses]
        assert len(witnesses) == MAX_WITNESSES
        assert len(set(witnesses)) < len(witnesses)

    def test_each_repeat_of_a_failing_probe_gets_its_own_records(self, monkeypatch):
        # no (gamma, gamma0) makes a check fail: up to rounding both are
        # theorems.  A slack of -1 fails every check, so the records show the
        # repeats, per occurrence and in family order, up to MAX_FAILURES
        monkeypatch.setattr(suites_module, "REL_SLACK", -1.0)
        monkeypatch.setattr(oracles, "REL_SLACK", -1.0)
        e = BASES["integers"]
        fam = ProbeFamily(anchors=(0.0, 0.5, 1.0), scales=(1.0,))
        intervals = fam.intervals()
        assert len(intervals) == 9 and len(distinct_probes(intervals)[0]) == 5
        got = suite_sided_transport(e, fam)
        assert got == oracles.sided_transport_walk(e, fam)
        assert [f["interval"] for f in got.failures] == [i.as_pair() for i in intervals for _ in range(3)]


class TestWindowStore:
    """A pass reads its windows from one bounded store; eviction changes no figure."""

    SETS = {name: BASES[name] for name in ("integers", "lattice-third", "geometric_naturals", "cantor")}

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("name", sorted(SETS))
    def test_a_tiny_store_matches_the_loops(self, name, seed, monkeypatch):
        # a store of four windows: nearly every shared window is evicted
        # before it recurs, so each pass re-summarises what it dropped
        monkeypatch.setattr(porosity_module, "STORE_CAP", 4)
        e = self.SETS[name]
        fam = small_family(e, seed)
        intervals = fam.intervals()
        params = PorosityParams(0.25, 0.25, "right")
        check_certify(e, params, intervals)
        together = sweep_sides(e, intervals, SIDES)
        for side in SIDES:
            assert together[side] == oracles.sweep_walk(e, intervals, side)
            for i in intervals[::7]:
                assert sigma_at(e, i, 0.25, side) == oracles.sigma_at_walk(e, i, 0.25, side)
        assert suite_sided_transport(e, fam) == oracles.sided_transport_walk(e, fam)
        assert suite_left_propagation(e, 0.5, intervals) == oracles.left_propagation_walk(e, 0.5, intervals)
        assert suite_pore_transport(e, 0.5, intervals) == oracles.pore_transport_walk(e, 0.5, intervals)

    def test_no_pass_holds_more_than_the_cap(self, monkeypatch):
        cap = 16
        monkeypatch.setattr(porosity_module, "STORE_CAP", cap)
        held = []
        window_store = porosity_module.window_store

        def recording(e):
            rated = window_store(e)

            def read(lo, hi):
                r = rated(lo, hi)
                held.append(rated.cache_info().currsize)
                return r

            return read

        monkeypatch.setattr(porosity_module, "window_store", recording)
        monkeypatch.setattr(suites_module, "window_store", recording)
        e = BASES["integers"]
        fam = certification_probes(e, WINDOW, anchor_cap=8, random_count=20)
        intervals = fam.intervals()
        distinct = {w for i in intervals for w in ((i.lo, i.hi), (i.lo, i.center), (i.center, i.hi))}
        assert len(distinct) > 10 * cap
        passes = (
            lambda: certify(e, PorosityParams(0.25, 0.25, "two_sided"), intervals),
            lambda: sweep_sides(e, intervals, SIDES),
            lambda: suite_sided_transport(e, fam),
        )
        for run in passes:
            held.clear()
            run()
            assert max(held) == cap

    def test_a_window_is_summarised_again_only_past_the_cap(self, monkeypatch, summaries):
        # the store evicts the least recently read window: one read again
        # after cap - 1 others is still held, after cap others it is not
        cap = 8
        monkeypatch.setattr(porosity_module, "STORE_CAP", cap)
        e = BASES["integers"]
        for others, again in ((cap - 1, 0), (cap, 1)):
            rated = porosity_module.window_store(e)
            first = rated(-0.5, 0.5)
            for k in range(others):
                rated(k + 1.0, k + 2.5)
            summaries[0] = 0
            assert rated(-0.5, 0.5)[3] == first[3] == 0.25
            assert summaries[0] == again

    def test_a_sweep_over_a_large_family_stays_small(self):
        # every window of the pass kept alive traced 6.5 MiB here; the store
        # keeps at most STORE_CAP of them
        e = BASES["integers"]
        intervals = certification_probes(e, Interval(-64.0, 64.0)).intervals()
        assert len(intervals) > 2 * porosity_module.STORE_CAP
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sweep_sides(e, intervals, SIDES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2 * 2 ** 20
