import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from poroweights import (
    CantorIterate,
    Cutoff,
    FinitePoints,
    GeometricPlusLattice,
    Interval,
    Lattice,
    PointCapExceeded,
    Reflect,
    SetFormatError,
    Translate,
    UnionSet,
    distance,
    from_json,
    neighborhood_measure,
    set_distance,
    to_dict,
)
from poroweights.sets import max_component_length, min_component_length

from .oracles import component_lengths, iter_components


def comps(e, i):
    """The components of I \\ E in order, each cell run of the oracle walk unrolled."""
    out = []
    for item in iter_components(e, i):
        if item[0] == "span":
            out.append(item[1:])
        else:
            _, start, step, m = item
            out.extend((start + k * step, start + (k + 1) * step) for k in range(m))
    return out


def total_length(e, i):
    return math.fsum(length * m for length, m in component_lengths(e, i))


def count_in(e, lo, hi):
    return sum(r.count for r in e.runs_in(lo, hi))


class TestGaps:
    def test_lattice_window(self, integers):
        assert comps(integers, Interval(0.25, 2.25)) == [(0.25, 1.0), (1.0, 2.0), (2.0, 2.25)]

    def test_point_free_window(self, singleton):
        assert comps(singleton, Interval(1.0, 2.0)) == [(1.0, 2.0)]

    def test_geometric_branch(self, geometric_naturals):
        assert comps(geometric_naturals, Interval(-8.0, 0.0)) == [(-8.0, -4.0), (-4.0, -2.0), (-2.0, 0.0)]

    def test_component_lengths_cover_window(self, integers):
        assert total_length(integers, Interval(-3.3, 4.2)) == pytest.approx(7.5, rel=1e-12)

    def test_cap_is_enforced(self, integers):
        with pytest.raises(PointCapExceeded):
            integers.points_in(0.0, 2.0 ** 21, cap=10_000)

    def test_cap_error_survives_pickling(self):
        # a CLI worker's exception comes back pickled; one that did not
        # unpickle left the process pool waiting for ever
        exc = pickle.loads(pickle.dumps(PointCapExceeded(12, 10, (0.0, 1.5))))
        assert (exc.count, exc.cap, exc.window) == (12, 10, (0.0, 1.5))
        assert str(exc) == "window (0.0, 1.5) holds 12 points, above the cap of 10"


class TestDistance:
    def test_examples(self, integers, naturals, singleton):
        assert distance(integers, 0.3) == 0.3
        assert distance(naturals, -5.0) == 5.0
        assert distance(singleton, -2.0) == 2.0

    def test_zero_iff_member(self, integers):
        assert distance(integers, 7.0) == 0.0
        assert distance(integers, 7.0 + 2.0 ** -20) > 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-50, 50),
        y=st.floats(-50, 50),
        step=st.floats(0.1, 3.0),
        origin=st.floats(-2.0, 2.0),
    )
    def test_lipschitz(self, x, y, step, origin):
        e = Lattice(origin, step, "two_sided")
        assert abs(distance(e, x) - distance(e, y)) <= abs(x - y) + 1e-12


class TestSetDistance:
    def test_examples(self, integers, naturals, singleton):
        assert set_distance(singleton, Interval(1.0, 2.0)) == 1.0
        assert set_distance(integers, Interval(0.25, 0.75)) == 0.25
        assert set_distance(naturals, Interval(-3.0, -1.0)) == 1.0

    def test_zero_when_closure_meets(self, integers):
        assert set_distance(integers, Interval(1.0, 1.5)) == 0.0
        assert set_distance(integers, Interval(0.5, 1.0)) == 0.0


class TestNeighborhoodMeasure:
    def test_single_point(self, singleton):
        assert neighborhood_measure(singleton, Interval(-1.0, 1.0), 0.5) == 1.0

    def test_overlapping_cover(self, integers):
        assert neighborhood_measure(integers, Interval(0.0, 1.0), 0.6) == 1.0

    def test_clipped_union(self, integers):
        # 9 interior points at 0.5 each, window-endpoint points clipped to 0.25
        assert neighborhood_measure(integers, Interval(0.0, 10.0), 0.25) == 5.0

    def test_monotone_and_capped(self, geometric_naturals):
        i = Interval(-10.0, 10.0)
        values = [neighborhood_measure(geometric_naturals, i, eps) for eps in (0.05, 0.1, 0.4, 1.0, 3.0)]
        assert values == sorted(values)
        assert all(v <= i.length for v in values)

    def test_saturates_beyond_half_largest_gap(self, integers):
        i = Interval(0.0, 6.0)
        assert neighborhood_measure(integers, i, 0.5 + 2.0 ** -30) == i.length

    def test_grid_indicator_oracle(self, integers, geometric_naturals, singleton):
        rnd = random.Random(4)
        for e in (integers, geometric_naturals, singleton):
            for _ in range(5):
                lo = rnd.uniform(-12, 4)
                i = Interval(lo, lo + rnd.uniform(1, 8))
                eps = rnd.uniform(0.05, 1.2)
                n = 10_000
                step = i.length / n
                hits = sum(
                    1 for k in range(n) if distance(e, i.lo + (k + 0.5) * step) < eps
                )
                approx = hits * step
                count = count_in(e, i.lo - eps, i.hi + eps)
                exact = neighborhood_measure(e, i, eps)
                assert abs(approx - exact) <= 4.0 * step * (count + 1)


class TestTransforms:
    def test_reflect_naturals(self, naturals):
        r = Reflect(naturals)
        assert r.points_in(-3.0, 1.0) == [-3.0, -2.0, -1.0, 0.0]

    def test_cutoff_integers(self, integers):
        c = Cutoff(integers, 0.0, "right")
        assert c.points_in(-5.0, 2.0) == [0.0, 1.0, 2.0]
        assert Cutoff(integers, 0.0, "left").points_in(-2.0, 5.0) == [-2.0, -1.0, 0.0]

    def test_translate_point(self, singleton):
        assert Translate(singleton, 3.0).points_in(0.0, 5.0) == [3.0]

    def test_translate_merges_points_the_shift_rounds_together(self):
        # 0.375 + 3.9e-26 rounds to 0.375: the translate holds one point, not
        # two at one coordinate with a phantom 3.9e-26 gap between them
        e = Translate(FinitePoints([0.0, 3.882581462295065e-26]), 0.375)
        assert count_in(e, 0.0, 1.0) == 1
        assert e.points_in(0.0, 1.0) == [0.375]
        assert min_component_length(e, Interval(0.0, 1.0)) == 0.375

    def test_translate_of_a_lattice_finds_its_nearest_points(self):
        # the inner lattice answered nearest_geq(nextafter(p)) with p itself,
        # since 0.25 + k/3 rounds below the query its index k was bounded
        # for, so the translate's search stepped on the spot forever
        e = Translate(Lattice(0.25, 1.0 / 3.0, "left"), -1.9)
        x = -1.983333333333333
        assert e.nearest_geq(x) == 0.25 - 1.9
        assert e.nearest_leq(x) == -0.08333333333333331 - 1.9 < x

    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.floats(-3.0, 3.0),
        step=st.sampled_from([1.0 / 3.0, 0.1, 0.7, 1.0]),
        extent=st.sampled_from(["two_sided", "left", "right"]),
        x=st.floats(-50.0, 50.0),
    )
    def test_lattice_nearest_points_bracket_the_query(self, origin, step, extent, x):
        e = Lattice(origin, step, extent)
        below, above = e.nearest_leq(x), e.nearest_geq(x)
        assert below is None or below <= x
        assert above is None or above >= x
        # a search just past a point moves on to the next one
        if below is not None:
            nxt = e.nearest_geq(math.nextafter(below, math.inf))
            assert nxt is None or nxt > below
        if above is not None:
            prev = e.nearest_leq(math.nextafter(above, -math.inf))
            assert prev is None or prev < above

    @settings(max_examples=200, deadline=200)
    @given(
        origin=st.one_of(st.floats(-4.0, 4.0), st.floats(-(2.0 ** 51), 2.0 ** 51)),
        step=st.one_of(st.floats(2.0 ** -42, 2.0 ** -38), st.sampled_from([1.0 / 3.0, 1.0])),
        extent=st.sampled_from(["two_sided", "left", "right"]),
        shift=st.one_of(st.just(0.0), st.floats(-(2.0 ** 51), 2.0 ** 51)),
        offset=st.one_of(st.floats(-4.0, 4.0), st.floats(-(2.0 ** 51), 2.0 ** 51)),
    )
    def test_extreme_magnitudes_raise_or_bracket(self, origin, step, extent, shift, offset):
        # |x| up to 2^51 against steps near 2^-40: a query either brackets x
        # or says the step is below the float resolution, and never loops
        lattice = Lattice(origin, step, extent)
        for e, x in ((lattice, origin + offset), (Translate(lattice, shift), origin + shift + offset)):
            try:
                below, above = e.nearest_leq(x), e.nearest_geq(x)
            except ValueError as exc:
                assert "below the float resolution" in str(exc)
                continue
            assert below is None or below <= x
            assert above is None or above >= x
            assert below is not None or above is not None

    def test_a_step_below_resolution_raises(self):
        with pytest.raises(ValueError, match="below the float resolution"):
            Lattice(2.0 ** 50, 2.0 ** -40).nearest_leq(2.0 ** 50)

    def test_translate_keeps_lattice_runs(self):
        # a step far above the rounding of the shift keeps the run compressed
        e = Translate(Lattice(0.0, 1.0, "two_sided"), 0.375)
        runs = e.runs_in(-2.0 ** 30, 2.0 ** 30)
        assert len(runs) == 1 and runs[0].step == 1.0 and runs[0].count == 2 ** 31

    def test_nested_translates_keep_lattice_runs(self):
        # a run carries every shift in order; one that could take a single
        # shift only was materialised, over the point cap on this window
        e = Translate(Translate(Lattice(0.0, 1.0, "two_sided"), 0.5), 0.25)
        runs = e.runs_in(-2.0 ** 30, 2.0 ** 30)
        assert len(runs) == 1 and runs[0].shift == (0.5, 0.25) and runs[0].count == 2 ** 31
        assert e.points_in(-2.0, 1.0) == [-1.25, -0.25, 0.75]

    def test_reflect_gaps_mirror(self, geometric_naturals):
        i = Interval(-9.5, 3.25)
        right = comps(Reflect(geometric_naturals), i.reflected())
        assert comps(geometric_naturals, i) == [(-hi, -lo) for lo, hi in reversed(right)]


class TestRunsConsistency:
    def test_runs_match_points(self, geometric_naturals):
        lo, hi = -40.0, 25.0
        from_runs = [p for r in geometric_naturals.runs_in(lo, hi) for p in r.points()]
        assert from_runs == geometric_naturals.points_in(lo, hi)

    def test_huge_window_stays_cheap(self, naturals):
        i = Interval(-(2.0 ** 20), 2.0 ** 20)
        assert max_component_length(naturals, i) == 2.0 ** 20
        assert count_in(naturals, i.lo, i.hi) == 2 ** 20 + 1

    def test_min_component_length(self, integers):
        assert min_component_length(integers, Interval(-8.0, 8.0)) == 1.0


class TestGapSumProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        origin=st.floats(-3.0, 3.0),
        step=st.floats(0.05, 2.5),
        lo=st.floats(-30.0, 20.0),
        length=st.floats(0.5, 35.0),
    )
    def test_lattice_gap_sum(self, origin, step, lo, length):
        e = Lattice(origin, step, "two_sided")
        i = Interval(lo, lo + length)
        assert total_length(e, i) == pytest.approx(i.length, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        pts=st.lists(st.floats(-20, 20), min_size=1, max_size=12),
        lo=st.floats(-25.0, 15.0),
        length=st.floats(0.5, 30.0),
    )
    def test_finite_gap_sum(self, pts, lo, length):
        e = FinitePoints(pts)
        i = Interval(lo, lo + length)
        assert total_length(e, i) == pytest.approx(i.length, rel=1e-12)


class TestSerialization:
    def variants(self):
        return [
            FinitePoints([-1.5, 0.0, 2.25]),
            Lattice(0.0, 1.0, "two_sided"),
            Lattice(0.5, 0.25, "right"),
            GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right")),
            CantorIterate(0.0, 1.0, 1.0 / 3.0, 6),
            UnionSet([Lattice(0.0, 1.0, "two_sided"), FinitePoints([0.5])]),
            Translate(FinitePoints([0.0]), 2.5),
            Reflect(Lattice(0.0, 1.0, "right")),
            Cutoff(Lattice(0.0, 1.0, "two_sided"), 0.0, "right"),
        ]

    def test_round_trip(self):
        for e in self.variants():
            assert to_dict(from_json(json.dumps(to_dict(e)))) == to_dict(e)

    def test_kind_tags(self):
        kinds = {to_dict(e)["kind"] for e in self.variants()}
        assert kinds == {
            "finite",
            "lattice",
            "geometric_lattice",
            "cantor",
            "union",
            "translate",
            "reflect",
            "cutoff",
        }

    def test_malformed_json(self):
        with pytest.raises(SetFormatError, match="line 1"):
            from_json("{not json")

    def test_missing_field_has_path(self):
        with pytest.raises(SetFormatError, match=r"\$: missing field 'step'"):
            from_json(json.dumps({"kind": "lattice", "origin": 0.0}))

    def test_nested_path_in_error(self):
        doc = {"kind": "union", "members": [{"kind": "lattice", "origin": 0.0}]}
        with pytest.raises(SetFormatError, match=r"members\[0\]"):
            from_json(json.dumps(doc))

    def test_bad_values_rejected(self):
        with pytest.raises(SetFormatError):
            from_json(json.dumps({"kind": "lattice", "origin": 0.0, "step": -1.0}))
        with pytest.raises(SetFormatError):
            from_json(json.dumps({"kind": "cantor", "lo": 0, "hi": 1, "middle": 2.0, "depth": 3}))
        with pytest.raises(SetFormatError, match="unknown kind"):
            from_json(json.dumps({"kind": "mystery"}))


class TestValidation:
    def test_lattice_needs_positive_step(self):
        with pytest.raises(ValueError):
            Lattice(0.0, 0.0, "two_sided")

    def test_geometric_ratio(self):
        with pytest.raises(ValueError):
            GeometricPlusLattice(1.0, Lattice(0.0, 1.0, "right"))

    def test_interval_orientation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_cantor_depth_limit(self):
        with pytest.raises(ValueError):
            CantorIterate(0.0, 1.0, 0.5, 40)

    def test_finite_points_nonempty(self):
        with pytest.raises(ValueError):
            FinitePoints([])
