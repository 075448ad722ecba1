import math
import random

import mpmath as mp
import pytest

from poroweights import (
    CantorIterate,
    FinitePoints,
    Interval,
    Lattice,
    Reflect,
    Translate,
    WeightSpec,
    distance,
    integrate,
    set_distance,
)
from poroweights.weights import distance_power, evaluation_table, max_distance_on

from .oracles import maximal_average, quad_oracle


class TestIntegrate:
    def test_single_point_half(self, singleton):
        assert integrate(WeightSpec(singleton, 0.5), Interval(0.0, 1.0)) == 2.0

    def test_single_point_symmetric(self, singleton):
        assert integrate(WeightSpec(singleton, 0.5), Interval(-1.0, 1.0)) == 4.0

    def test_unit_cell(self, integers):
        v = integrate(WeightSpec(integers, 0.5), Interval(0.0, 1.0))
        assert v == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_divergent_power(self, singleton):
        assert integrate(WeightSpec(singleton, 1.5), Interval(-1.0, 1.0)) == math.inf
        assert integrate(WeightSpec(singleton, 1.0), Interval(0.0, 1.0)) == math.inf

    def test_log_case_off_the_set(self, singleton):
        v = integrate(WeightSpec(singleton, 1.0), Interval(1.0, 3.0))
        assert v == pytest.approx(math.log(3.0), rel=1e-15)

    def test_additive_over_adjacent(self, geometric_naturals):
        w = WeightSpec(geometric_naturals, 0.5)
        a, b, c = -5.5, -1.25, 3.75
        whole = integrate(w, Interval(a, c))
        parts = integrate(w, Interval(a, b)) + integrate(w, Interval(b, c))
        assert whole == pytest.approx(parts, rel=1e-14)

    def test_run_aggregation_matches_cells(self, naturals):
        w = WeightSpec(naturals, 0.5)
        n = 2 ** 20
        cell = integrate(w, Interval(0.0, 1.0))
        assert integrate(w, Interval(0.0, float(n))) == pytest.approx(n * cell, rel=1e-12)

    def test_quadrature_oracle(self, integers, naturals, geometric_naturals, singleton):
        rnd = random.Random(2)
        sets = [integers, naturals, geometric_naturals, singleton, CantorIterate(0.0, 1.0, 1 / 3, 5)]
        for k in range(30):
            e = sets[k % len(sets)]
            lo = rnd.uniform(-6.0, 3.0)
            i = Interval(lo, lo + rnd.uniform(0.5, 4.0))
            alpha = rnd.uniform(0.02, 0.98)
            mine = integrate(WeightSpec(e, alpha), i)
            oracle = quad_oracle(e, alpha, i)
            assert mine == pytest.approx(oracle, rel=1e-8)


class TestEssentialBounds:
    # ess inf of the weight over J is distance_power of the peak distance on
    # its closure, ess sup distance_power of the distance from J to the set

    def test_ess_inf_examples(self, singleton, integers):
        assert distance_power(max_distance_on(singleton, Interval(1.0, 2.0)), 0.5) == 2.0 ** -0.5
        assert distance_power(max_distance_on(integers, Interval(0.0, 1.0)), 1.0) == 2.0

    def test_ess_sup_infinite_on_set(self, integers):
        assert distance_power(set_distance(integers, Interval(0.5, 1.5)), 0.5) == math.inf

    def test_ess_sup_off_set(self, integers):
        assert distance_power(set_distance(integers, Interval(0.25, 0.75)), 0.5) == 0.25 ** -0.5

    def test_sandwich(self, integers, geometric_naturals):
        rnd = random.Random(7)
        for e in (integers, geometric_naturals):
            for _ in range(20):
                lo = rnd.uniform(-9, 4)
                j = Interval(lo, lo + rnd.uniform(0.3, 5.0))
                alpha = rnd.uniform(0.1, 0.9)
                avg = integrate(WeightSpec(e, alpha), j) / j.length
                assert distance_power(max_distance_on(e, j), alpha) <= avg * (1 + 1e-12)
                assert avg <= distance_power(set_distance(e, j), alpha)

    def test_interior_peak_detected(self):
        e = FinitePoints([-0.5, 2.5])
        assert max_distance_on(e, Interval(0.0, 2.0)) == 1.5


class TestSupportProfile:
    def test_non_integrable(self, singleton):
        w = WeightSpec(singleton, 2.0)
        assert integrate(w, Interval(-1.0, 1.0)) == math.inf

    def test_alpha_validation(self, singleton):
        for alpha in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                WeightSpec(singleton, alpha)


class TestMaximalAverages:
    def test_lower_bound_at_unit_distance(self, singleton):
        assert maximal_average(WeightSpec(singleton, 0.5), 1.0, "minus") >= 2.0

    def test_near_constant_weight(self, singleton):
        w = WeightSpec(singleton, 0.5)
        x = 1000.0
        est = maximal_average(w, x, "minus", span=8.0)
        assert est == pytest.approx(distance_power(distance(singleton, x), 0.5), rel=5e-3)

    def test_forward_version(self, singleton):
        assert maximal_average(WeightSpec(singleton, 0.5), -1.0, "plus") >= 2.0

    def test_naturals_left_of_origin(self, naturals):
        v = maximal_average(WeightSpec(naturals, 0.5), -1.0, "minus", span=64.0)
        assert math.isfinite(v) and v > 0.0

    def test_explicit_candidates_are_lower_bounds(self, singleton):
        w = WeightSpec(singleton, 0.5)
        sparse = maximal_average(w, 1.0, "minus", h_candidates=[1.0])
        dense = maximal_average(w, 1.0, "minus")
        assert sparse == 2.0
        assert dense >= sparse


class TestCovariance:
    DYADIC_WINDOWS = [(-3.5, 2.25), (0.125, 7.75), (-10.5, -0.25)]

    def sets(self):
        return [
            Lattice(0.0, 1.0, "two_sided"),
            Lattice(0.0, 1.0, "right"),
            FinitePoints([0.0]),
            CantorIterate(0.0, 1.0, 0.5, 6),
        ]

    def test_translation_bitwise(self):
        t = 2.75
        for e in self.sets():
            for lo, hi in self.DYADIC_WINDOWS:
                w = WeightSpec(e, 0.5)
                wt = WeightSpec(Translate(e, t), 0.5)
                assert integrate(w, Interval(lo, hi)) == integrate(wt, Interval(lo + t, hi + t))

    def test_reflection_bitwise(self):
        for e in self.sets():
            for lo, hi in self.DYADIC_WINDOWS:
                w = WeightSpec(e, 0.5)
                wr = WeightSpec(Reflect(e), 0.5)
                assert integrate(w, Interval(lo, hi)) == integrate(wr, Interval(-hi, -lo))


class TestProfileAndTable:
    def test_evaluation_table(self, singleton):
        rows = evaluation_table(WeightSpec(singleton, 0.5), [0.0, 0.25, 4.0])
        assert rows[0] == (0.0, 0.0, math.inf)
        assert rows[1] == (0.25, 0.25, 0.25 ** -0.5)
        assert rows[2] == (4.0, 4.0, 0.5)
