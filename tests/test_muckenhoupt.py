import math
import random

import pytest

from poroweights import (
    FinitePoints,
    Interval,
    Lattice,
    Reflect,
    TripleFamily,
    TripleTable,
    WeightSpec,
    a1_constant,
    catalog,
    critical_alpha,
    distance,
    integrate,
    triple_value,
)
from poroweights.muckenhoupt import DEFAULT_TRIPLE_OCTAVES
from poroweights.porosity import admissible_alpha, certification_probes, sweep_parameters
from poroweights.scaling import is_divergent
from poroweights.sets import largest_component
from poroweights.weights import distance_power, max_distance_on

from .oracles import maximal_average


class TestTripleValue:
    def test_single_point_closed_form(self, singleton):
        v = triple_value(WeightSpec(singleton, 0.5), 0.0, 1.0, 2.0, "plus")
        assert v == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_constant_limit_below_one(self, singleton):
        # far from the set the weight is nearly constant: value ~ (b-a)/(c-a) <= 1
        w = WeightSpec(singleton, 0.5)
        v = triple_value(w, 1000.0, 1000.5, 1001.0, "plus")
        assert v == pytest.approx(0.5, rel=1e-2)
        assert v <= 1.0

    def test_reflected_naturals_growth(self, reflected_naturals):
        w = WeightSpec(reflected_naturals, 0.5)
        values = [triple_value(w, -float(n), 0.0, float(n), "plus") for n in (4, 16, 64, 256)]
        for n, v in zip((4, 16, 64, 256), values):
            assert v == pytest.approx(math.sqrt(2.0 * n), rel=1e-12)

    def test_ordering_required(self, singleton):
        with pytest.raises(ValueError):
            triple_value(WeightSpec(singleton, 0.5), 1.0, 0.5, 2.0)

    def test_nonintegrable_is_flagged_infinite(self, integers):
        v = triple_value(WeightSpec(integers, 1.5), -2.0, 2.0, 3.5, "plus")
        assert v == math.inf


class TestA1Scan:
    def test_naturals_plus_bounded(self, naturals, window):
        fam = TripleFamily.default(naturals, window)
        rep = a1_constant(WeightSpec(naturals, 0.5), "plus", fam)
        assert rep.bounded_evidence
        assert rep.constant_lower_bound > 1.0
        # tail of the ladder stabilises rather than growing
        tail = [v for _, v in rep.ladder[-6:]]
        assert max(tail) <= rep.constant_lower_bound

    def test_naturals_minus_divergent(self, naturals, window):
        fam = TripleFamily.default(naturals, window)
        rep = a1_constant(WeightSpec(naturals, 0.5), "minus", fam)
        assert rep.divergence_flag
        assert rep.witnesses
        values = [t.value for t in rep.witnesses]
        assert values == sorted(values)  # monotone-growing witness chain

    def test_integers_two_sided_bounded(self, integers, window):
        rep = a1_constant(WeightSpec(integers, 0.5), "two_sided", TripleFamily.default(integers, window))
        assert rep.side == "two_sided"
        assert rep.bounded_evidence

    def test_divergence_growth_across_octaves(self, reflected_naturals, window):
        fam = TripleFamily.default(reflected_naturals, window)
        rep = a1_constant(WeightSpec(reflected_naturals, 0.5), "plus", fam)
        assert rep.divergence_flag
        vals = [v for _, v in rep.ladder]
        for idx in range(len(vals) - 3, len(vals)):
            assert vals[idx] >= 8.0 * vals[idx // 2]

    def test_growth_rate_matches_exponent(self, reflected_naturals, window):
        # values scale like s**alpha along the divergent family
        fam = TripleFamily.default(reflected_naturals, window)
        rep = a1_constant(WeightSpec(reflected_naturals, 0.5), "plus", fam)
        assert rep.growth_per_octave == pytest.approx(2.0 ** 0.5, rel=0.05)

    def test_lower_bound_monotone_in_probes(self, naturals, window):
        w = WeightSpec(naturals, 0.5)
        fam = TripleFamily.default(naturals, window)
        small = TripleFamily(anchors=fam.anchors[:4], octaves=fam.octaves[:8], ratios=fam.ratios)
        rep_small = a1_constant(w, "plus", small)
        rep_full = a1_constant(w, "plus", fam)
        assert rep_full.constant_lower_bound >= rep_small.constant_lower_bound

    def test_alpha_above_one_flags_nonintegrable(self, integers, window):
        rep = a1_constant(WeightSpec(integers, 1.25), "plus", TripleFamily.default(integers, window, octaves=8))
        assert rep.nonintegrable_count > 0
        assert not rep.bounded_evidence


class TestDuality:
    def test_minus_equals_reflected_plus_exactly(self, naturals, window):
        fam = TripleFamily.default(naturals, window)
        rep_minus = a1_constant(WeightSpec(naturals, 0.5), "minus", fam)
        rep_plus = a1_constant(WeightSpec(Reflect(naturals), 0.5), "plus", fam.reflected())
        assert rep_minus.constant_lower_bound == rep_plus.constant_lower_bound
        assert rep_minus.divergence_flag == rep_plus.divergence_flag
        assert [v for _, v in rep_minus.ladder] == [v for _, v in rep_plus.ladder]


def _average(w, j):
    return integrate(w, j) / j.length


def _ess_inf(w, j):
    return distance_power(max_distance_on(w.e, j), w.alpha)


class TestFormEquivalence:
    def test_half_split_triples_halve_the_ratio(self, integers, geometric_naturals):
        # averaging over the left half against the inf over the right half is
        # exactly twice the triple value at (lo, mid, hi) when the split point
        # is the true midpoint.  Endpoints on a 2^-20 grid make it
        # representable: both sides then integrate and take the inf over the
        # same intervals and differ only by a power-of-two rescale.
        rnd = random.Random(7)
        for e in (integers, geometric_naturals):
            w = WeightSpec(e, 0.5)
            bound = 0.0
            ratios = []
            for _ in range(50):
                lo = math.ldexp(rnd.randint(-20 << 20, 10 << 20), -20)
                i = Interval(lo, lo + math.ldexp(rnd.randint(1 << 19, 9 << 20), -20))
                tri = triple_value(w, i.lo, i.center, i.hi, "plus")
                form_ii = _average(w, i.left_half) / _ess_inf(w, i.right_half)
                assert form_ii == 2.0 * tri
                bound = max(bound, tri)
                ratios.append(form_ii)
            assert max(ratios) <= 2.0 * bound
        # For arbitrary float endpoints Interval.center is the rounded
        # midpoint, so the left half is not exactly half as long as the
        # interval and the two sides are different real numbers.  The
        # identity, and with it the sup bound, then holds only to rounding.
        rnd = random.Random(5)
        for e in (integers, geometric_naturals):
            w = WeightSpec(e, 0.5)
            bound = 0.0
            ratios = []
            for _ in range(50):
                lo = rnd.uniform(-20.0, 10.0)
                i = Interval(lo, lo + rnd.uniform(0.5, 9.0))
                tri = triple_value(w, i.lo, i.center, i.hi, "plus")
                form_ii = _average(w, i.left_half) / _ess_inf(w, i.right_half)
                assert form_ii == pytest.approx(2.0 * tri, rel=1e-12)
                bound = max(bound, tri)
                ratios.append(form_ii)
            assert max(ratios) <= 2.0 * bound * (1 + 1e-12)


def _farthest_point(e, lo, hi):
    """A point of [lo, hi] farthest from E: an end, the centre of the widest
    component, or the midpoint of a gap that holds an end."""
    cands = [lo, hi, largest_component(e, Interval(lo, hi)).center]
    for x in (lo, hi):
        p, q = e.nearest_leq(x), e.nearest_geq(x)
        if p is not None and q is not None and lo <= 0.5 * (p + q) <= hi:
            cands.append(0.5 * (p + q))
    return max(cands, key=lambda x: distance(e, x))


class TestMaximalFunctionOracle:
    # The triple value bounds M w(x*) / w(x*) from below, at the point x* of
    # the ess-inf window farthest from E, where w(x*) is that ess inf.  On the
    # plus side, for x* in [b, c] the backward average over (a, x*) is at
    # least (1/(c-a)) * integral over (a, b); the minus side mirrors it with
    # the forward average over (x*, c), x* in [a, b].
    def test_maximal_average_dominates_the_triple_value(self):
        checked = 0
        for _, e in catalog(seed=0, cantor_depth=6):
            table = TripleTable(e, TripleFamily.default(e, Interval(-64.0, 64.0), octaves=12))
            for alpha in (0.1, 0.5, 0.9):
                w = WeightSpec(e, alpha)
                for side in ("plus", "minus"):
                    rep = a1_constant(w, side, table)
                    triples = [(t.a, t.b, t.c, t.value) for t in (rep.best, *rep.witnesses)]
                    triples += [t[:4] for t in list(table.samples(side, alpha))[::97]]
                    for a, b, c, value in triples:
                        if side == "plus":
                            x = _farthest_point(e, b, c)
                            m = maximal_average(w, x, "minus", [x - a])
                        else:
                            x = _farthest_point(e, a, b)
                            m = maximal_average(w, x, "plus", [c - x])
                        assert m / distance(e, x) ** -alpha >= value * (1 - 1e-12), (e, alpha, side, a, b, c)
                        checked += 1
        assert checked > 1000


class TestForwardConsistency:
    def test_certified_sets_bounded_at_constructed_alpha(self, window):
        sets = {
            "integers": Lattice(0.0, 1.0, "two_sided"),
            "naturals": Lattice(0.0, 1.0, "right"),
            "random": FinitePoints(sorted(random.Random(12).uniform(-6, 6) for _ in range(24))),
        }
        for name, e in sets.items():
            sweep = sweep_parameters(e, certification_probes(e, window, seed=1), "right")
            assert sweep.certified, name
            params = sweep.admissible_params()
            alpha = admissible_alpha(params.sigma, params.gamma)
            rep = a1_constant(WeightSpec(e, alpha), "plus", TripleFamily.default(e, window))
            assert rep.bounded_evidence, name


def families(e, window, octaves=DEFAULT_TRIPLE_OCTAVES):
    """The probe family and the triple family the CLI builds at its default caps."""
    return certification_probes(e, window), TripleFamily.default(e, window, octaves=octaves)


class TestCriticalAlpha:
    def test_singleton_approaches_one(self, singleton, window):
        res = critical_alpha(singleton, "two_sided", *families(singleton, window))
        assert res.alpha is not None and res.alpha > 0.99
        assert res.monotone

    def test_naturals_plus_interior_value(self, naturals, window):
        res = critical_alpha(naturals, "plus", *families(naturals, window))
        assert res.alpha is not None and 0.0 < res.alpha < 1.0
        half = a1_constant(WeightSpec(naturals, res.alpha / 2.0), "plus", TripleFamily.default(naturals, window))
        assert half.bounded_evidence
        at_one = a1_constant(WeightSpec(naturals, 1.0), "plus", TripleFamily.default(naturals, window))
        assert not at_one.bounded_evidence

    def test_reflected_naturals_has_none(self, reflected_naturals, window):
        res = critical_alpha(reflected_naturals, "plus", *families(reflected_naturals, window))
        assert res.alpha is None
        assert "porosity refuted" in res.note
        assert res.evidence is not None and res.evidence.divergence_flag

    @pytest.mark.parametrize("name, e", catalog(cantor_depth=6), ids=[n for n, _ in catalog(cantor_depth=6)])
    def test_two_sided_alpha_is_at_most_both_one_sided(self, name, e):
        # A1 lies in A1+ and A1-: a two-sided exponent is one of each side
        window = Interval(-8.0, 8.0)
        found = {side: critical_alpha(e, side, *families(e, window, 8), tol=0.125)
                 for side in ("plus", "minus", "two_sided")}
        alpha = {side: res.alpha or 0.0 for side, res in found.items()}
        assert alpha["two_sided"] <= min(alpha["plus"], alpha["minus"]), name
        two = found["two_sided"]
        refuted = [side for side in ("right", "left")
                   if not sweep_parameters(e, certification_probes(e, window), side).certified]
        if refuted:
            assert two.alpha is None and two.grid == ()
            assert two.porosity.side == refuted[0] and not two.porosity.certified
            assert two.note.endswith(f": {refuted[0]} porosity refuted on probes")
        else:
            assert two.porosity.side == "two_sided"


class TestDetector:
    def test_needs_long_ladder(self):
        assert not is_divergent([(k, 2.0 ** k) for k in range(4)])

    def test_power_ladder_flags(self):
        ladder = [(k, 2.0 ** (0.5 * k)) for k in range(24)]
        assert is_divergent(ladder)

    def test_flat_ladder_passes(self):
        ladder = [(k, 5.0 + 0.01 * k) for k in range(24)]
        assert not is_divergent(ladder)
