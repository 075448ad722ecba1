import math
import random

import pytest

from poroweights import (
    Cutoff,
    FinitePoints,
    Interval,
    PorosityParams,
    ProbeFamily,
    Reflect,
    certification_probes,
    certify,
    doubling_witness,
    rho,
    sigma_at,
    sweep_parameters,
    sweep_sides,
)
from poroweights.porosity import (
    SweepResult,
    WindowStore,
    admissible_alpha,
    decay_constants,
    decay_exponent,
    dimension_bound,
    left_propagation_on,
    pore_transport_on,
)

from .oracles import rho_grid_oracle


class TestRho:
    def test_naturals_doubling_family(self, naturals):
        for n in range(1, 21):
            assert rho(naturals, Interval(-(2.0 ** n), 2.0 ** n)) == 2.0 ** (n - 1)

    def test_geometric_family(self, geometric_naturals):
        for n in range(2, 16):
            assert rho(geometric_naturals, Interval(-(2.0 ** n), 2.0 ** n)) == 2.0 ** (n - 2)

    def test_point_free_interval_is_one_pore(self, singleton):
        i = Interval(3.0, 11.0)
        assert rho(singleton, i) == i.length / 2.0

    def test_lattice_window(self, integers):
        assert rho(integers, Interval(0.25, 2.25)) == 0.5

    def test_monotone_in_interval(self, geometric_naturals):
        rnd = random.Random(11)
        for _ in range(50):
            lo = rnd.uniform(-20, 4)
            length = rnd.uniform(0.5, 16)
            pad_l, pad_r = rnd.uniform(0, 4), rnd.uniform(0, 4)
            inner = Interval(lo, lo + length)
            outer = Interval(lo - pad_l, lo + length + pad_r)
            assert rho(geometric_naturals, inner) <= rho(geometric_naturals, outer) + 1e-15

    def test_grid_oracle_agreement(self, integers, geometric_naturals, cantor10):
        rnd = random.Random(3)
        sets = [integers, geometric_naturals, cantor10, FinitePoints([0.0, 0.3, 2.0])]
        for _ in range(60):
            e = rnd.choice(sets)
            lo = rnd.uniform(-10, 3)
            i = Interval(lo, lo + rnd.uniform(0.5, 8))
            exact = rho(e, i)
            approx = rho_grid_oracle(e, i)
            assert abs(exact - approx) <= i.length / 2000


class TestSigmaAt:
    def test_integers_right(self, integers):
        assert sigma_at(integers, Interval(-2.0, 2.0), 0.5, "right") == 1.0

    def test_naturals_right_void_half(self, naturals):
        assert sigma_at(naturals, Interval(-2.0, 2.0), 0.5, "right") == 1.0

    def test_singleton_lower_bound(self, singleton):
        assert sigma_at(singleton, Interval(-1.0, 1.0), 0.5, "right") >= 0.5

    def test_naturals_two_sided_doubling_interval(self, naturals):
        # the symmetric probe gives exactly one half: the left void qualifies alone
        assert sigma_at(naturals, Interval(-32.0, 32.0), 0.5, "two_sided") == 0.5

    def test_nonincreasing_in_gamma(self, geometric_naturals):
        i = Interval(-7.3, 5.1)
        values = [
            sigma_at(geometric_naturals, i, g, "right")
            for g in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_sides_mirror(self, naturals):
        i = Interval(-5.25, 3.5)
        left = sigma_at(naturals, i, 0.5, "right")
        right = sigma_at(Reflect(naturals), i.reflected(), 0.5, "left")
        assert left == right

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, math.inf, math.nan])
    def test_gamma_outside_the_unit_interval_rejected(self, bad):
        # as in the sweep: a NaN threshold would count every component
        points = [0.0, 1.0, 2.0, 3.0]
        for e in (FinitePoints(points), Reflect(FinitePoints([-p for p in points]))):
            with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\)"):
                sigma_at(e, Interval(-0.5, 3.5), bad, "two_sided")


class TestCertify:
    def test_integers_two_sided(self, integers, window):
        fam = ProbeFamily.default(integers, window, seed=7)
        rep = certify(integers, PorosityParams(0.5, 0.5, "two_sided"), fam)
        assert rep.passed
        assert rep.worst_sigma >= 0.5
        assert rep.probe_count == len(fam.intervals())

    def test_geometric_right_sided(self, geometric_naturals, window):
        fam = ProbeFamily.default(geometric_naturals, window, seed=7)
        rep = certify(geometric_naturals, PorosityParams(0.5, 0.5, "right"), fam)
        assert rep.passed

    def test_naturals_two_sided_fails_with_witness(self, naturals, window):
        fam = ProbeFamily.default(naturals, window, seed=7)
        rep = certify(naturals, PorosityParams(0.5, 0.5, "two_sided"), fam)
        assert not rep.passed
        assert rep.witnesses
        worst, sigma = min(rep.witnesses, key=lambda t: t[1])
        assert sigma < 0.5
        # witness is replayable
        assert sigma_at(naturals, worst, 0.5, "two_sided") == sigma

    def test_row_table_matches_probes(self, singleton, window):
        fam = ProbeFamily.default(singleton, window, random_count=10, seed=1)
        rep = certify(singleton, PorosityParams(0.25, 0.25, "right"), fam)
        assert len(rep.rows) == rep.probe_count
        r = rep.rows[0]
        i = Interval(r.lo, r.hi)
        assert r.rho_minus == rho(singleton, i.left_half)
        assert r.rho_plus == rho(singleton, i.right_half)


class TestDoubling:
    def test_naturals_ratios_diverge(self, naturals):
        fam = [Interval(-(2.0 ** n), 2.0 ** n) for n in range(1, 21)]
        rep = doubling_witness(naturals, fam)
        assert rep.divergent
        assert rep.phi_estimate == 2.0 ** 20  # rho(I_n)/rho(right half) = 2^n
        assert rep.witnesses

    def test_integers_bounded(self, integers):
        fam = [Interval(-(2.0 ** n), 2.0 ** n) for n in range(2, 14)]
        rep = doubling_witness(integers, fam)
        assert not rep.divergent
        assert rep.phi_estimate <= 2.0

    def test_singleton_bounded(self, singleton):
        fam = [Interval(-(2.0 ** n) + 0.5, 2.0 ** n + 0.5) for n in range(2, 14)]
        rep = doubling_witness(singleton, fam)
        assert rep.phi_estimate <= 2.0


class TestLeftPropagation:
    def test_integers_example(self, integers):
        chk = left_propagation_on(WindowStore(integers), Interval(-2.0, 2.0), 0.5)
        assert chk.ok and chk.rho_full == 0.5 and chk.bound == 1.5

    def test_point_free_interval(self, singleton):
        i = Interval(5.0, 9.0)
        chk = left_propagation_on(WindowStore(singleton), i, 0.5)
        assert chk.ok and chk.rho_left == i.length / 4.0

    def test_geometric_example(self, geometric_naturals):
        chk = left_propagation_on(WindowStore(geometric_naturals), Interval(-8.0, 8.0), 0.5)
        assert chk.ok and chk.rho_full == 2.0 and chk.bound == 6.0


class TestPoreTransport:
    def test_constants(self, integers):
        chk = pore_transport_on(WindowStore(integers), Interval(-8.0, 8.0), Interval(-4.0, 2.0), 0.5)
        assert chk.theta1 == 9.0
        assert chk.theta2 == pytest.approx(math.log2(3.0))
        assert chk.ok

    def test_containment_required(self, integers):
        with pytest.raises(ValueError):
            pore_transport_on(WindowStore(integers), Interval(0.0, 1.0), Interval(0.0, 2.0), 0.5)

    def test_center_order_guard(self, naturals):
        outer = Interval(-10.0, 6.0)  # center -2
        inner = Interval(-2.0, 4.0)  # center 1 > -2
        with pytest.raises(ValueError, match="center"):
            pore_transport_on(WindowStore(naturals), outer, inner, 0.5)

    def test_counterexample_family_breaks(self, naturals):
        t = 0.25
        broke = False
        prev_lhs = -1.0
        for n in (5, 10, 20, 40, 80, 160):
            outer = Interval(-2.0 * n * (1 + t), 2.0 * n * (1 - t))
            inner = Interval(float(-n), float(n))
            chk = pore_transport_on(WindowStore(naturals), outer, inner, 0.5, enforce_center_order=False)
            assert chk.lhs >= prev_lhs
            prev_lhs = chk.lhs
            if not chk.ok:
                broke = True
        assert broke


class TestSweep:
    def test_naturals_right_certifies(self, naturals, window):
        sw = sweep_parameters(naturals, certification_probes(naturals, window, seed=5), "right")
        assert sw.certified
        params = sw.params()
        rep = certify(naturals, params, certification_probes(naturals, window, seed=5))
        assert rep.passed

    def test_reflected_naturals_right_refuted(self, reflected_naturals, window):
        sw = sweep_parameters(
            reflected_naturals,
            certification_probes(reflected_naturals, window, seed=5),
            "right",
        )
        assert not sw.certified
        assert all(s == 0.0 for _, s in sw.table)

    def test_sigma_star_nonincreasing_in_gamma(self, integers, window):
        sw = sweep_parameters(integers, certification_probes(integers, window, seed=5), "two_sided")
        sigmas = [s for _, s in sorted(sw.table, key=lambda t: -t[0])]
        assert all(a <= b + 1e-15 for a, b in zip(sigmas, sigmas[1:]))

    @pytest.mark.parametrize("side", ["plus", "minus", "both", ""])
    def test_unknown_side_rejected(self, integers, window, side):
        # the sweep and sigma_at share one region/reference split, so an
        # unknown side fails in both instead of running the two-sided sweep
        probes = certification_probes(integers, window, anchor_cap=4, random_count=0)
        with pytest.raises(ValueError, match="side must be one of"):
            sweep_parameters(integers, probes, side)
        with pytest.raises(ValueError, match="side must be one of"):
            sigma_at(integers, Interval(0.0, 1.0), 0.5, side)

    def test_empty_grid_rejected(self, integers, window):
        probes = certification_probes(integers, window, anchor_cap=4, random_count=0)
        with pytest.raises(ValueError, match="the gamma grid is empty"):
            sweep_parameters(integers, probes, "right", gammas=[])
        with pytest.raises(ValueError, match="the gamma grid is empty"):
            sweep_sides(integers, probes, ("right", "left"), gammas=())

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 2.0, math.inf, math.nan])
    def test_gamma_outside_the_unit_interval_rejected(self, integers, window, bad):
        # a sweep at such a gamma would give a table whose params() fails later
        probes = certification_probes(integers, window, anchor_cap=4, random_count=0)
        with pytest.raises(ValueError, match=r"every gamma must lie in \(0, 1\)"):
            sweep_parameters(integers, probes, "two_sided", gammas=[0.5, bad])
        with pytest.raises(ValueError, match=r"every gamma must lie in \(0, 1\)"):
            sweep_sides(integers, probes, ("right", "left"), gammas=[bad])


class TestProbesTooShortToHalve:
    def test_the_family_leaves_them_out(self):
        # at anchor 1 a scale of 2**-60 is below the ulp, and no anchor splits
        # a 5e-324 scale: only the nine probes that can be halved remain
        fam = ProbeFamily(anchors=(0.0, 1.0), scales=(1.0, 2.0 ** -60, 5e-324))
        intervals = fam.intervals()
        assert len(intervals) == 9
        assert all(i.lo < i.center < i.hi for i in intervals)
        for side in ("right", "left", "two_sided"):
            sweep_parameters(FinitePoints([0.0, 5e-324, -1.0]), intervals, side)

    def test_a_given_one_is_rejected_by_name(self):
        i = Interval(0.0, 5e-324)
        with pytest.raises(ValueError, match=r"cannot halve \(0.0, 5e-324\)"):
            i.left_half
        e = FinitePoints([0.0, 5e-324, -1.0])
        with pytest.raises(ValueError, match="cannot halve"):
            sweep_parameters(e, [Interval(-1.0, 1.0), i], "right")
        with pytest.raises(ValueError, match="cannot halve"):
            certify(e, PorosityParams(0.5, 0.5, "two_sided"), [i])


class TestTransportInvariants:
    def test_reflection_duality_bitwise(self, geometric_naturals, window):
        fam = ProbeFamily.default(geometric_naturals, window, random_count=0, seed=0)
        params_r = PorosityParams(0.5, 0.5, "right")
        params_l = PorosityParams(0.5, 0.5, "left")
        rep_r = certify(geometric_naturals, params_r, fam)
        rep_l = certify(Reflect(geometric_naturals), params_l, [i.reflected() for i in fam.intervals()])
        assert rep_r.passed == rep_l.passed
        assert rep_r.worst_sigma == rep_l.worst_sigma

    def test_cutoff_inherits_right_certification(self, integers, window):
        fam = ProbeFamily.default(integers, window, seed=2)
        intervals = fam.intervals()
        two = certify(integers, PorosityParams(0.5, 0.5, "two_sided"), intervals)
        assert two.passed
        phi = two.phi_estimate
        gamma_t = 0.5 / phi
        half_line = Cutoff(integers, 0.0, "right")
        rep = certify(half_line, PorosityParams(0.5, gamma_t, "right"), intervals)
        assert rep.passed


class TestDerivedConstants:
    def test_decay_pair(self):
        assert decay_constants(0.5, 0.5) == (0.125, 0.75)
        assert decay_constants(0.25, 0.5) == (0.125, 0.875)

    def test_exponent_and_bound(self):
        a0 = decay_exponent(0.5, 0.5)
        assert a0 == pytest.approx(math.log(4 / 3) / math.log(8))
        assert dimension_bound(0.5, 0.5) == pytest.approx(1 - a0)

    def test_admissible_alpha_below_exponent(self):
        for sigma, gamma in ((0.5, 0.5), (0.9, 0.01), (0.1, 0.9)):
            assert 0 < admissible_alpha(sigma, gamma) < decay_exponent(sigma, gamma)

    def test_admissible_params_take_the_largest_alpha(self):
        # sigma* = 1 at the floor maximises params(), but the small gamma
        # there gives the smallest exponent; sigma >= 3/4 all give the same
        # beta2, so among those the larger gamma gives the larger alpha
        table = ((0.5, 0.0), (0.25, 0.3), (0.125, 0.8), (0.0625, 0.9), (2.0 ** -12, 1.0))
        sweep = SweepResult("right", table, 2.0 ** -12, 1.0)
        assert sweep.params() == PorosityParams(1.0 - 2.0 ** -40, 2.0 ** -12, "right")
        best = sweep.admissible_params()
        assert best == PorosityParams(0.8, 0.125, "right")
        alphas = {g: admissible_alpha(min(s, 1.0 - 2.0 ** -40), g) for g, s in table if s > 0.0}
        assert admissible_alpha(best.sigma, best.gamma) == max(alphas.values()) == alphas[0.125]
        with pytest.raises(ValueError, match="no certifiable parameters"):
            SweepResult("right", ((0.5, 0.0),), 0.5, 0.0).admissible_params()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PorosityParams(0.0, 0.5)
        with pytest.raises(ValueError):
            PorosityParams(0.5, 1.0)
        with pytest.raises(ValueError):
            PorosityParams(0.5, 0.5, "sideways")
