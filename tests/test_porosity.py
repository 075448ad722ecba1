import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from poroweights import (
    CantorIterate,
    Cutoff,
    FinitePoints,
    Interval,
    PorosityParams,
    ProbeFamily,
    Reflect,
    Translate,
    catalog,
    certification_probes,
    certify,
    rho,
    sigma_at,
    sweep_parameters,
    sweep_sides,
)
from poroweights.porosity import (
    SweepResult,
    admissible_alpha,
    decay_constants,
    decay_exponent,
    dimension_bound,
    window_store,
)
from poroweights.suites import suite_dimension, suite_left_propagation, suite_pore_transport, suite_sided_transport

from . import oracles
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
        rows = list(rep.rows())
        assert len(rows) == rep.probe_count
        lo, hi, rho_minus, rho_plus, _ = rows[0]
        i = Interval(lo, hi)
        assert rho_minus == rho(singleton, i.left_half)
        assert rho_plus == rho(singleton, i.right_half)


def centred_phi(e, exponents, anchor=0.0):
    """sided-transport's Phi over the probes (anchor - 2^n, anchor + 2^n)."""
    fam = ProbeFamily(anchors=(anchor,), scales=tuple(2.0 ** (n + 1) for n in exponents), alignments=("center",))
    return suite_sided_transport(e, fam).constants["phi"]


class TestDoubling:
    def test_naturals_ratios_diverge(self, naturals):
        # rho(I_n)/rho(right half) = 2^n
        assert centred_phi(naturals, range(1, 21)) == 2.0 ** 20

    def test_integers_bounded(self, integers):
        assert centred_phi(integers, range(2, 14)) <= 2.0

    @pytest.mark.parametrize("anchor", [0.0, 0.5])
    def test_singleton_bounded(self, singleton, anchor):
        assert centred_phi(singleton, range(2, 14), anchor) <= 2.0

    def test_the_centred_half_sets_phi(self):
        # points 1/8 apart on [-1, 1]: on (-4, 4) both halves keep a hole 3
        # long, the centred half (-2, 2) only one 1 long, so Phi = 1.5 / 0.5
        e = FinitePoints([k / 8.0 for k in range(-8, 9)])
        assert centred_phi(e, [2]) == 3.0 == oracles.phi_walk(e, [Interval(-4.0, 4.0)])


# the lemma suites' oracle family: the catalog at Cantor depth 6, window +-8
LEMMA_WINDOW = Interval(-8.0, 8.0)
LEMMA_SEED = 1
LEMMA_SETS = catalog(seed=LEMMA_SEED, cantor_depth=6)
LEMMA_GAMMAS = (0.5, 0.0625)
# left-propagation failures on lemma_family at gamma = 1/2, out of 596, 596,
# 836 and 1028 probes; there are none at 1/16, and pore-transport has none
LEFT_PROPAGATION_FAILURES = {"reflected_naturals": 24, "reflected_geometric_naturals": 4, "cantor": 26,
                             "random_finite": 31}


def lemma_family(e):
    return ProbeFamily.default(e, LEMMA_WINDOW, anchor_cap=8, random_count=20, seed=LEMMA_SEED).intervals()


@st.composite
def finite_sets(draw):
    """Random finite sets, and reflects and translates of them."""
    e = FinitePoints(draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12)))
    wrap = draw(st.sampled_from(["none", "reflect", "translate"]))
    if wrap == "reflect":
        return Reflect(e)
    if wrap == "translate":
        return Translate(e, draw(st.floats(-2.0, 2.0)))
    return e


@settings(max_examples=30, deadline=None)
@given(e=finite_sets(), gamma=st.sampled_from(LEMMA_GAMMAS))
def test_the_lemma_suites_match_the_walk_on_finite_sets(e, gamma):
    probes = lemma_family(e)
    assert suite_left_propagation(e, gamma, probes) == oracles.left_propagation_walk(e, gamma, probes)
    assert suite_pore_transport(e, gamma, probes) == oracles.pore_transport_walk(e, gamma, probes)


class TestLeftPropagation:
    @pytest.mark.parametrize("gamma", LEMMA_GAMMAS)
    @pytest.mark.parametrize("name, e", LEMMA_SETS, ids=[name for name, _ in LEMMA_SETS])
    def test_the_catalog_matches_the_walk(self, name, e, gamma):
        probes = lemma_family(e)
        got = suite_left_propagation(e, gamma, probes)
        assert got == oracles.left_propagation_walk(e, gamma, probes)
        assert len(got.failures) == (LEFT_PROPAGATION_FAILURES.get(name, 0) if gamma == 0.5 else 0)

    def test_a_hole_right_of_a_half_lattice_fails(self, reflected_naturals):
        # rho(-8, 8) = 4 from the void (0, 8), against 3 rho(-8, 0) = 3/2
        got = suite_left_propagation(reflected_naturals, 0.5, [Interval(-8.0, 8.0)])
        assert got.checks == 1
        assert got.failures == ({"interval": (-8.0, 8.0), "rho": 4.0, "bound": 1.5},)

    def test_integers_example(self, integers):
        rated = window_store(integers)
        assert rated(-2.0, 2.0)[3] == 0.5
        assert 3.0 * rated(-2.0, 0.0)[3] == 1.5
        got = suite_left_propagation(integers, 0.5, [Interval(-2.0, 2.0)])
        assert got.passed and got.constants == {"factor": 3.0}

    def test_point_free_interval(self, singleton):
        assert window_store(singleton)(5.0, 7.0)[3] == 1.0
        assert suite_left_propagation(singleton, 0.5, [Interval(5.0, 9.0)]).passed

    def test_geometric_example(self, geometric_naturals):
        rated = window_store(geometric_naturals)
        assert rated(-8.0, 8.0)[3] == 2.0
        assert 3.0 * rated(-8.0, 0.0)[3] == 6.0
        assert suite_left_propagation(geometric_naturals, 0.5, [Interval(-8.0, 8.0)]).passed

    def test_a_probe_too_short_to_halve_is_rejected(self):
        with pytest.raises(ValueError, match="cannot halve"):
            suite_left_propagation(FinitePoints([0.0]), 0.5, [Interval(0.0, 5e-324)])


class TestPoreTransport:
    @pytest.mark.parametrize("gamma", LEMMA_GAMMAS)
    @pytest.mark.parametrize("name, e", LEMMA_SETS, ids=[name for name, _ in LEMMA_SETS])
    def test_the_catalog_matches_the_walk(self, name, e, gamma):
        probes = lemma_family(e)
        got = suite_pore_transport(e, gamma, probes)
        assert got == oracles.pore_transport_walk(e, gamma, probes)
        assert got.checks == 4 * len(probes) and got.passed

    def test_a_wide_hole_right_of_a_half_lattice_fails(self, reflected_naturals):
        # rho(0, 64) = 32 against 9 * 2^log2(3) * rho(-32, 0) = 27/2 for the
        # left half; the other three inners are at most a quarter as long
        got = suite_pore_transport(reflected_naturals, 0.5, [Interval(-64.0, 64.0)])
        assert got.checks == 4
        assert got.failures == ({"outer": (-64.0, 64.0), "inner": (-64.0, 0.0), "lhs": 32.0, "rhs": 13.5},)

    def test_constants(self, integers):
        got = suite_pore_transport(integers, 0.5, [Interval(-8.0, 8.0)])
        assert got.constants["theta1"] == 9.0
        assert got.constants["theta2"] == pytest.approx(math.log2(3.0))
        assert got.passed

    def test_counterexample_family_breaks(self, naturals):
        # the inner centre right of the outer one: the bound breaks as n grows
        got = suite_pore_transport(naturals, 0.5, [])
        rows = got.details["counterexample_rows"]
        assert [r["n"] for r in rows] == [5, 10, 20, 40, 80, 160, 320]
        assert all(a["lhs"] <= b["lhs"] for a, b in zip(rows, rows[1:]))
        assert not all(r["ok"] for r in rows) and got.details["counterexample_breaks"]
        assert got.passed and got.checks == 0

    def test_a_probe_too_short_to_halve_is_rejected(self):
        with pytest.raises(ValueError, match="cannot halve"):
            suite_pore_transport(FinitePoints([0.0]), 0.5, [Interval(0.0, 5e-324)])


class TestSweep:
    def test_naturals_right_certifies(self, naturals, window):
        sw = sweep_parameters(naturals, certification_probes(naturals, window, seed=5), "right")
        assert sw.certified
        params = sw.admissible_params()
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
    def test_an_empty_family_is_rejected(self):
        # at anchor 1 a scale of 2**-60 is below the ulp: no probe is left
        fam = ProbeFamily(anchors=(1.0,), scales=(2.0 ** -60,))
        assert fam.bounds() == []
        with pytest.raises(ValueError, match=r"^probe family is empty \(probes too short to halve are left out\)$"):
            certify(FinitePoints([0.0, 1.0]), PorosityParams(0.5, 0.5), fam)

    def test_sided_transport_rejects_an_empty_family(self):
        # over no probe Phi would stay 0.0, and gamma / Phi divide by zero
        fam = ProbeFamily(anchors=(1.0,), scales=(2.0 ** -60,))
        with pytest.raises(ValueError, match=r"^probe family is empty \(probes too short to halve are left out\)$"):
            suite_sided_transport(FinitePoints([0.0, 1.0]), fam)

    def test_sided_transport_rejects_an_empty_list(self):
        # an empty family is refused like any other, not replaced by a default one
        with pytest.raises(ValueError, match=r"^probe family is empty \(probes too short to halve are left out\)$"):
            suite_sided_transport(FinitePoints([0.0, 0.5, 2.0]), [])

    def test_sided_transport_rejects_a_family_without_a_half_hole(self):
        # one subnormal unit u apart: every half and the centred half of the one
        # probe (0, 4u) has holes u long, and rho = u / 2 rounds to 0.0, so Phi
        # would stay 0.0 and gamma / Phi divide by zero
        e = FinitePoints([k * 5e-324 for k in (0, 1, 2, 3, 4, 6, 8)])
        fam = ProbeFamily(anchors=(0.0,), scales=(4 * 5e-324,), alignments=("left",))
        assert fam.bounds() == [(0.0, 2e-323)]
        with pytest.raises(ValueError, match=r"^Phi is undefined: every half and centred half of every probe "
                                             r"has hole radius 0\.0$"):
            suite_sided_transport(e, fam)

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
        # the passes split the bounds in place, with the interval's own error
        i = Interval(0.0, 5e-324)
        message = r"^cannot halve \(0.0, 5e-324\): its midpoint rounds onto an endpoint$"
        with pytest.raises(ValueError, match=message):
            i.left_half
        e = FinitePoints([0.0, 5e-324, -1.0])
        with pytest.raises(ValueError, match=message):
            sweep_parameters(e, [Interval(-1.0, 1.0), i], "right")
        with pytest.raises(ValueError, match=message):
            certify(e, PorosityParams(0.5, 0.5, "two_sided"), [i])


class TestProbeBounds:
    """The passes read a family's bounds; its intervals are the same probes, in the same order."""

    @pytest.mark.parametrize("random_count", [0, 200])
    @pytest.mark.parametrize("half", [2.0, 64.0, 2.0 ** 36], ids=["2", "64", "2^36"])
    @pytest.mark.parametrize("name", [name for name, _ in catalog()])
    def test_bounds_are_the_pairs_of_the_intervals(self, name, half, random_count):
        e = dict(catalog(seed=3, cantor_depth=6))[name]
        window = Interval(-half, half)
        for fam in (ProbeFamily.default(e, window, random_count=random_count, seed=5),
                    certification_probes(e, window, random_count=random_count, seed=5)):
            pairs = fam.bounds()
            assert pairs
            # repr tells -0.0 from 0.0
            assert repr(pairs) == repr([(i.lo, i.hi) for i in fam.intervals()])
            assert repr(fam.intervals()) == repr(oracles.family_intervals_walk(fam))


@pytest.mark.parametrize("name", [name for name, _ in catalog()])
def test_certify_reads_the_sweeps_sigma_star(name):
    # on one family the worst sigma at (sigma, gamma) is sigma*(gamma) of the
    # sweep, whatever sigma: the fixed-pair check and the sweep cannot disagree
    e = dict(catalog(seed=3, cantor_depth=6))[name]
    fam = certification_probes(e, Interval(-8.0, 8.0), anchor_cap=8, random_count=20, seed=3)
    for side in ("right", "left", "two_sided"):
        for gamma in (0.5, 0.125, 2.0 ** -5, 2.0 ** -12):
            worst = certify(e, PorosityParams(0.5, gamma, side), fam).worst_sigma
            assert worst == sweep_parameters(e, fam, side, (gamma,)).best_sigma, (side, gamma)


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
        assert certify(integers, PorosityParams(0.5, 0.5, "two_sided"), intervals).passed
        phi = suite_sided_transport(integers, fam).constants["phi"]
        gamma_t = 0.5 / phi
        half_line = Cutoff(integers, 0.0, "right")
        rep = certify(half_line, PorosityParams(0.5, gamma_t, "right"), intervals)
        assert rep.passed


class TestDimension:
    # a Cantor iterate with a small middle fraction fills most of its window's
    # scales: on (-1, 2) the depth-8 iterate with m = 1/10 fits 0.8226
    E = CantorIterate(0.0, 1.0, 0.1, 8)
    WINDOW = Interval(-1.0, 2.0)

    def test_a_pair_whose_bound_is_below_the_fit_fails(self):
        got = suite_dimension(self.E, self.WINDOW, sigma=0.9, gamma=0.9)
        assert got.bound == dimension_bound(0.9, 0.9) == pytest.approx(0.6849, abs=1e-4)
        assert got.fitted_dimension == pytest.approx(0.8226, abs=1e-4)
        assert not got.passed

    def test_a_pair_whose_bound_is_above_the_fit_passes(self):
        got = suite_dimension(self.E, self.WINDOW, sigma=0.5, gamma=0.03125)
        assert got.bound == pytest.approx(0.9407, abs=1e-4) and got.passed

    def test_without_a_pair_there_is_no_bound(self):
        got = suite_dimension(self.E, self.WINDOW)
        assert got.bound is None and got.passed


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
        # sigma* = 1 at the floor is the sweep's best, but the small gamma
        # there gives the smallest exponent; sigma >= 3/4 all give the same
        # beta2, so among those the larger gamma gives the larger alpha
        table = ((0.5, 0.0), (0.25, 0.3), (0.125, 0.8), (0.0625, 0.9), (2.0 ** -12, 1.0))
        sweep = SweepResult("right", table, 2.0 ** -12, 1.0)
        # where only the floor certifies, its sigma* = 1 is clipped into (0, 1)
        floor_only = SweepResult("right", ((0.5, 0.0), (2.0 ** -12, 1.0)), 2.0 ** -12, 1.0)
        assert floor_only.admissible_params() == PorosityParams(1.0 - 2.0 ** -40, 2.0 ** -12, "right")
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
